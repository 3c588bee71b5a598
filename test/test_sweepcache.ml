(* The content-addressed sweep cache: digests must track exactly the
   inputs a result depends on (kernels as printed text, launch
   geometry, dataset seed, config, mode, simulator tag) and ignore
   presentation (label) and observably-equivalent knobs (fast-forward);
   a warm sweep must serve every job from the store with byte-identical
   output and zero re-simulation; corrupt entries must degrade to a
   re-run, never an error. *)

module P = Critload.Parsweep
module Json = Gsim.Stats_io.Json

let cfg = Gsim.Config.default |> Gsim.Config.with_caps ~max_warp_insts:6_000 ()

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "critload-cache-test-%d-%d" (Unix.getpid ()) !n)
    in
    (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d

let rm_rf dir =
  match Sys.readdir dir with
  | files ->
      Array.iter (fun f -> try Sys.remove (Filename.concat dir f) with _ -> ())
        files;
      (try Unix.rmdir dir with _ -> ())
  | exception Sys_error _ -> ()

(* ---- digest properties ---- *)

let test_digest_invariants () =
  let j = P.job ~cfg ~warmup:false "2mm" in
  Alcotest.(check string) "digest deterministic" (P.job_digest j)
    (P.job_digest j);
  Alcotest.(check string) "label excluded" (P.job_digest j)
    (P.job_digest (P.job ~label:"other" ~cfg ~warmup:false "2mm"));
  let differs what j' =
    Alcotest.(check bool) (what ^ " changes the digest") true
      (P.job_digest j <> P.job_digest j')
  in
  differs "config"
    (P.job ~cfg:{ cfg with l1_mshr_entries = 32 } ~warmup:false "2mm");
  differs "scale" (P.job ~cfg ~warmup:false ~scale:Workloads.App.Default "2mm");
  differs "mode" (P.job ~cfg ~warmup:false ~mode:P.Func "2mm");
  differs "warmup" (P.job ~cfg "2mm");
  differs "profile" (P.job ~cfg ~warmup:false ~profile:true "2mm");
  differs "app" (P.job ~cfg ~warmup:false "gaus")

(* [job_digest] memoizes fingerprints by (registry name, scale); that is
   sound only if a fingerprint is a function of the app and scale.  Two
   fresh [app_fingerprint] calls of each suite app must agree, with
   every other app's fingerprint and the digests that fill the memo
   run in between. *)
let test_fingerprint_deterministic () =
  List.iter
    (fun scale ->
      let fingerprints () =
        List.map
          (fun (app : Workloads.App.t) ->
            (app.Workloads.App.name, P.app_fingerprint app scale))
          Workloads.Suite.all
      in
      let first = fingerprints () in
      List.iter
        (fun name -> ignore (P.job_digest (P.job ~cfg ~scale name)))
        Workloads.Suite.names;
      List.iter2
        (fun (name, a) (_, b) ->
          Alcotest.(check string)
            (Printf.sprintf "%s at %s: fresh fingerprints agree" name
               (Workloads.App.string_of_scale scale))
            a b)
        first (fingerprints ()))
    [ Workloads.App.Small; Workloads.App.Default ]

(* An unknown app raises from every digest and probes as a plain miss
   every time: a failed lookup leaves nothing in the memo. *)
let test_unknown_app_not_memoized () =
  let dir = fresh_dir () in
  let j = P.job ~cfg "no-such-app" in
  for call = 1 to 2 do
    (match P.job_digest j with
    | exception Invalid_argument _ -> ()
    | d -> Alcotest.failf "call %d: unknown app digested to %s" call d);
    Alcotest.(check bool)
      (Printf.sprintf "call %d: unknown app probes as a miss" call)
      true
      (P.cache_probe ~dir j = P.Cache_miss)
  done;
  rm_rf dir

let test_seed_changes_fingerprint () =
  let app = Workloads.Suite.find "2mm" in
  let app' = { app with Workloads.App.seed = app.Workloads.App.seed + 1 } in
  Alcotest.(check bool) "seed change invalidates" true
    (P.app_fingerprint app Workloads.App.Small
    <> P.app_fingerprint app' Workloads.App.Small)

(* ---- kernel-text sensitivity ---- *)

let mini_app_of kernel =
  Workloads.App.v ~name:"mini" ~category:Workloads.App.Linear
    ~description:"synthetic cache-test app" ~seed:1 (fun _rng _scale ->
      Workloads.App.host ~global:(Gsim.Mem.create 4096)
        ~check:(fun () -> true)
        (fun launch ->
          launch ~kernel ~grid:(1, 1, 1) ~block:(32, 1, 1)
            ~params:[ ("a", 0L) ]))

let mini_app text = mini_app_of (Ptx.Parse.kernel_of_string text)

let kernel_a =
  ".kernel k (.param .u64 a)\n.reg 2 .pred 1 .shared 0\n{\n\
  \  ld.param.u64 %r0, [a];\n  ld.global.u32 %r1, [%r0+64];\n  exit;\n}"

(* same program, different surface syntax *)
let kernel_a_reformatted =
  ".kernel k (.param .u64 a)   // comment\n.reg 2 .pred 1 .shared 0\n{\n\
  \    ld.param.u64   %r0, [a];\n\n  ld.global.u32 %r1, [%r0+64]; // load\n\
  \  exit;\n}"

(* different program: the load offset changed *)
let kernel_b =
  ".kernel k (.param .u64 a)\n.reg 2 .pred 1 .shared 0\n{\n\
  \  ld.param.u64 %r0, [a];\n  ld.global.u32 %r1, [%r0+128];\n  exit;\n}"

let test_kernel_text_sensitivity () =
  let fp text =
    P.app_fingerprint (mini_app text) Workloads.App.Small
  in
  Alcotest.(check string) "formatting-only edit keeps the fingerprint"
    (fp kernel_a) (fp kernel_a_reformatted);
  Alcotest.(check bool) "changed instruction changes the fingerprint" true
    (fp kernel_a <> fp kernel_b)

(* A kernel both verifiers accept but the parser cannot read back: a
   float immediate as a load's address base prints as [0x1p+0], whose
   exponent sign parses as an offset separator.  The fingerprint hashes
   the printed text and parses nothing, so such an app still digests,
   and by its kernel's content. *)
let test_unparseable_kernel_fingerprints () =
  let app base =
    mini_app_of
      (Ptx.Kernel.create ~name:"k" ~params:[] ~nregs:1 ~npregs:1
         ~smem_bytes:0
         [| Ptx.Instr.Ld
              ( Ptx.Types.Global, Ptx.Types.U32, 0,
                { Ptx.Types.abase = Ptx.Types.Fimm base; aoffset = 0 } );
            Ptx.Instr.Exit |])
  in
  let fp base = P.app_fingerprint (app base) Workloads.App.Small in
  Alcotest.(check int) "an MD5 in hex" 32 (String.length (fp 1.0));
  Alcotest.(check string) "deterministic" (fp 1.0) (fp 1.0);
  Alcotest.(check bool) "another base, another fingerprint" true
    (fp 1.0 <> fp 2.0)

(* ---- store / lookup primitives ---- *)

let test_store_lookup_roundtrip () =
  let dir = fresh_dir () in
  let j = P.job ~cfg ~warmup:false "2mm" in
  Alcotest.(check bool) "empty cache misses" true
    (P.cache_probe ~dir j = P.Cache_miss);
  let payload = P.exec_job j in
  P.cache_store ~dir j payload;
  (match P.cache_probe ~dir j with
  | P.Cache_hit v ->
      Alcotest.(check string) "payload round-trips"
        (Json.to_string payload) (Json.to_string v)
  | P.Cache_miss | P.Cache_damaged _ -> Alcotest.fail "stored entry not found");
  (* a torn / corrupt entry is a miss, not an error *)
  let entry = Filename.concat dir (P.job_digest j ^ ".json") in
  let oc = open_out entry in
  output_string oc "{ not json";
  close_out oc;
  Alcotest.(check bool) "corrupt entry degrades to a miss" true
    (match P.cache_probe ~dir j with P.Cache_hit _ -> false | _ -> true);
  Sys.remove entry;
  (* a store whose final flush fails (its temporary file links to
     /dev/full, where every write is ENOSPC) leaves nothing behind: a
     plain miss, not a short entry to report as damage *)
  if Sys.file_exists "/dev/full" then begin
    let tmp = Printf.sprintf "%s.tmp.%d" entry (Unix.getpid ()) in
    Unix.symlink "/dev/full" tmp;
    P.cache_store ~dir j payload;
    Alcotest.(check (array string)) "failed flush leaves no file" [||]
      (Sys.readdir dir);
    Alcotest.(check bool) "failed flush probes as a miss" true
      (P.cache_probe ~dir j = P.Cache_miss)
  end;
  (* a store whose rename fails (a directory holds the entry's name)
     removes its temporary file and leaves nothing to serve *)
  Unix.mkdir entry 0o755;
  P.cache_store ~dir j payload;
  Alcotest.(check (list string)) "failed store leaves no temporary file"
    [ Filename.basename entry ]
    (Array.to_list (Sys.readdir dir));
  Alcotest.(check bool) "failed store is not a hit" true
    (match P.cache_probe ~dir j with P.Cache_hit _ -> false | _ -> true);
  Unix.rmdir entry;
  rm_rf dir

(* ---- probe verdicts: hit vs stale-miss vs damaged ---- *)

(* [v] with its [key] member replaced by [f] of its value *)
let update key f = function
  | Json.Obj fields ->
      Json.Obj
        (List.map (fun (k, v) -> if k = key then (k, f v) else (k, v)) fields)
  | v -> v

let test_probe_verdicts () =
  let dir = fresh_dir () in
  let j = P.job ~cfg ~warmup:false "2mm" in
  let entry = Filename.concat dir (P.job_digest j ^ ".json") in
  let write s =
    let oc = open_out entry in
    output_string oc s;
    close_out oc
  in
  let damaged ?(job = j) what =
    match P.cache_probe ~dir job with
    | P.Cache_damaged _ -> ()
    | P.Cache_hit _ -> Alcotest.failf "%s served as a hit" what
    | P.Cache_miss -> Alcotest.failf "%s counted as a plain miss" what
  in
  Alcotest.(check bool) "absent entry probes as a miss" true
    (P.cache_probe ~dir j = P.Cache_miss);
  let payload = P.exec_job j in
  P.cache_store ~dir j payload;
  let good =
    let ic = open_in entry in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  (match P.cache_probe ~dir j with
  | P.Cache_hit v ->
      Alcotest.(check string) "intact entry serves the stored payload"
        (Json.to_string payload) (Json.to_string v)
  | _ -> Alcotest.fail "intact entry did not probe as a hit");
  (* torn write: a prefix of the real entry is damage, not a miss *)
  write (String.sub good 0 (String.length good / 2));
  damaged "torn entry";
  (* valid JSON whose digest names a different job: damage (the store
     is content-addressed; a digest mismatch means the file is lying) *)
  let other = P.job ~cfg ~warmup:false "gaus" in
  write
    (Json.to_string
       (Json.Obj
          [ ("schema", Json.member "schema" (Json.of_string good));
            ("sim_tag", Json.Str Critload.Version.sim_tag);
            ("digest", Json.Str (P.job_digest other));
            ("result", payload) ]));
  damaged "digest-mismatched entry";
  (* result payload that does not decode as this mode's summary *)
  write
    (Json.to_string
       (Json.Obj
          [ ("schema", Json.member "schema" (Json.of_string good));
            ("sim_tag", Json.Str Critload.Version.sim_tag);
            ("digest", Json.Str (P.job_digest j));
            ("result", Json.Obj [ ("x", Json.Int 42) ]) ]));
  damaged "undecodable result";
  (* valid JSON that is not an object *)
  write "[1, 2]";
  damaged "non-object entry";
  (* a different simulator version is staleness, not damage *)
  write
    (Json.to_string
       (Json.Obj
          [ ("schema", Json.member "schema" (Json.of_string good));
            ("sim_tag", Json.Str "someone-else");
            ("digest", Json.Str (P.job_digest j));
            ("result", payload) ]));
  Alcotest.(check bool) "foreign sim_tag probes as a stale miss" true
    (P.cache_probe ~dir j = P.Cache_miss);
  (* re-storing repairs the entry *)
  P.cache_store ~dir j payload;
  Alcotest.(check bool) "re-stored entry hits again" true
    (match P.cache_probe ~dir j with P.Cache_hit _ -> true | _ -> false);
  (* payloads that parse but misstate a fixed shape: a profile
     histogram one bucket too long, a load class other than D/N, and
     func-summary per-class arrays of the wrong length *)
  let store_edited job edit = P.cache_store ~dir job (edit (P.exec_job job)) in
  let pj = P.job ~cfg ~warmup:false ~profile:true "2mm" in
  let long_hist _ =
    Json.Arr (List.init (Gsim.Profile.n_buckets + 1) (fun _ -> Json.Int 0))
  in
  store_edited pj
    (update "profile" (update "class_d" (update "hist" long_hist)));
  damaged ~job:pj "over-long profile histogram";
  store_edited pj
    (update "profile"
       (update "per_pc" (function
         | Json.Arr (first :: rest) ->
             Json.Arr (update "cls" (fun _ -> Json.Str "X") first :: rest)
         | v -> v)));
  damaged ~job:pj "profile load class X";
  let fj = P.job ~cfg ~mode:P.Func "2mm" in
  store_edited fj (update "gld_warps" (fun _ -> Json.Arr []));
  damaged ~job:fj "empty func-summary class array";
  rm_rf dir

(* ---- cold vs warm sweep ---- *)

let run_counting ?(damaged = ref 0) ~cache_dir jobs =
  let started = ref 0 and cached = ref 0 in
  let on_event = function
    | P.Started _ -> incr started
    | P.Cached _ -> incr cached
    | P.Cache_damage _ -> incr damaged
    | _ -> ()
  in
  let outcomes = P.run ~workers:2 ~timeout:300. ~on_event ?cache_dir jobs in
  (outcomes, !started, !cached)

let test_cold_warm_identical () =
  let dir = fresh_dir () in
  (* profiled jobs: the embedded Profile.t must survive the cache too *)
  let jobs =
    [ P.job ~cfg ~warmup:false ~profile:true "2mm";
      P.job ~cfg ~warmup:false ~profile:true "gaus" ]
  in
  let cold, started_cold, cached_cold =
    run_counting ~cache_dir:(Some dir) jobs
  in
  Alcotest.(check int) "cold run simulates every job" 2 started_cold;
  Alcotest.(check int) "cold run hits nothing" 0 cached_cold;
  let warm, started_warm, cached_warm =
    run_counting ~cache_dir:(Some dir) jobs
  in
  Alcotest.(check int) "warm run simulates nothing" 0 started_warm;
  Alcotest.(check int) "warm run serves every job from cache" 2 cached_warm;
  Alcotest.(check string) "cold and warm sweep documents byte-identical"
    (Json.to_string (P.sweep_to_json ~jobs ~outcomes:cold))
    (Json.to_string (P.sweep_to_json ~jobs ~outcomes:warm));
  (* the profile actually crossed the cache *)
  (match warm.(0) with
  | P.Completed v ->
      Alcotest.(check bool) "cached payload embeds the profile" true
        (Json.member "profile" v <> Json.Null)
  | P.Failed m -> Alcotest.failf "warm job failed: %s" m);
  (* no cache dir = full bypass: everything re-simulates *)
  let _, started_nocache, cached_nocache = run_counting ~cache_dir:None jobs in
  Alcotest.(check int) "bypass re-simulates" 2 started_nocache;
  Alcotest.(check int) "bypass reads nothing" 0 cached_nocache;
  (* a config change misses the warm cache *)
  let jobs' =
    [ P.job ~cfg:{ cfg with l1_mshr_entries = 32 } ~warmup:false "2mm" ]
  in
  let _, started', cached' = run_counting ~cache_dir:(Some dir) jobs' in
  Alcotest.(check int) "changed config re-simulates" 1 started';
  Alcotest.(check int) "changed config hits nothing" 0 cached';
  (* truncate one entry mid-file: the sweep reports the damage, re-runs
     exactly that job, and still produces the identical document *)
  let entry =
    Filename.concat dir (P.job_digest (List.hd jobs) ^ ".json")
  in
  let whole =
    let ic = open_in entry in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let oc = open_out entry in
  output_string oc (String.sub whole 0 (String.length whole / 3));
  close_out oc;
  let damaged = ref 0 in
  let repaired, started_r, cached_r =
    run_counting ~damaged ~cache_dir:(Some dir) jobs
  in
  Alcotest.(check int) "damaged entry is reported once" 1 !damaged;
  Alcotest.(check int) "only the damaged job re-simulates" 1 started_r;
  Alcotest.(check int) "the intact entry still hits" 1 cached_r;
  Alcotest.(check string) "document unchanged after repair"
    (Json.to_string (P.sweep_to_json ~jobs ~outcomes:cold))
    (Json.to_string (P.sweep_to_json ~jobs ~outcomes:repaired));
  rm_rf dir

let () =
  Alcotest.run "sweepcache"
    [
      ( "digest",
        [
          Alcotest.test_case "invariants" `Quick test_digest_invariants;
          Alcotest.test_case "fingerprint deterministic" `Slow
            test_fingerprint_deterministic;
          Alcotest.test_case "unknown app not memoized" `Quick
            test_unknown_app_not_memoized;
          Alcotest.test_case "seed" `Quick test_seed_changes_fingerprint;
          Alcotest.test_case "kernel-text" `Quick test_kernel_text_sensitivity;
          Alcotest.test_case "unparseable kernel" `Quick
            test_unparseable_kernel_fingerprints;
        ] );
      ( "store",
        [
          Alcotest.test_case "roundtrip" `Quick test_store_lookup_roundtrip;
          Alcotest.test_case "probe-verdicts" `Quick test_probe_verdicts;
        ] );
      ( "sweep",
        [ Alcotest.test_case "cold-warm" `Slow test_cold_warm_identical ] );
    ]
