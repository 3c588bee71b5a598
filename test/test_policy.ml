(* Unit tests for the first-class memory-system policies: the
   Mempolicy interpreter (IAR reorder buffer bounds and ordering,
   holistic throttle hysteresis, streaming-bypass detection), the
   Config builder/digest contract the sweep cache rests on, and the
   central acceptance criterion of the policy seam — an explicit
   [Baseline] policy is byte-identical to the perf-lock goldens. *)

module C = Gsim.Config
module M = Gsim.Mempolicy

let cfg_of p = C.default |> C.with_policy p

(* ---- Baseline: every hook answers the neutral constant ---- *)

let test_baseline_noops () =
  let t = M.create C.default in
  let d = M.decide t ~kernel:"k" ~pc:3 Dataflow.Classify.Nondeterministic in
  Alcotest.(check bool) "no flags" true (d = M.no_decision);
  Alcotest.(check bool) "no IAR room" false (M.iar_room t ~n:1);
  Alcotest.(check int) "no IAR entries" 0 (M.iar_pending t);
  Alcotest.(check bool) "no buffered line" true
    (M.iar_select t ~now:1_000 ~fifo_nonempty:false = None);
  M.on_outcome t ~kernel:"k" ~pc:3 Dataflow.Classify.Nondeterministic
    (Gsim.Cache.Rsrv_fail Gsim.Cache.Fail_mshr);
  Alcotest.(check int) "no throttle" max_int (M.allowed_ctas t);
  Alcotest.(check int) "no throttle steps" 0 (M.throttle_steps t)

(* [with_policy Baseline] must be *structurally* the default config —
   byte identity of the runs then follows from determinism *)
let test_baseline_structural_identity () =
  Alcotest.(check bool) "with_policy Baseline = default" true
    (cfg_of C.Baseline = C.default)

(* ---- IAR reorder buffer ---- *)

let entry ?(line = 0) ?(born = 0) ?(cta = 0) () =
  {
    M.ie_line = line;
    ie_born = born;
    ie_wl = None;
    ie_kind = Gsim.Request.Load;
    ie_cls = Dataflow.Classify.Nondeterministic;
    ie_cta = cta;
  }

let iar_t ?(entries = 3) ?(max_wait = 16) () =
  M.create (cfg_of (C.Iar { C.iar_entries = entries; iar_max_wait = max_wait }))

let test_iar_bounds () =
  let t = iar_t ~entries:3 () in
  Alcotest.(check bool) "room for capacity" true (M.iar_room t ~n:3);
  Alcotest.(check bool) "no room beyond capacity" false (M.iar_room t ~n:4);
  M.iar_add t (entry ~line:128 ~born:1 ());
  M.iar_add t (entry ~line:256 ~born:2 ());
  M.iar_add t (entry ~line:128 ~born:3 ());
  Alcotest.(check int) "three buffered" 3 (M.iar_pending t);
  Alcotest.(check bool) "full" false (M.iar_room t ~n:1);
  M.iar_remove_line t ~line:128;
  Alcotest.(check int) "batch removed as a unit" 1 (M.iar_pending t);
  Alcotest.(check bool) "room again" true (M.iar_room t ~n:2)

(* the buffer is a fixed array in a library built with -unsafe: an add
   the caller did not check with [iar_room] is a typed internal error,
   not a store past the end *)
let test_iar_overflow_is_internal () =
  let t = iar_t ~entries:2 () in
  M.iar_add t (entry ~line:128 ());
  M.iar_add t (entry ~line:256 ());
  match M.iar_add t (entry ~line:384 ()) with
  | () -> Alcotest.fail "add to a full buffer succeeded"
  | exception Gsim.Sim_error.Error e ->
      Alcotest.(check string) "error kind" "internal"
        (Gsim.Sim_error.kind_name e.Gsim.Sim_error.e_kind);
      Alcotest.(check int) "buffer unchanged" 2 (M.iar_pending t)

let test_iar_select_ordering () =
  let t = iar_t ~entries:8 ~max_wait:16 () in
  M.iar_add t (entry ~line:512 ~born:10 ());
  (* fresh singles defer to the in-order queue *)
  Alcotest.(check bool) "fresh singles defer to the queue" true
    (M.iar_select t ~now:11 ~fifo_nonempty:true = None);
  M.iar_add t (entry ~line:128 ~born:11 ());
  M.iar_add t (entry ~line:128 ~born:12 ());
  (* a formed batch claims the port even when the queue has work *)
  Alcotest.(check bool) "formed batch preempts the queue" true
    (M.iar_select t ~now:13 ~fifo_nonempty:true = Some 128);
  (* batches come back oldest first, without removal *)
  let batch = M.iar_batch t ~line:128 in
  Alcotest.(check (list int))
    "batch oldest first" [ 11; 12 ]
    (List.map (fun e -> e.M.ie_born) batch);
  Alcotest.(check int) "batch is non-destructive" 3 (M.iar_pending t);
  (* with the batch harvested, a single aged past max_wait preempts *)
  M.iar_remove_line t ~line:128;
  Alcotest.(check bool) "fresh single still defers" true
    (M.iar_select t ~now:13 ~fifo_nonempty:true = None);
  Alcotest.(check bool) "aged single preempts the queue" true
    (M.iar_select t ~now:(10 + 16) ~fifo_nonempty:true = Some 512);
  (* queue idle: the buffer issues what it has *)
  Alcotest.(check bool) "idle queue drains the buffer" true
    (M.iar_select t ~now:11 ~fifo_nonempty:false = Some 512)

let test_iar_tie_oldest_wins () =
  let t = iar_t ~entries:8 ~max_wait:100 () in
  M.iar_add t (entry ~line:512 ~born:1 ());
  M.iar_add t (entry ~line:128 ~born:2 ());
  Alcotest.(check bool) "equal counts: first-buffered line wins" true
    (M.iar_select t ~now:3 ~fifo_nonempty:false = Some 512)

(* ---- IAR buffer against the list-based reference ---- *)

(* The reorder buffer's selection rules written over a plain list,
   oldest entry first: the executable spec the simulator's buffer must
   answer identically. *)
module Ref_iar = struct
  type t = {
    cap : int;
    max_wait : int;
    mutable entries : M.iar_entry list;
    mutable retry_at : int;
  }

  let create ~cap ~max_wait = { cap; max_wait; entries = []; retry_at = 0 }
  let room r ~n = List.length r.entries + n <= r.cap
  let add r e = r.entries <- r.entries @ [ e ]
  let pending r = List.length r.entries

  (* most entries on one line; the first-seen line wins ties *)
  let most_combinable r =
    let counts = ref [] in
    List.iter
      (fun e ->
        match List.assoc_opt e.M.ie_line !counts with
        | Some c -> incr c
        | None -> counts := !counts @ [ (e.M.ie_line, ref 1) ])
      r.entries;
    List.fold_left
      (fun (bl, b) (line, c) -> if !c > b then (line, !c) else (bl, b))
      (0, 0) !counts

  let select r ~now ~fifo_nonempty =
    if r.entries = [] || now < r.retry_at then None
    else
      let line, combined = most_combinable r in
      if combined >= 2 then Some line
      else
        match
          List.find_opt (fun e -> now - e.M.ie_born >= r.max_wait) r.entries
        with
        | Some e -> Some e.M.ie_line
        | None -> if fifo_nonempty then None else Some line

  let defer r ~now = r.retry_at <- now + 8
  let batch r ~line = List.filter (fun e -> e.M.ie_line = line) r.entries

  let remove_line r ~line =
    r.entries <- List.filter (fun e -> e.M.ie_line <> line) r.entries
end

type iar_op =
  | Op_add of int * int  (** line, cycles since the previous add *)
  | Op_select of int * bool  (** [now] offset, [fifo_nonempty] *)
  | Op_defer of int  (** [now] offset *)
  | Op_batch of int
  | Op_remove of int

let show_op = function
  | Op_add (l, d) -> Printf.sprintf "add(line %d, +%d)" l d
  | Op_select (o, f) -> Printf.sprintf "select(now %+d, fifo %b)" o f
  | Op_defer o -> Printf.sprintf "defer(now %+d)" o
  | Op_batch l -> Printf.sprintf "batch(line %d)" l
  | Op_remove l -> Printf.sprintf "remove(line %d)" l

let gen_iar_case =
  let open QCheck.Gen in
  let line = map (fun i -> 128 * i) (int_bound 4) in
  let offset = int_range (-4) 24 in
  let op =
    frequency
      [
        (5, map2 (fun l d -> Op_add (l, d)) line (int_bound 3));
        (4, map2 (fun o f -> Op_select (o, f)) offset bool);
        (1, map (fun o -> Op_defer o) offset);
        (1, map (fun l -> Op_batch l) line);
        (2, map (fun l -> Op_remove l) line);
      ]
  in
  triple (int_range 4 8) (int_range 1 16) (list_size (int_range 1 80) op)

(* Drive the buffer and the reference with one random operation
   sequence: [born] never decreases along the buffer (the simulator
   stamps entries with its monotone cycle), while [now] for select and
   defer roams around the latest [born]. *)
let prop_iar_matches_reference =
  QCheck.Test.make ~count:500 ~name:"iar buffer matches the list reference"
    (QCheck.make
       ~print:(fun (cap, wait, ops) ->
         Printf.sprintf "cap %d, max_wait %d: %s" cap wait
           (String.concat "; " (List.map show_op ops)))
       gen_iar_case)
    (fun (cap, max_wait, ops) ->
      let t = iar_t ~entries:cap ~max_wait () in
      let r = Ref_iar.create ~cap ~max_wait in
      let clock = ref 0 and serial = ref 0 in
      let key (e : M.iar_entry) = (e.M.ie_line, e.M.ie_born, e.M.ie_cta) in
      let step op =
        (match op with
        | Op_add (line, d) ->
            clock := !clock + d;
            let room = M.iar_room t ~n:1 in
            if room <> Ref_iar.room r ~n:1 then
              QCheck.Test.fail_reportf "room disagrees before %s" (show_op op);
            if room then begin
              incr serial;
              let e = entry ~line ~born:!clock ~cta:!serial () in
              M.iar_add t e;
              Ref_iar.add r e
            end
        | Op_select (o, fifo_nonempty) ->
            let now = !clock + o in
            if
              M.iar_select t ~now ~fifo_nonempty
              <> Ref_iar.select r ~now ~fifo_nonempty
            then QCheck.Test.fail_reportf "%s disagrees" (show_op op)
        | Op_defer o ->
            M.iar_defer t ~now:(!clock + o);
            Ref_iar.defer r ~now:(!clock + o)
        | Op_batch line ->
            if
              List.map key (M.iar_batch t ~line)
              <> List.map key (Ref_iar.batch r ~line)
            then QCheck.Test.fail_reportf "%s disagrees" (show_op op)
        | Op_remove line ->
            M.iar_remove_line t ~line;
            Ref_iar.remove_line r ~line);
        if M.iar_pending t <> Ref_iar.pending r then
          QCheck.Test.fail_reportf "pending disagrees after %s" (show_op op)
      in
      List.iter step ops;
      true)

(* ---- holistic throttle: hysteresis over count-based windows ---- *)

let holi ?(window = 10) ?(high = 50) ?(low = 10) () =
  let hp =
    {
      C.default_holistic with
      C.hp_throttle_window = window;
      hp_throttle_high_pct = high;
      hp_throttle_low_pct = low;
    }
  in
  let t = M.create (cfg_of (C.Holistic hp)) in
  (* 8 warp slots / 2 warps per CTA: 4 resident CTAs, all allowed *)
  M.reconfigure t ~warp_slots:8 ~warps_per_cta:2;
  t

let feed t ~fails ~oks =
  for _ = 1 to fails do
    M.on_outcome t ~kernel:"k" ~pc:0 Dataflow.Classify.Nondeterministic
      (Gsim.Cache.Rsrv_fail Gsim.Cache.Fail_mshr)
  done;
  for _ = 1 to oks do
    M.on_outcome t ~kernel:"k" ~pc:0 Dataflow.Classify.Nondeterministic
      Gsim.Cache.Hit
  done

let test_throttle_hysteresis () =
  let t = holi () in
  Alcotest.(check int) "open after reconfigure" 4 (M.allowed_ctas t);
  (* 60% fails >= high threshold: tighten one CTA per window *)
  feed t ~fails:6 ~oks:4;
  Alcotest.(check int) "first spike throttles" 3 (M.allowed_ctas t);
  feed t ~fails:6 ~oks:4;
  Alcotest.(check int) "second spike throttles further" 2 (M.allowed_ctas t);
  Alcotest.(check int) "two tightenings counted" 2 (M.throttle_steps t);
  (* 30% sits between the thresholds: hysteresis holds the level *)
  feed t ~fails:3 ~oks:7;
  Alcotest.(check int) "mid-band rate holds steady" 2 (M.allowed_ctas t);
  (* clean windows release one CTA at a time *)
  feed t ~fails:0 ~oks:10;
  feed t ~fails:0 ~oks:10;
  Alcotest.(check int) "clean windows release" 4 (M.allowed_ctas t);
  feed t ~fails:0 ~oks:10;
  Alcotest.(check int) "never beyond occupancy" 4 (M.allowed_ctas t);
  Alcotest.(check int) "releases are not steps" 2 (M.throttle_steps t)

let test_throttle_floor () =
  let t = holi () in
  for _ = 1 to 10 do
    feed t ~fails:10 ~oks:0
  done;
  Alcotest.(check int) "one CTA always runs" 1 (M.allowed_ctas t);
  M.reconfigure t ~warp_slots:8 ~warps_per_cta:2;
  Alcotest.(check int) "launch boundary reopens" 4 (M.allowed_ctas t)

(* ---- holistic streaming-bypass detection + N-line protection ---- *)

let test_streaming_bypass () =
  let hp = { C.default_holistic with C.hp_bypass_sample = 4 } in
  let t = M.create (cfg_of (C.Holistic hp)) in
  let d = Dataflow.Classify.Deterministic in
  (* a pc that only misses crosses the sample threshold -> bypass *)
  for _ = 1 to 4 do
    M.on_outcome t ~kernel:"k" ~pc:8 d Gsim.Cache.Miss
  done;
  Alcotest.(check bool) "streaming pc bypasses" true
    (M.decide t ~kernel:"k" ~pc:8 d).M.d_flags.C.lp_bypass;
  (* a pc that hits stays cached; other kernels are independent *)
  for _ = 1 to 4 do
    M.on_outcome t ~kernel:"k" ~pc:16 d Gsim.Cache.Hit
  done;
  Alcotest.(check bool) "hitting pc keeps the L1" false
    (M.decide t ~kernel:"k" ~pc:16 d).M.d_flags.C.lp_bypass;
  Alcotest.(check bool) "fresh pc keeps the L1" false
    (M.decide t ~kernel:"k2" ~pc:8 d).M.d_flags.C.lp_bypass;
  (* the verdict is sticky: later hits do not un-bypass *)
  for _ = 1 to 8 do
    M.on_outcome t ~kernel:"k" ~pc:8 d Gsim.Cache.Hit
  done;
  Alcotest.(check bool) "verdict is sticky" true
    (M.decide t ~kernel:"k" ~pc:8 d).M.d_flags.C.lp_bypass;
  (* non-deterministic loads get line protection, not bypass *)
  let dn = M.decide t ~kernel:"k" ~pc:8 Dataflow.Classify.Nondeterministic in
  Alcotest.(check bool) "N loads protected" true dn.M.d_protect;
  Alcotest.(check bool) "N loads not bypassed" false dn.M.d_flags.C.lp_bypass

(* ---- per-pc combinator layering ---- *)

let test_per_pc_overrides () =
  let split4 = { C.no_policy with C.lp_split = 4 } in
  let t =
    M.create
      (cfg_of
         (C.Per_pc
            ( [ (("k", 8), split4) ],
              C.Iar C.default_iar )))
  in
  let d_hit = M.decide t ~kernel:"k" ~pc:8 Dataflow.Classify.Nondeterministic in
  Alcotest.(check int) "override wins at its pc" 4 d_hit.M.d_flags.C.lp_split;
  Alcotest.(check bool) "override does not buffer" false d_hit.M.d_buffer;
  let d_miss =
    M.decide t ~kernel:"k" ~pc:12 Dataflow.Classify.Nondeterministic
  in
  Alcotest.(check bool) "inner policy applies elsewhere" true d_miss.M.d_buffer;
  (* the IAR buffer of the inner policy is reachable through the wrapper *)
  Alcotest.(check bool) "inner IAR reachable" true (M.iar_room t ~n:1)

(* ---- Config: naming, parsing, digest sensitivity ---- *)

let test_policy_names () =
  List.iter
    (fun p ->
      match C.policy_of_string (C.policy_name p) with
      | Ok q ->
          Alcotest.(check bool) (C.policy_name p ^ " round-trips") true (p = q)
      | Error e -> Alcotest.fail e)
    C.named_policies;
  Alcotest.(check (list string)) "names are distinct"
    [ "baseline"; "holistic"; "iar" ]
    (List.sort_uniq compare (List.map C.policy_name C.named_policies));
  (match C.policy_of_string "no-such-policy" with
  | Ok _ -> Alcotest.fail "junk parsed as a policy"
  | Error e ->
      Alcotest.(check string) "error names the choices"
        "unknown policy \"no-such-policy\" (expected baseline, iar or \
         holistic)"
        e)

(* every knob must reach the config digest: a knob the digest misses
   is a sweep-cache collision between semantically different runs *)
let test_digest_sensitivity () =
  let variants =
    [
      ("n_sms", { C.default with C.n_sms = 8 });
      ("warp_size", { C.default with C.warp_size = 16 });
      ("l1", { C.default with C.l1_sets = 16 });
      ("mshrs", { C.default with C.l1_mshr_entries = 32 });
      ("l2", { C.default with C.l2_ways = 4 });
      ("icnt_width", { C.default with C.icnt_buffer_size = 2 });
      ("icnt_latency", { C.default with C.icnt_latency = 9 });
      ("dram", { C.default with C.dram_latency = 77 });
      ("caps", C.with_caps ~max_warp_insts:123 () C.default);
      ("cta_sched", C.with_cta_sched (C.Clustered 2) C.default);
      ("warp_sched", C.with_warp_sched C.Gto C.default);
      ("l2_cluster", C.with_l2_cluster 2 C.default);
      ("ndet_flags", cfg_of (C.Ndet_flags { C.no_policy with C.lp_split = 8 }));
      ("iar", cfg_of (C.Iar C.default_iar));
      ("iar_params", cfg_of (C.Iar { C.iar_entries = 8; iar_max_wait = 4 }));
      ("holistic", cfg_of (C.Holistic C.default_holistic));
      ( "holistic_params",
        cfg_of (C.Holistic { C.default_holistic with C.hp_bypass_hit_pct = 5 })
      );
      ( "per_pc",
        cfg_of
          (C.Per_pc
             ([ (("k", 4), { C.no_policy with C.lp_prefetch = true }) ],
              C.Baseline)) );
      ( "ndet_split",
        cfg_of (C.Ndet_flags { C.no_policy with C.lp_split = 4 }) );
      ( "ndet_prefetch",
        cfg_of (C.Ndet_flags { C.no_policy with C.lp_prefetch = true }) );
      ( "ndet_bypass",
        cfg_of (C.Ndet_flags { C.no_policy with C.lp_bypass = true }) );
    ]
  in
  let all = ("default", C.default) :: variants in
  List.iter
    (fun (na, ca) ->
      List.iter
        (fun (nb, cb) ->
          if na < nb then
            Alcotest.(check bool)
              (Printf.sprintf "digest(%s) <> digest(%s)" na nb)
              false
              (Gsim.Stats_io.config_digest ca
              = Gsim.Stats_io.config_digest cb))
        all)
    all

(* parse-back of the config document reproduces the config *)
let test_digest_json_agreement () =
  List.iter
    (fun p ->
      let cfg = cfg_of p in
      let back =
        Gsim.Stats_io.config_of_json (Gsim.Stats_io.config_to_json cfg)
      in
      Alcotest.(check bool)
        (C.policy_name p ^ " config survives JSON")
        true (cfg = back))
    [
      C.Baseline;
      C.Ndet_flags { C.lp_split = 4; lp_prefetch = true; lp_bypass = false };
      C.Iar C.default_iar;
      C.Holistic C.default_holistic;
      C.Per_pc
        ( [ (("k", 8), { C.no_policy with C.lp_bypass = true }) ],
          C.Iar { C.iar_entries = 16; iar_max_wait = 8 } );
    ]

(* a config document without a "policy" member is a typed decode
   error, never a guessed Baseline *)
let test_missing_policy_rejected () =
  let module Json = Gsim.Stats_io.Json in
  let config =
    match Gsim.Stats_io.config_to_json C.default with
    | Json.Obj fields -> Json.Obj (List.remove_assoc "policy" fields)
    | _ -> Alcotest.fail "config JSON is not an object"
  in
  match
    Critload.Protocol.job_of_json
      (Json.Obj [ ("app", Json.Str "2mm"); ("config", config) ])
  with
  | Error e ->
      let rec mentions i =
        i + 6 <= String.length e
        && (String.sub e i 6 = "policy" || mentions (i + 1))
      in
      Alcotest.(check bool) ("error names the policy: " ^ e) true (mentions 0)
  | Ok _ -> Alcotest.fail "a config without a policy decoded"

(* ---- end-to-end: explicit Baseline is byte-identical to the locked
   goldens on a graph app; the real policies complete and diverge ---- *)

let test_baseline_matches_golden () =
  let golden = Perf_lock.read_golden (Perf_lock.golden_path ()) in
  let want = List.assoc "bfs" golden in
  let got = Perf_lock.digest_app (Workloads.Suite.find "bfs") in
  Alcotest.(check string) "stats digest" want.Perf_lock.dg_stats
    got.Perf_lock.dg_stats;
  Alcotest.(check string) "profile digest" want.Perf_lock.dg_profile
    got.Perf_lock.dg_profile;
  Alcotest.(check string) "trace digest" want.Perf_lock.dg_trace
    got.Perf_lock.dg_trace

let run_bfs policy =
  let cfg =
    C.default
    |> C.with_caps ~max_warp_insts:6_000 ()
    |> C.with_policy policy
  in
  let app = Workloads.Suite.find "bfs" in
  match
    Critload.Runner.run ~cfg ~scale:Workloads.App.Small ~warmup:false app
  with
  | Ok r -> Critload.Runner.Report.stats_exn r
  | Error e -> raise (Gsim.Sim_error.Error e)

let test_policies_complete_and_diverge () =
  let base = run_bfs C.Baseline in
  let iar = run_bfs (C.Iar C.default_iar) in
  (* thresholds low enough to trip inside a 6k-instruction prefix (the
     default parameters are tuned for full runs and may legitimately
     never fire this early) *)
  let holistic =
    run_bfs
      (C.Holistic
         {
           C.default_holistic with
           C.hp_bypass_sample = 8;
           hp_bypass_hit_pct = 100;
           hp_throttle_window = 64;
           hp_throttle_high_pct = 1;
         })
  in
  let doc s = Gsim.Stats_io.Json.to_string (Gsim.Stats_io.stats_to_json s) in
  Alcotest.(check bool) "all runs make progress" true
    (base.Gsim.Stats.cycles > 0 && iar.Gsim.Stats.cycles > 0
    && holistic.Gsim.Stats.cycles > 0);
  Alcotest.(check bool) "iar changes the execution" true
    (doc iar <> doc base);
  Alcotest.(check bool) "holistic changes the execution" true
    (doc holistic <> doc base)

let () =
  Alcotest.run "policy"
    [
      ( "mempolicy",
        [
          Alcotest.test_case "baseline hooks are no-ops" `Quick
            test_baseline_noops;
          Alcotest.test_case "baseline is structurally default" `Quick
            test_baseline_structural_identity;
          Alcotest.test_case "iar buffer bounds" `Quick test_iar_bounds;
          Alcotest.test_case "iar overflow is an internal error" `Quick
            test_iar_overflow_is_internal;
          Alcotest.test_case "iar selection ordering" `Quick
            test_iar_select_ordering;
          Alcotest.test_case "iar tie breaks oldest" `Quick
            test_iar_tie_oldest_wins;
          QCheck_alcotest.to_alcotest prop_iar_matches_reference;
          Alcotest.test_case "throttle hysteresis" `Quick
            test_throttle_hysteresis;
          Alcotest.test_case "throttle floor and relaunch" `Quick
            test_throttle_floor;
          Alcotest.test_case "streaming bypass detection" `Quick
            test_streaming_bypass;
          Alcotest.test_case "per-pc overrides layer" `Quick
            test_per_pc_overrides;
        ] );
      ( "config",
        [
          Alcotest.test_case "policy names parse back" `Quick
            test_policy_names;
          Alcotest.test_case "digest sees every builder" `Quick
            test_digest_sensitivity;
          Alcotest.test_case "config JSON preserves the key" `Quick
            test_digest_json_agreement;
          Alcotest.test_case "config without a policy is an error" `Quick
            test_missing_policy_rejected;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "explicit baseline matches goldens" `Quick
            test_baseline_matches_golden;
          Alcotest.test_case "policies complete and diverge" `Quick
            test_policies_complete_and_diverge;
        ] );
    ]
