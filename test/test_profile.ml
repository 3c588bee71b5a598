(* Unit tests for the Profile reducer: log-2 histogram bucket edges,
   merge associativity/commutativity, JSON round-trip, golden
   per-category turnaround digests for two apps, reconciliation of
   trace-derived counts against the Stats.t counters of the same run
   for all 15 apps (the trace layer must not perturb the run), and MSHR
   conservation in the trace of drained runs under every policy
   family. *)

module P = Gsim.Profile
module Json = Gsim.Stats_io.Json

let d = Dataflow.Classify.Deterministic
let n = Dataflow.Classify.Nondeterministic

(* ---------------- histogram buckets ---------------- *)

let test_bucket_edges () =
  Alcotest.(check int) "negative latency -> bucket 0" 0
    (P.bucket_of_latency (-7));
  Alcotest.(check int) "latency 0 -> bucket 0" 0 (P.bucket_of_latency 0);
  Alcotest.(check int) "latency 1 -> bucket 1" 1 (P.bucket_of_latency 1);
  Alcotest.(check int) "latency 2 -> bucket 2" 2 (P.bucket_of_latency 2);
  Alcotest.(check int) "latency 3 -> bucket 2" 2 (P.bucket_of_latency 3);
  Alcotest.(check int) "latency 4 -> bucket 3" 3 (P.bucket_of_latency 4);
  Alcotest.(check int) "latency 7 -> bucket 3" 3 (P.bucket_of_latency 7);
  Alcotest.(check int) "power of two starts its bucket" 11
    (P.bucket_of_latency 1024);
  Alcotest.(check int) "huge latency clamps to the last bucket"
    (P.n_buckets - 1)
    (P.bucket_of_latency max_int);
  (* each bucket's bounds map back to the bucket itself *)
  for i = 1 to P.n_buckets - 2 do
    Alcotest.(check int) "lower bound lands in its bucket" i
      (P.bucket_of_latency (P.bucket_lo i));
    Alcotest.(check int) "upper bound is exclusive" i
      (P.bucket_of_latency ((P.bucket_lo (i + 1)) - 1))
  done;
  Alcotest.(check int) "bucket_lo 0" 0 (P.bucket_lo 0);
  Alcotest.(check int) "bucket_lo 1" 1 (P.bucket_lo 1);
  Alcotest.(check int) "bucket_lo 3" 4 (P.bucket_lo 3)

(* ---------------- merge laws ---------------- *)

(* Three disjoint synthetic event streams with overlapping pcs so the
   per-pc table actually has to merge rows. *)
let stream_a =
  [
    Gsim.Trace.Ev_load_issue
      { cycle = 1; sm = 0; cta = 0; warp_slot = 0; kernel = "k"; pc = 8;
        cls = d; active = 32; nreq = 1 };
    Gsim.Trace.Ev_load_return
      { cycle = 130; sm = 0; cta = 0; kernel = "k"; pc = 8; cls = d; nreq = 1;
        turnaround = 129; level = Gsim.Request.Lvl_dram };
    Gsim.Trace.Ev_access
      { cycle = 2; where = Gsim.Trace.S_l1 0; line = 0;
        src = Gsim.Trace.A_load d; outcome = Gsim.Cache.Miss };
    Gsim.Trace.Ev_mshr_merge
      { cycle = 3; where = Gsim.Trace.S_l1 0; line = 0; cta = 0;
        owner_cta = 0 };
    Gsim.Trace.Ev_occupancy { cycle = 0; sm = 0; mshr = 1; ldst_q = 0 };
  ]

let stream_b =
  [
    Gsim.Trace.Ev_load_issue
      { cycle = 4; sm = 1; cta = 2; warp_slot = 1; kernel = "k"; pc = 8;
        cls = d; active = 16; nreq = 2 };
    Gsim.Trace.Ev_load_return
      { cycle = 40; sm = 1; cta = 2; kernel = "k"; pc = 8; cls = d; nreq = 2;
        turnaround = 36; level = Gsim.Request.Lvl_l2 };
    Gsim.Trace.Ev_access
      { cycle = 5; where = Gsim.Trace.S_l2 1; line = 128;
        src = Gsim.Trace.A_load n; outcome = Gsim.Cache.Hit };
    Gsim.Trace.Ev_mshr_merge
      { cycle = 6; where = Gsim.Trace.S_l2 0; line = 128; cta = 1;
        owner_cta = 3 };
    Gsim.Trace.Ev_dram_enq { cycle = 7; part = 0; line = 256; write = false };
    Gsim.Trace.Ev_occupancy { cycle = 0; sm = 1; mshr = 2; ldst_q = 1 };
  ]

let stream_c =
  [
    Gsim.Trace.Ev_load_issue
      { cycle = 9; sm = 0; cta = 5; warp_slot = 2; kernel = "k2"; pc = 16;
        cls = n; active = 32; nreq = 4 };
    Gsim.Trace.Ev_load_return
      { cycle = 900; sm = 0; cta = 5; kernel = "k2"; pc = 16; cls = n;
        nreq = 4; turnaround = 891; level = Gsim.Request.Lvl_dram };
    Gsim.Trace.Ev_access
      { cycle = 10; where = Gsim.Trace.S_l1 0; line = 384;
        src = Gsim.Trace.A_store;
        outcome = Gsim.Cache.Rsrv_fail Gsim.Cache.Fail_icnt };
    Gsim.Trace.Ev_icnt_enq
      { cycle = 11; dir = Gsim.Trace.Dir_req; sm = 0; part = 1; line = 384 };
    Gsim.Trace.Ev_occupancy { cycle = 256; sm = 0; mshr = 0; ldst_q = 2 };
  ]

let profile_of events =
  let p = P.create () in
  List.iter (P.add p) events;
  p

let bytes p = Json.to_string (P.to_json p)

let test_merge_laws () =
  (* associativity: (a + b) + c = a + (b + c) *)
  let left = profile_of stream_a in
  P.merge ~dst:left ~src:(profile_of stream_b);
  P.merge ~dst:left ~src:(profile_of stream_c);
  let bc = profile_of stream_b in
  P.merge ~dst:bc ~src:(profile_of stream_c);
  let right = profile_of stream_a in
  P.merge ~dst:right ~src:bc;
  Alcotest.(check string) "merge is associative" (bytes left) (bytes right);
  (* commutativity: a + b = b + a *)
  let ab = profile_of stream_a in
  P.merge ~dst:ab ~src:(profile_of stream_b);
  let ba = profile_of stream_b in
  P.merge ~dst:ba ~src:(profile_of stream_a);
  Alcotest.(check string) "merge is commutative" (bytes ab) (bytes ba);
  (* merging everything equals folding one concatenated stream *)
  let whole = profile_of (stream_a @ stream_b @ stream_c) in
  Alcotest.(check string) "merge of parts equals the whole" (bytes whole)
    (bytes left)

let test_json_roundtrip () =
  let p = profile_of (stream_a @ stream_b @ stream_c) in
  let j = P.to_json p in
  Alcotest.(check string) "profile JSON round-trips byte-identically"
    (Json.to_string j)
    (Json.to_string (P.to_json (P.of_json j)))

(* ---------------- golden per-category digests ---------------- *)

let ok = function Ok r -> r | Error e -> raise (Gsim.Sim_error.Error e)

let run_profiled ?(cfg = Gsim.Config.default) app_name =
  let app = Workloads.Suite.find app_name in
  let cfg = cfg |> Gsim.Config.with_caps ~max_warp_insts:8000 () in
  let p = P.create () in
  let r =
    ok
      (Critload.Runner.run ~cfg ~scale:Workloads.App.Small ~warmup:false
         ~trace:(P.sink p) app)
  in
  (Critload.Runner.Report.stats_exn r, p)

let digest p =
  let block name (cp : P.class_profile) =
    Printf.sprintf "%s %d/%d l1 %d+%d+%d l2 %d/%d avg %.1f" name
      cp.P.cp_issues cp.P.cp_returns cp.P.cp_l1_hit cp.P.cp_l1_merge
      cp.P.cp_l1_miss cp.P.cp_l2_access cp.P.cp_l2_miss
      (if cp.P.cp_returns = 0 then 0.0
       else
         float_of_int cp.P.cp_sum_turnaround /. float_of_int cp.P.cp_returns)
  in
  Printf.sprintf "%s | %s | merges %d/%d %d/%d"
    (block "D" p.P.per_class.(0))
    (block "N" p.P.per_class.(1))
    p.P.l1_merge_intra p.P.l1_merge_inter p.P.l2_merge_intra
    p.P.l2_merge_inter

(* Pinned against the deterministic simulator (Small scale, 8000-warp-
   instruction cap, no warmup).  A digest change means the memory
   system's observable behaviour changed — re-pin only deliberately. *)
let test_golden_2mm () =
  let _, p = run_profiled "2mm" in
  Alcotest.(check string) "2mm digest"
    "D 1006/882 l1 432+390+184 l2 184/72 avg 130.5 | N 0/0 l1 0+0+0 l2 0/0 \
     avg 0.0 | merges 384/6 0/112"
    (digest p)

let test_golden_bfs () =
  let _, p = run_profiled "bfs" in
  Alcotest.(check string) "bfs digest"
    "D 404/404 l1 110+0+294 l2 294/120 avg 137.9 | N 506/493 l1 531+17+232 \
     l2 232/125 avg 87.5 | merges 17/0 0/6"
    (digest p)

(* ---------------- trace vs stats reconciliation, all 15 apps ------------ *)

let fail_kinds =
  [ Gsim.Cache.Fail_tags; Gsim.Cache.Fail_mshr; Gsim.Cache.Fail_icnt ]

let reconcile_app name () =
  let app = Workloads.Suite.find name in
  let cfg =
    Gsim.Config.default |> Gsim.Config.with_caps ~max_warp_insts:8000 ()
  in
  let r0 =
    ok
      (Critload.Runner.run ~cfg ~scale:Workloads.App.Small ~warmup:false app)
  in
  let p = P.create () in
  let r1 =
    ok
      (Critload.Runner.run ~cfg ~scale:Workloads.App.Small ~warmup:false
         ~trace:(P.sink p) app)
  in
  (* the trace layer must not perturb the simulation at all *)
  let stat_bytes s = Json.to_string (Gsim.Stats_io.stats_to_json s) in
  Alcotest.(check string) "stats byte-identical with tracing on"
    (stat_bytes (Critload.Runner.Report.stats_exn r0))
    (stat_bytes (Critload.Runner.Report.stats_exn r1));
  let s = Critload.Runner.Report.stats_exn r1 in
  (* per-class counters *)
  List.iteri
    (fun i cls ->
      let cp = p.P.per_class.(i) in
      let cs = s.Gsim.Stats.per_class.(i) in
      Alcotest.(check int) "completed L1 load probes = cs_l1_access"
        cs.Gsim.Stats.cs_l1_access (P.l1_loads p cls);
      Alcotest.(check int) "L1 misses" cs.Gsim.Stats.cs_l1_miss
        cp.P.cp_l1_miss;
      Alcotest.(check int) "returned warp loads = cs_warps"
        cs.Gsim.Stats.cs_warps cp.P.cp_returns;
      Alcotest.(check int) "L2 accesses" cs.Gsim.Stats.cs_l2_access
        cp.P.cp_l2_access;
      Alcotest.(check int) "L2 misses" cs.Gsim.Stats.cs_l2_miss
        cp.P.cp_l2_miss)
    [ d; n ];
  (* every L1 probe slot: classified loads + stores must account for
     the whole Stats.l1_events histogram (no prefetch in this config) *)
  let sum f = f p.P.per_class.(0) + f p.P.per_class.(1) in
  let slot o = s.Gsim.Stats.l1_events.(Gsim.Stats.l1_event_index o) in
  Alcotest.(check int) "hit slot" (slot Gsim.Cache.Hit)
    (sum (fun c -> c.P.cp_l1_hit));
  Alcotest.(check int) "merge slot" (slot Gsim.Cache.Hit_reserved)
    (sum (fun c -> c.P.cp_l1_merge));
  Alcotest.(check int) "miss slot (stores probe as misses)"
    (slot Gsim.Cache.Miss)
    (sum (fun c -> c.P.cp_l1_miss) + p.P.store_ok);
  List.iteri
    (fun k kind ->
      Alcotest.(check int)
        ("fail slot " ^ string_of_int k)
        (slot (Gsim.Cache.Rsrv_fail kind))
        (sum (fun c -> c.P.cp_l1_fail.(k)) + p.P.st_fail.(k)))
    fail_kinds;
  (* L2 reservation failures, loads + stores *)
  Alcotest.(check int) "l2 rsrv fails" s.Gsim.Stats.l2_rsrv_fails
    (sum (fun c -> Array.fold_left ( + ) 0 c.P.cp_l2_fail)
    + p.P.l2_store_fail);
  (* global stores seen by the trace *)
  Alcotest.(check int) "accepted stores" s.Gsim.Stats.global_stores
    p.P.store_ok

(* ---------------- MSHR conservation ---------------- *)

(* Every MSHR entry a probe allocates is freed by exactly one fill, so
   over a drained run each cache's Ev_mshr_alloc and Ev_mshr_free
   counts match.  Next-line prefetch probes allocate too: the L1's
   prefetch misses are the prefetches Stats counts as issued. *)
let test_mshr_conservation () =
  let np = Gsim.Config.no_policy in
  let policies =
    [ ("baseline", Gsim.Config.Baseline);
      ("iar", Gsim.Config.Iar Gsim.Config.default_iar);
      ("holistic", Gsim.Config.Holistic Gsim.Config.default_holistic);
      ("prefetch", Gsim.Config.Ndet_flags { np with lp_prefetch = true });
      ("bypass", Gsim.Config.Ndet_flags { np with lp_bypass = true });
      ("split-4", Gsim.Config.Ndet_flags { np with lp_split = 4 }) ]
  in
  let side_name = function
    | Gsim.Trace.S_l1 sm -> Printf.sprintf "L1 of SM %d" sm
    | Gsim.Trace.S_l2 part -> Printf.sprintf "L2 partition %d" part
  in
  List.iter
    (fun (app_name, (pname, policy)) ->
      let label = Printf.sprintf "%s %s" app_name pname in
      let cfg =
        Gsim.Config.default
        |> Gsim.Config.with_caps ~max_warp_insts:0 ()
        |> Gsim.Config.with_policy policy
      in
      (* side -> (allocs, frees) *)
      let mshr = Hashtbl.create 32 in
      let count where f =
        let a, fr = Option.value ~default:(0, 0) (Hashtbl.find_opt mshr where) in
        Hashtbl.replace mshr where (f (a, fr))
      in
      let pf_misses = ref 0 in
      let p = P.create () in
      let trace =
        Gsim.Trace.stream (fun ev ->
            P.add p ev;
            match ev with
            | Gsim.Trace.Ev_mshr_alloc { where; _ } ->
                count where (fun (a, f) -> (a + 1, f))
            | Gsim.Trace.Ev_mshr_free { where; _ } ->
                count where (fun (a, f) -> (a, f + 1))
            | Gsim.Trace.Ev_access
                { where = Gsim.Trace.S_l1 _; src = Gsim.Trace.A_prefetch;
                  outcome = Gsim.Cache.Miss; _ } ->
                incr pf_misses
            | _ -> ())
      in
      let r =
        ok
          (Critload.Runner.run ~cfg ~scale:Workloads.App.Small ~trace
             (Workloads.Suite.find app_name))
      in
      Alcotest.(check bool) (label ^ ": drained") false
        r.Critload.Runner.Report.truncated;
      Alcotest.(check bool) (label ^ ": MSHRs allocated") true
        (Hashtbl.length mshr > 0);
      Hashtbl.iter
        (fun where (allocs, frees) ->
          Alcotest.(check int)
            (Printf.sprintf "%s: %s allocs = frees" label (side_name where))
            allocs frees)
        mshr;
      let issued =
        (Critload.Runner.Report.stats_exn r).Gsim.Stats.prefetches_issued
      in
      Alcotest.(check bool) (label ^ ": prefetches iff prefetch policy")
        (pname = "prefetch") (issued > 0);
      Alcotest.(check int) (label ^ ": L1 prefetch misses = issued") issued
        !pf_misses;
      Alcotest.(check int) (label ^ ": profile prefetch misses = issued")
        issued p.P.prefetch_misses)
    (List.concat_map
       (fun app -> List.map (fun pol -> (app, pol)) policies)
       [ "bfs"; "spmv"; "sssp"; "mis" ])

let reconcile_tests =
  List.map
    (fun name ->
      Alcotest.test_case (name ^ ": trace counts = stats") `Slow
        (reconcile_app name))
    Workloads.Suite.names

let tests =
  [
    Alcotest.test_case "histogram bucket edges" `Quick test_bucket_edges;
    Alcotest.test_case "merge associativity + commutativity" `Quick
      test_merge_laws;
    Alcotest.test_case "profile JSON round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "golden digest: 2mm" `Quick test_golden_2mm;
    Alcotest.test_case "golden digest: bfs" `Quick test_golden_bfs;
    Alcotest.test_case "MSHR allocs = frees, prefetch probes traced" `Slow
      test_mshr_conservation;
  ]

let () =
  Alcotest.run "profile"
    [ ("profile", tests); ("reconcile", reconcile_tests) ]
