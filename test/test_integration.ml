(* Cross-cutting integration tests: printer/parser stability over every
   kernel in the suite, classification stability across the
   parse round-trip, the prefetcher ablation's effect, barrier-heavy
   kernels under the cycle simulator, timing/functional agreement on
   final memory contents, and the warmup pre-pass's answers. *)

module App = Workloads.App

let kernels_of_app (app : App.t) =
  List.map
    (fun l -> l.Gsim.Launch.kernel)
    (App.kernel_launches (app.App.make App.Small))

(* Execute every launch of [run] with [exec], uncapped. *)
let run_all run exec =
  App.iter_launches run (fun l ->
      exec l;
      true)

(* Every kernel in the suite survives print -> parse -> print. *)
let test_roundtrip_all_kernels () =
  List.iter
    (fun app ->
      List.iter
        (fun k ->
          let text = Ptx.Kernel.to_string k in
          let k2 = Ptx.Parse.kernel_of_string text in
          Alcotest.(check string)
            (k.Ptx.Kernel.kname ^ " round-trips")
            text
            (Ptx.Kernel.to_string k2))
        (kernels_of_app app))
    Workloads.Suite.all

(* Classification is invariant under the parse round-trip. *)
let test_classification_stable_under_roundtrip () =
  let counts k =
    Dataflow.Classify.(count_global (classify (Dataflow.Depgraph.of_kernel k)))
  in
  List.iter
    (fun app ->
      List.iter
        (fun k ->
          let before = counts k in
          let k2 = Ptx.Parse.kernel_of_string (Ptx.Kernel.to_string k) in
          let after = counts k2 in
          Alcotest.(check (pair int int))
            (k.Ptx.Kernel.kname ^ " classification stable")
            before after)
        (kernels_of_app app))
    Workloads.Suite.all

(* The N-load next-line prefetcher reduces the N-class L1 miss ratio on
   spmv, whose edge-array walks are sequential. *)
let test_prefetcher_reduces_misses () =
  let app = Workloads.Suite.find "spmv" in
  let cap = Gsim.Config.default |> Gsim.Config.with_caps ~max_warp_insts:40_000 () in
  let run cfg =
    match Critload.Runner.run ~cfg ~scale:App.Small app with
    | Ok r -> Critload.Runner.Report.stats_exn r
    | Error e -> raise (Gsim.Sim_error.Error e)
  in
  let base = run cap in
  let pf =
    run
      (cap
      |> Gsim.Config.with_policy
           (Gsim.Config.Ndet_flags
              { Gsim.Config.no_policy with Gsim.Config.lp_prefetch = true }))
  in
  let miss s =
    Gsim.Stats.l1_miss_ratio s Dataflow.Classify.Nondeterministic
  in
  Alcotest.(check bool) "prefetches were issued" true
    (pf.Gsim.Stats.prefetches_issued > 0);
  Alcotest.(check bool)
    (Printf.sprintf "N miss ratio reduced (%.3f -> %.3f)" (miss base) (miss pf))
    true
    (miss pf < miss base)

(* bpr's barrier-heavy reduction completes under the cycle simulator
   and produces the same memory image as the functional simulator. *)
let test_barriers_under_cycle_sim () =
  let app = Workloads.Suite.find "bpr" in
  let run1 = app.App.make App.Small in
  let run2 = app.App.make App.Small in
  (* functional *)
  run_all run1 (fun l -> ignore (Gsim.Funcsim.run l));
  (* cycle-level, uncapped *)
  let cfg = Gsim.Config.default |> Gsim.Config.with_caps ~max_warp_insts:0 () in
  let machine = Gsim.Gpu.create_machine ~cfg () in
  run_all run2 (fun l -> ignore (Gsim.Gpu.run_launch machine l));
  Alcotest.(check bool) "functional result verified" true (run1.App.check ());
  Alcotest.(check bool) "cycle-sim result verified" true (run2.App.check ());
  Alcotest.(check bool) "cycle sim recorded shared loads" true
    (machine.Gsim.Gpu.stats.Gsim.Stats.shared_loads > 0)

(* Timing and functional simulation agree on the final memory for a
   single-kernel deterministic app (dwt). *)
let test_timing_functional_memory_agreement () =
  let app = Workloads.Suite.find "dwt" in
  let run_f = app.App.make App.Small in
  let run_t = app.App.make App.Small in
  run_all run_f (fun l -> ignore (Gsim.Funcsim.run l));
  let cfg = Gsim.Config.default |> Gsim.Config.with_caps ~max_warp_insts:0 () in
  let machine = Gsim.Gpu.create_machine ~cfg () in
  run_all run_t (fun l -> ignore (Gsim.Gpu.run_launch machine l));
  let mf = run_f.App.global and mt = run_t.App.global in
  let n = min (Gsim.Mem.size mf) (Gsim.Mem.size mt) in
  let same = ref true in
  let i = ref 0 in
  while !same && !i < n / 4 do
    if Gsim.Mem.get_u32 mf (4 * !i) <> Gsim.Mem.get_u32 mt (4 * !i) then
      same := false;
    incr i
  done;
  Alcotest.(check bool) "memories identical" true !same

(* Warp splitting preserves results while reducing the per-cycle burst:
   mis must still verify with split8. *)
let test_warp_split_preserves_results () =
  let app = Workloads.Suite.find "mis" in
  let run = app.App.make App.Small in
  let cfg =
    Gsim.Config.default
    |> Gsim.Config.with_caps ~max_warp_insts:0 ()
    |> Gsim.Config.with_policy
         (Gsim.Config.Ndet_flags
            { Gsim.Config.no_policy with Gsim.Config.lp_split = 8 })
  in
  let machine = Gsim.Gpu.create_machine ~cfg () in
  run_all run (fun l -> ignore (Gsim.Gpu.run_launch machine l));
  Alcotest.(check bool) "mis verifies under warp splitting" true
    (run.App.check ())

(* GTO warp scheduling changes timing only, never results. *)
let test_gto_preserves_results () =
  let app = Workloads.Suite.find "bfs" in
  let run = app.App.make App.Small in
  let cfg =
    Gsim.Config.default
    |> Gsim.Config.with_caps ~max_warp_insts:0 ()
    |> Gsim.Config.with_warp_sched Gsim.Config.Gto
  in
  let machine = Gsim.Gpu.create_machine ~cfg () in
  run_all run (fun l -> ignore (Gsim.Gpu.run_launch machine l));
  Alcotest.(check bool) "bfs verifies under GTO" true (run.App.check ())

(* L1 bypass for N loads changes timing only, never results. *)
let test_bypass_preserves_results () =
  let app = Workloads.Suite.find "ccl" in
  let run = app.App.make App.Small in
  let cfg =
    Gsim.Config.default
    |> Gsim.Config.with_caps ~max_warp_insts:0 ()
    |> Gsim.Config.with_policy
         (Gsim.Config.Ndet_flags
            { Gsim.Config.no_policy with Gsim.Config.lp_bypass = true })
  in
  let machine = Gsim.Gpu.create_machine ~cfg () in
  run_all run (fun l -> ignore (Gsim.Gpu.run_launch machine l));
  Alcotest.(check bool) "ccl verifies under bypass" true (run.App.check ());
  (* bypassed N loads never probe the L1: per-class N access count is 0 *)
  let s = machine.Gsim.Gpu.stats in
  let n = s.Gsim.Stats.per_class.(Gsim.Stats.cls_index Dataflow.Classify.Nondeterministic) in
  Alcotest.(check int) "no N L1 accesses under bypass" 0 n.Gsim.Stats.cs_l1_access;
  Alcotest.(check bool) "but N L2 accesses happened" true (n.Gsim.Stats.cs_l2_access > 0)

(* Prefetch preserves results too. *)
let test_prefetch_preserves_results () =
  let app = Workloads.Suite.find "spmv" in
  let run = app.App.make App.Small in
  let cfg =
    Gsim.Config.default
    |> Gsim.Config.with_caps ~max_warp_insts:0 ()
    |> Gsim.Config.with_policy
         (Gsim.Config.Ndet_flags
            { Gsim.Config.no_policy with Gsim.Config.lp_prefetch = true })
  in
  let machine = Gsim.Gpu.create_machine ~cfg () in
  run_all run (fun l -> ignore (Gsim.Gpu.run_launch machine l));
  Alcotest.(check bool) "spmv verifies under prefetch" true (run.App.check ())

(* The warmup pre-pass's answers, in [Suite.all] order: the index of
   the first launch each app's timing run cycle-simulates.  Pinned so
   a rework of the pre-pass must keep them. *)
let test_warmup_launches scale expected () =
  let answers =
    List.map
      (fun (app : App.t) ->
        (app.App.name, Critload.Runner.warmup_launches app scale))
      Workloads.Suite.all
  in
  Alcotest.(check (list (pair string int)))
    (App.string_of_scale scale ^ " warmup launches")
    (List.combine Workloads.Suite.names expected)
    answers

let tests =
  [
    Alcotest.test_case "round-trip: all suite kernels" `Quick
      test_roundtrip_all_kernels;
    Alcotest.test_case "classification stable under round-trip" `Quick
      test_classification_stable_under_roundtrip;
    Alcotest.test_case "prefetcher reduces N misses (spmv)" `Slow
      test_prefetcher_reduces_misses;
    Alcotest.test_case "barriers under cycle sim (bpr)" `Slow
      test_barriers_under_cycle_sim;
    Alcotest.test_case "timing/functional memory agreement (dwt)" `Slow
      test_timing_functional_memory_agreement;
    Alcotest.test_case "warp splitting preserves results (mis)" `Slow
      test_warp_split_preserves_results;
    Alcotest.test_case "GTO scheduling preserves results (bfs)" `Slow
      test_gto_preserves_results;
    Alcotest.test_case "L1 bypass preserves results (ccl)" `Slow
      test_bypass_preserves_results;
    Alcotest.test_case "prefetch preserves results (spmv)" `Slow
      test_prefetch_preserves_results;
    Alcotest.test_case "warmup launches (small)" `Quick
      (test_warmup_launches App.Small
         [ 0; 1; 0; 1; 0; 0; 1; 0; 0; 1; 6; 0; 0; 1; 0 ]);
    Alcotest.test_case "warmup launches (default)" `Slow
      (test_warmup_launches App.Default
         [ 0; 1; 2; 1; 0; 0; 1; 0; 0; 1; 10; 0; 0; 1; 0 ]);
  ]

let () = Alcotest.run "integration" [ ("integration", tests) ]
