(* Experiment-layer tests: the paper's qualitative shapes must hold on
   the Small-scale datasets, and the statistics must satisfy internal
   conservation invariants. *)

module E = Critload.Experiments
module App = Workloads.App
open Dataflow.Classify

let scale = App.Small

(* keep the timing runs fast *)
let () = E.set_timing_cap 40_000

let find name rows fname =
  match List.find_opt (fun r -> fname r = name) rows with
  | Some r -> r
  | None -> Alcotest.failf "missing app %s" name

(* ---------------- Fig 1 shapes ---------------- *)

let test_fig1_shapes () =
  let rows = E.fig1 scale in
  let get n = find n rows (fun (r : E.fig1_row) -> r.E.f1_name) in
  (* linear algebra & image processing: fully deterministic except
     spmv / srad / htw *)
  List.iter
    (fun n ->
      let r = get n in
      Alcotest.(check int) (n ^ " has no static N loads") 0 r.E.f1_static_n)
    [ "2mm"; "gaus"; "grm"; "lu"; "mriq"; "dwt"; "bpr" ];
  (* graph apps: static D fraction above 33% (paper: "more than 50% on
     average"), dynamic N-heavy *)
  List.iter
    (fun n ->
      let r = get n in
      Alcotest.(check bool)
        (n ^ " has static N loads")
        true (r.E.f1_static_n > 0);
      Alcotest.(check bool)
        (n ^ " dynamically N-dominated")
        true
        (r.E.f1_dyn_d_fraction < 0.5))
    [ "bfs"; "sssp"; "ccl"; "mst"; "mis" ];
  (* averaged static D fraction of the graph apps exceeds 33% *)
  let graph = [ "bfs"; "sssp"; "ccl"; "mst"; "mis" ] in
  let avg =
    List.fold_left
      (fun acc n ->
        let r = get n in
        acc
        +. float_of_int r.E.f1_static_d
           /. float_of_int (r.E.f1_static_d + r.E.f1_static_n))
      0.0 graph
    /. float_of_int (List.length graph)
  in
  Alcotest.(check bool) "graph apps: avg static D fraction > 1/3" true
    (avg > 0.33)

(* ---------------- Fig 2 shape: N requests >> D requests ---------- *)

let test_fig2_shapes () =
  let rows = E.fig2 scale in
  let get n = find n rows (fun (r : E.fig2_row) -> r.E.f2_name) in
  List.iter
    (fun n ->
      let r = get n in
      let rn = r.E.f2_req_per_thread Nondeterministic in
      let rd = r.E.f2_req_per_thread Deterministic in
      Alcotest.(check bool)
        (Printf.sprintf "%s: N req/thread (%.2f) > 3x D (%.2f)" n rn rd)
        true
        (rn > 3.0 *. rd))
    [ "bfs"; "mis"; "ccl" ];
  (* fully deterministic apps generate no N requests at all *)
  List.iter
    (fun n ->
      let r = get n in
      Alcotest.(check (float 0.0001))
        (n ^ " no N requests")
        0.0
        (r.E.f2_req_per_warp Nondeterministic))
    [ "2mm"; "mriq"; "bpr" ]

(* ---------------- Fig 3 invariant: fractions sum to 1 ------------ *)

let test_fig3_invariants () =
  List.iter
    (fun app ->
      let b = E.fig3 scale app in
      let sum = Array.fold_left ( +. ) 0.0 b in
      if Array.exists (fun x -> x > 0.0) b then
        Alcotest.(check (float 0.001))
          (app.App.name ^ " L1 cycle fractions sum to 1")
          1.0 sum)
    E.all_apps

(* ---------------- Fig 5 invariant: breakdown sums to total ------- *)

let test_fig5_invariants () =
  List.iter
    (fun app ->
      let n, d = E.fig5 scale app in
      List.iter
        (fun (u, p, c, w) ->
          Alcotest.(check bool)
            (app.App.name ^ " non-negative components")
            true
            (u >= 0.0 && p >= 0.0 && c >= 0.0 && w >= 0.0))
        [ n; d ])
    E.all_apps

(* ---------------- Fig 8: miss ratios are ratios ------------------ *)

let test_fig8_invariants () =
  List.iter
    (fun app ->
      let (l1n, l2n), (l1d, l2d) = E.fig8 scale app in
      List.iter
        (fun x ->
          Alcotest.(check bool)
            (app.App.name ^ " ratio in [0,1]")
            true
            (x >= 0.0 && x <= 1.0))
        [ l1n; l2n; l1d; l2d ])
    E.all_apps

(* ---------------- Fig 9 shape ---------------- *)

let test_fig9_shapes () =
  (* bpr stages data in shared memory; graph apps do not use it *)
  Alcotest.(check bool) "bpr uses shared memory heavily" true
    (E.fig9 scale (Workloads.Suite.find "bpr") > 1.0);
  List.iter
    (fun n ->
      Alcotest.(check (float 0.0001))
        (n ^ " never touches shared memory")
        0.0
        (E.fig9 scale (Workloads.Suite.find n)))
    [ "bfs"; "sssp"; "2mm"; "spmv" ]

(* ---------------- Fig 10 shape ---------------- *)

let test_fig10_shapes () =
  (* the paper: image apps have high cold-miss ratios, linear/graph low
     with heavy block reuse *)
  let cold n = fst (E.fig10 scale (Workloads.Suite.find n)) in
  let reuse n = snd (E.fig10 scale (Workloads.Suite.find n)) in
  Alcotest.(check bool) "mriq cold ratio ~1" true (cold "mriq" > 0.9);
  Alcotest.(check bool) "2mm cold ratio < 10%" true (cold "2mm" < 0.1);
  Alcotest.(check bool) "2mm blocks reused > 50x" true (reuse "2mm" > 50.0);
  Alcotest.(check bool) "graph apps reuse blocks" true (reuse "bfs" > 3.0)

(* ---------------- Fig 11 shape ---------------- *)

let test_fig11_shapes () =
  let sh n = E.fig11 scale (Workloads.Suite.find n) in
  (* "In 2mm and gaus every block of data is accessed by multiple CTAs" *)
  Alcotest.(check (float 0.01)) "2mm all blocks shared" 1.0
    (sh "2mm").Gsim.Funcsim.sh_block_ratio;
  (* graph apps: shared blocks span multiple CTAs (dozens at larger
     scales; the Small graph only has a handful of CTAs) *)
  Alcotest.(check bool) "bfs shared blocks span multiple CTAs" true
    ((sh "bfs").Gsim.Funcsim.sh_avg_ctas > 2.0);
  (* accesses to shared blocks outweigh their block share *)
  let s = sh "bfs" in
  Alcotest.(check bool) "bfs shared-access ratio > shared-block ratio" true
    (s.Gsim.Funcsim.sh_access_ratio > s.Gsim.Funcsim.sh_block_ratio)

(* ---------------- Fig 12 shape ---------------- *)

let test_fig12_shapes () =
  (* neighbouring CTAs (distance 1) dominate sharing in linear apps *)
  let hist = E.fig12 scale (Workloads.Suite.find "2mm") in
  match hist with
  | [] -> Alcotest.fail "2mm has no CTA-distance histogram"
  | _ ->
      let d1 = try List.assoc 1 hist with Not_found -> 0.0 in
      Alcotest.(check bool) "distance-1 sharing present in 2mm" true (d1 > 0.1)

(* ---------------- stats invariants from a timing run ------------- *)

let test_stats_conservation () =
  let app = Workloads.Suite.find "bfs" in
  let r = E.timing_report scale app in
  let s = Critload.Runner.Report.stats_exn r in
  (* every l1 event was one probe cycle *)
  Alcotest.(check int) "l1 events sum to probe cycles"
    s.Gsim.Stats.l1_probe_cycles
    (Array.fold_left ( + ) 0 s.Gsim.Stats.l1_events);
  (* unit busy cycles cannot exceed total SM cycles *)
  let n_sms = r.Critload.Runner.Report.cfg.Gsim.Config.n_sms in
  Array.iter
    (fun busy ->
      Alcotest.(check bool) "busy <= cycles * sms" true
        (busy <= s.Gsim.Stats.cycles * n_sms))
    s.Gsim.Stats.unit_busy;
  Alcotest.(check bool) "issued instructions" true (s.Gsim.Stats.warp_insts > 0)

(* ---------------- Section X ablations run ---------------- *)

let test_ablation_split_runs () =
  let app = Workloads.Suite.find "mis" in
  let base =
    E.ablation_run scale app (E.timing_cfg ()) "baseline"
  in
  let split =
    E.ablation_run scale app
      (E.timing_cfg ()
      |> Gsim.Config.with_policy
           (Gsim.Config.Ndet_flags
              { Gsim.Config.no_policy with Gsim.Config.lp_split = 8 }))
      "split8"
  in
  Alcotest.(check bool) "both ran" true
    (base.E.ab_cycles > 0 && split.E.ab_cycles > 0)

let test_ablation_cta_sched_runs () =
  let app = Workloads.Suite.find "2mm" in
  let rr = E.ablation_run scale app (E.timing_cfg ()) "rr" in
  let cl =
    E.ablation_run scale app
      (E.timing_cfg () |> Gsim.Config.with_cta_sched (Gsim.Config.Clustered 2))
      "cl2"
  in
  Alcotest.(check bool) "both ran" true (rr.E.ab_cycles > 0 && cl.E.ab_cycles > 0)

let test_render_all_smoke () =
  (* every table and figure renderer produces non-empty text *)
  List.iter
    (fun name ->
      let render = List.assoc name E.all in
      Alcotest.(check bool) (name ^ " renders") true
        (String.length (render scale) > 40))
    ([ "table1"; "table2"; "table3" ]
    @ List.init 12 (fun i -> Printf.sprintf "fig%d" (i + 1)))

(* Every application runs through the cycle simulator at Small scale:
   instructions issue, CTAs complete, and the stats stay consistent. *)
let timing_smoke (app : App.t) () =
  let cfg = Gsim.Config.default |> Gsim.Config.with_caps ~max_warp_insts:15_000 () in
  let s =
    match Critload.Runner.run ~cfg ~scale app with
    | Ok r -> Critload.Runner.Report.stats_exn r
    | Error e -> raise (Gsim.Sim_error.Error e)
  in
  Alcotest.(check bool) "instructions issued" true (s.Gsim.Stats.warp_insts > 0);
  Alcotest.(check bool) "cycles advanced" true (s.Gsim.Stats.cycles > 0);
  (* either CTAs retired or the cap stopped us mid-flight *)
  Alcotest.(check bool) "CTAs completed or cap hit" true
    (s.Gsim.Stats.completed_ctas > 0 || s.Gsim.Stats.warp_insts >= 15_000);
  Alcotest.(check int) "l1 event conservation" s.Gsim.Stats.l1_probe_cycles
    (Array.fold_left ( + ) 0 s.Gsim.Stats.l1_events);
  (* completed warp loads imply recorded requests *)
  Array.iter
    (fun (c : Gsim.Stats.class_stats) ->
      if c.Gsim.Stats.cs_warps > 0 then begin
        Alcotest.(check bool) "requests recorded" true (c.Gsim.Stats.cs_requests > 0);
        Alcotest.(check bool) "turnaround positive" true
          (c.Gsim.Stats.cs_turnaround > 0)
      end)
    s.Gsim.Stats.per_class

let timing_smoke_tests =
  List.map
    (fun (app : App.t) ->
      Alcotest.test_case ("cycle-sim " ^ app.App.name) `Slow (timing_smoke app))
    E.all_apps

let tests =
  [
    Alcotest.test_case "fig1: classification shapes" `Quick test_fig1_shapes;
    Alcotest.test_case "fig2: N vs D request disparity" `Slow
      test_fig2_shapes;
    Alcotest.test_case "fig3: fractions sum to 1" `Slow test_fig3_invariants;
    Alcotest.test_case "fig5: non-negative breakdown" `Slow
      test_fig5_invariants;
    Alcotest.test_case "fig8: ratios in range" `Slow test_fig8_invariants;
    Alcotest.test_case "fig9: shared-memory usage shape" `Quick
      test_fig9_shapes;
    Alcotest.test_case "fig10: cold-miss shapes" `Quick test_fig10_shapes;
    Alcotest.test_case "fig11: inter-CTA sharing shapes" `Quick
      test_fig11_shapes;
    Alcotest.test_case "fig12: CTA distance histogram" `Quick
      test_fig12_shapes;
    Alcotest.test_case "stats conservation" `Slow test_stats_conservation;
    Alcotest.test_case "ablation: warp split runs" `Slow
      test_ablation_split_runs;
    Alcotest.test_case "ablation: cta scheduling runs" `Slow
      test_ablation_cta_sched_runs;
    Alcotest.test_case "all renderers (smoke)" `Slow test_render_all_smoke;
  ]

let () =
  Alcotest.run "experiments"
    [ ("experiments", tests); ("timing-smoke", timing_smoke_tests) ]
