(* The paper's Section X.A workflow end to end: classify an
   application's loads, derive per-instruction hardware policies, and
   compare the advisor-guided machine against the baseline.

     dune exec examples/advisor_workflow.exe [app] [cap]
   e.g. dune exec examples/advisor_workflow.exe -- spmv 80000 *)

let run_variant app scale cfg name =
  let r =
    match Critload.Runner.run ~cfg ~scale app with
    | Ok r -> r
    | Error e -> failwith (Gsim.Sim_error.to_string e)
  in
  let s = Critload.Runner.Report.stats_exn r in
  let open Dataflow.Classify in
  Printf.printf
    "%-9s cycles=%-8d  N: L1 miss %4.1f%%  turnaround %6.1f   rsrv-fail \
     cycles %4.1f%%\n"
    name s.Gsim.Stats.cycles
    (100. *. Gsim.Stats.l1_miss_ratio s Nondeterministic)
    (Gsim.Stats.avg_turnaround s Nondeterministic)
    (let b = Gsim.Stats.l1_cycle_breakdown s in
     100. *. (b.(3) +. b.(4) +. b.(5)))

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "spmv" in
  let cap =
    if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 120_000
  in
  let scale = Workloads.App.Default in
  let app = Workloads.Suite.find name in

  (* 1. static analyses -> per-load advice *)
  let advice = Critload.Advisor.advise_app app scale in
  Format.printf "Per-load advice for %s:@.%a@." name Critload.Advisor.pp_advice
    advice;

  (* 2. baseline vs guided machine *)
  let base = Gsim.Config.default |> Gsim.Config.with_caps ~max_warp_insts:cap () in
  let guided =
    match Critload.Advisor.policies advice with
    | [] -> base
    | ps -> base |> Gsim.Config.(with_policy (Per_pc (ps, Baseline)))
  in
  run_variant app scale base "baseline";
  run_variant app scale guided "advisor"
