(* Graph-application characterization: reproduce the paper's bfs story
   end to end on one app — load classification (Code 1), coalescing
   disparity (Fig 2), reservation failures (Fig 3), and the "hidden"
   inter-CTA locality (Figs 10-12).

     dune exec examples/graph_locality.exe [app] [scale]
   e.g. dune exec examples/graph_locality.exe -- sssp small *)

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "bfs" in
  let scale =
    if Array.length Sys.argv > 2 then
      Workloads.App.scale_of_string Sys.argv.(2)
    else Workloads.App.Default
  in
  let app = Workloads.Suite.find name in
  Printf.printf "== %s: %s ==\n\n" app.Workloads.App.name
    app.Workloads.App.description;

  (* static classification of every kernel the app launches *)
  List.iter
    (fun (launch : Gsim.Launch.t) ->
      Format.printf "%a@." Dataflow.Classify.pp_result
        launch.Gsim.Launch.classes)
    (Workloads.App.kernel_launches (app.Workloads.App.make scale));

  (* dynamic behaviour: functional run with locality analysis *)
  let fr =
    match
      Critload.Runner.run ~mode:Critload.Runner.Func ~scale
        ~func_cap:2_000_000 app
    with
    | Ok r -> Critload.Runner.Report.func_exn r
    | Error e -> failwith (Gsim.Sim_error.to_string e)
  in
  let fs = fr.Critload.Runner.fr_fs in
  let open Dataflow.Classify in
  Printf.printf "\ndynamic global load warps: D = %d, N = %d\n"
    fs.Gsim.Funcsim.gld_warps.(0)
    fs.Gsim.Funcsim.gld_warps.(1);
  Printf.printf "requests per active thread: N = %.2f vs D = %.2f\n"
    (Gsim.Funcsim.requests_per_active_thread fs Nondeterministic)
    (Gsim.Funcsim.requests_per_active_thread fs Deterministic);
  Printf.printf "cold-miss ratio: %.1f%%; avg accesses per 128B block: %.1f\n"
    (100.0 *. Gsim.Funcsim.cold_miss_ratio fs)
    (Gsim.Funcsim.avg_accesses_per_block fs);
  let sh = Gsim.Funcsim.sharing fs in
  Printf.printf
    "inter-CTA: %.1f%% of blocks / %.1f%% of accesses shared; avg %.1f \
     CTAs per shared block\n"
    (100.0 *. sh.Gsim.Funcsim.sh_block_ratio)
    (100.0 *. sh.Gsim.Funcsim.sh_access_ratio)
    sh.Gsim.Funcsim.sh_avg_ctas;
  let hist = Gsim.Funcsim.cta_distance_histogram fs in
  let top =
    List.sort (fun (_, a) (_, b) -> compare b a) hist |> fun l ->
    List.filteri (fun i _ -> i < 6) l
  in
  Printf.printf "top CTA distances: %s\n"
    (String.concat ", "
       (List.map (fun (d, f) -> Printf.sprintf "%d (%.0f%%)" d (100. *. f)) top));

  (* timing behaviour *)
  let cfg = Gsim.Config.default |> Gsim.Config.with_caps ~max_warp_insts:150_000 () in
  let tr =
    match Critload.Runner.run ~cfg ~scale app with
    | Ok r -> r
    | Error e -> failwith (Gsim.Sim_error.to_string e)
  in
  let st = Critload.Runner.Report.stats_exn tr in
  Printf.printf "\ncycle sim (capped): %d cycles\n" st.Gsim.Stats.cycles;
  Printf.printf "avg turnaround: N = %.0f vs D = %.0f cycles\n"
    (Gsim.Stats.avg_turnaround st Nondeterministic)
    (Gsim.Stats.avg_turnaround st Deterministic);
  let b = Gsim.Stats.l1_cycle_breakdown st in
  Printf.printf
    "L1 cycles: %.0f%% hit, %.0f%% hit-reserved, %.0f%% miss, %.0f%% \
     tag-fail, %.0f%% mshr-fail, %.0f%% icnt-fail\n"
    (100. *. b.(0)) (100. *. b.(1)) (100. *. b.(2)) (100. *. b.(3))
    (100. *. b.(4)) (100. *. b.(5))
