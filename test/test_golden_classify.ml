(* Golden static-classification table: the exact deterministic (D) and
   non-deterministic (N) global-load instruction counts of every
   workload app, locked in one table-driven test so a classifier
   regression is caught per-app instead of via downstream timing drift.

   Counts are static (per distinct kernel, summed over the kernels each
   app launches at Small scale); they do not depend on the dataset, only
   on the kernel code and the classifier. *)

module App = Workloads.App

(* unchecked functional run through the unified entry point *)
let run_func app scale =
  match
    Critload.Runner.run ~mode:Critload.Runner.Func ~scale ~check:false app
  with
  | Ok r -> Critload.Runner.Report.func_exn r
  | Error e -> raise (Gsim.Sim_error.Error e)

(* (app, static D, static N) *)
let golden =
  [ ("2mm", 2, 0);
    ("gaus", 7, 0);
    ("grm", 7, 0);
    ("lu", 5, 0);
    ("spmv", 2, 3);
    ("htw", 3, 1);
    ("mriq", 5, 0);
    ("dwt", 4, 0);
    ("bpr", 2, 0);
    ("srad", 10, 6);
    ("bfs", 5, 2);
    ("sssp", 3, 4);
    ("ccl", 3, 2);
    ("mst", 6, 10);
    ("mis", 7, 5) ]

let test_counts () =
  Alcotest.(check int)
    "golden table covers the whole suite"
    (List.length Workloads.Suite.all)
    (List.length golden);
  List.iter
    (fun (name, want_d, want_n) ->
      let app = Workloads.Suite.find name in
      let r = run_func app App.Small in
      Alcotest.(check (pair int int))
        (name ^ " static D/N counts")
        (want_d, want_n)
        (r.Critload.Runner.fr_static_d, r.Critload.Runner.fr_static_n))
    golden

(* summing each distinct kernel's own D/N count over the launches
   reproduces the golden per-app totals *)
let test_per_kernel_counts () =
  List.iter
    (fun (name, want_d, want_n) ->
      let app = Workloads.Suite.find name in
      let run = app.App.make App.Small in
      let fs = Gsim.Funcsim.create Gsim.Config.default in
      let seen = Hashtbl.create 8 in
      let d = ref 0 and n = ref 0 in
      App.iter_launches run (fun launch ->
          (* iterative hosts decide the next launch from simulated
             memory, so each launch must actually execute *)
          Gsim.Funcsim.run_into fs launch;
          let k = launch.Gsim.Launch.kernel in
          if not (Hashtbl.mem seen k.Ptx.Kernel.kname) then begin
            Hashtbl.add seen k.Ptx.Kernel.kname ();
            let kd, kn =
              Dataflow.Classify.count_global launch.Gsim.Launch.classes
            in
            d := !d + kd;
            n := !n + kn
          end;
          true);
      Alcotest.(check (pair int int))
        (name ^ " per-kernel counts match golden")
        (want_d, want_n) (!d, !n))
    golden

let () =
  Alcotest.run "golden_classify"
    [ ( "golden",
        [ Alcotest.test_case "static D/N counts (all 15 apps)" `Quick
            test_counts;
          Alcotest.test_case "per-kernel counts sum to golden" `Quick
            test_per_kernel_counts ] ) ]
