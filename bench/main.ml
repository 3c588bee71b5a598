(* Benchmark harness: regenerates every table and figure of the paper.

   Usage:
     main.exe                 run every experiment (default scale)
     main.exe fig3 fig8       run selected experiments
     main.exe --scale small all
     main.exe --cap 250000 fig5
     main.exe --out results/  additionally write each experiment to
                              results/<id>.txt

   main.exe --jobs 8 policies
                             policy comparison table: speedup and
                             reservation-fail deltas vs baseline

   Experiment ids: table1 table2 table3 fig1..fig12 ablate-split
   ablate-cta ablate-l2 ablate-prefetch ablate-bypass ablate-warpsched
   ablate-advisor sensitivity policies all

   A parallel sweep of the suite is `critload sweep` (--policy P,
   --jobs N, --out FILE). *)

module E = Critload.Experiments

let experiments scale : (string * (unit -> string)) list =
  [
    ("table1", fun () -> E.render_table1 scale);
    ("table2", fun () -> E.render_table2 ());
    ("table3", fun () -> E.render_table3 scale);
    ("fig1", fun () -> E.render_fig1 scale);
    ("fig2", fun () -> E.render_fig2 scale);
    ("fig3", fun () -> E.render_fig3 scale);
    ("fig4", fun () -> E.render_fig4 scale);
    ("fig5", fun () -> E.render_fig5 scale);
    ("fig6", fun () -> E.render_fig6 scale);
    ("fig7", fun () -> E.render_fig7 scale);
    ("fig8", fun () -> E.render_fig8 scale);
    ("fig9", fun () -> E.render_fig9 scale);
    ("fig10", fun () -> E.render_fig10 scale);
    ("fig11", fun () -> E.render_fig11 scale);
    ("fig12", fun () -> E.render_fig12 scale);
    ("ablate-split", fun () -> E.render_ablate_split scale);
    ("ablate-cta", fun () -> E.render_ablate_cta scale);
    ("ablate-l2", fun () -> E.render_ablate_l2 scale);
    ("ablate-prefetch", fun () -> E.render_ablate_prefetch scale);
    ("ablate-bypass", fun () -> E.render_ablate_bypass scale);
    ("ablate-warpsched", fun () -> E.render_ablate_warpsched scale);
    ("ablate-advisor", fun () -> E.render_ablate_advisor scale);
    ("sensitivity", fun () -> E.render_sensitivity ());
  ]

(* ---- memory-system policy comparison ----

   `main.exe policies` sweeps every app under each policy through the
   cached parallel runner with profiling on, and renders speedup and
   per-class reservation-fail deltas against the baseline rows.
   `--out DIR` additionally writes policies.json
   (critload-bench-policies-v1), the per-policy record BENCH_*.json
   embeds. *)

let policy_rows_json ~scale rows =
  let module J = Gsim.Stats_io.Json in
  J.Obj
    [
      ("schema", J.Str "critload-bench-policies-v1");
      ("scale", J.Str (Workloads.App.string_of_scale scale));
      ( "rows",
        J.Arr
          (List.map
             (fun (r : E.policy_row) ->
               J.Obj
                 [
                   ("app", J.Str r.E.po_app);
                   ("category", J.Str r.E.po_category);
                   ("policy", J.Str r.E.po_policy);
                   ("cycles", J.Int r.E.po_cycles);
                   ("speedup", J.Float r.E.po_speedup);
                   ("l1_fail_cycles_d", J.Int r.E.po_fail_d);
                   ("l1_fail_cycles_n", J.Int r.E.po_fail_n);
                   ("n_fail_delta", J.Float r.E.po_fail_n_delta);
                 ])
             rows) );
    ]

let policy_bench ~jobs ~scale ~out_dir ~policies () =
  let policies =
    match policies with [] -> E.default_policies | ps -> ps
  in
  let rows = E.policy_sweep ~policies ~workers:jobs scale in
  (match out_dir with
  | None -> ()
  | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let oc = open_out (Filename.concat dir "policies.json") in
      Gsim.Stats_io.Json.to_channel oc (policy_rows_json ~scale rows);
      output_char oc '\n';
      close_out oc);
  E.render_policy_rows rows

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let scale = ref Workloads.App.Default in
  let cap = ref 0 in
  let out_dir = ref None in
  let jobs = ref 4 in
  let policies = ref [] in
  let selected = ref [] in
  let rec parse = function
    | [] -> ()
    | "--scale" :: s :: rest ->
        scale := Workloads.App.scale_of_string s;
        parse rest
    | "--cap" :: n :: rest ->
        cap := int_of_string n;
        parse rest
    | "--out" :: dir :: rest ->
        out_dir := Some dir;
        parse rest
    | "--jobs" :: n :: rest ->
        jobs := int_of_string n;
        parse rest
    | "--policies" :: names :: rest ->
        policies :=
          List.map
            (fun n ->
              match Gsim.Config.policy_of_string n with
              | Ok p -> p
              | Error msg -> failwith msg)
            (String.split_on_char ',' names);
        parse rest
    | "--version" :: _ ->
        print_endline Critload.Version.version;
        exit 0
    | x :: rest ->
        selected := x :: !selected;
        parse rest
  in
  parse args;
  if !cap > 0 then E.set_timing_cap !cap;
  let selected =
    match List.rev !selected with [] | [ "all" ] -> [] | l -> l
  in
  let exps = experiments !scale in
  let to_run =
    if selected = [] then exps
    else
      List.map
        (fun name ->
          if name = "policies" then
            ( name,
              policy_bench ~jobs:!jobs ~scale:!scale ~out_dir:!out_dir
                ~policies:!policies )
          else
            match List.assoc_opt name exps with
            | Some f -> (name, f)
            | None ->
                failwith
                  (Printf.sprintf
                     "unknown experiment %s (have: %s, policies)"
                     name
                     (String.concat ", " (List.map fst exps)))
        )
        selected
  in
  List.iter
    (fun (name, f) ->
      let t0 = Unix.gettimeofday () in
      let out = f () in
      Printf.printf "=== %s (%.1fs) ===\n%s\n%!" name
        (Unix.gettimeofday () -. t0)
        out;
      match !out_dir with
      | None -> ()
      | Some dir ->
          if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
          let oc = open_out (Filename.concat dir (name ^ ".txt")) in
          output_string oc out;
          close_out oc)
    to_run
