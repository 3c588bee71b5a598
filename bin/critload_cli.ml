(* critload — command-line interface to the library.

   Subcommands:
     verify                      run every app functionally + host checks
     classify <app|file.ptx>     print the load classification
     characterize <app>          functional characterization (Figs 1,9-12)
     simulate <app>              cycle simulation (Figs 2-8 metrics)
     trace <app>                 cycle simulation with event tracing
     sweep                       parallel multi-app sweep, JSON export
     serve                       long-running sweep daemon (Unix socket)
     submit                      client of a running serve daemon
     experiment [ID...]          regenerate the paper's tables and figures
     list                        list the applications

   Exit codes follow the Critload.Exit_code table: 0 ok, 1 check
   failure, 2 bad usage, 3 simulator error, 4 timeout, 5 server
   unavailable, 124 bad argument, 130 interrupted. *)

open Cmdliner
module EC = Critload.Exit_code

(* Every subcommand carries the package version, so `critload --version`
   and `critload SUBCOMMAND --version` both answer. *)
let cmd_info name ~doc = Cmd.info name ~doc ~version:Critload.Version.version

(* Unknown application names are usage errors (exit 2), not crashes. *)
let find_app ~cmd name =
  match Workloads.Suite.find name with
  | app -> app
  | exception Invalid_argument msg ->
      Printf.eprintf "%s: %s\n" cmd msg;
      exit EC.usage

let suite_names =
  List.map (fun (a : Workloads.App.t) -> a.Workloads.App.name)
    Workloads.Suite.all

let scale_arg =
  let open Workloads.App in
  let names = List.map string_of_scale scales in
  Arg.(
    value
    & opt (enum (List.combine names scales)) Default
    & info [ "scale" ] ~docv:"SCALE"
        ~doc:("Dataset scale: " ^ String.concat "|" names ^ "."))

(* A negative cap is an argument error (exit 124), reported before any
   work runs. *)
let non_negative_int =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n < 0 -> Error (`Msg (Printf.sprintf "%d is negative" n))
    | r -> r
  in
  Arg.conv (parse, Format.pp_print_int)

let cap_arg ?(default = 150_000) () =
  Arg.(
    value & opt non_negative_int default
    & info [ "cap" ] ~docv:"N"
        ~doc:"Warp-instruction cap for cycle simulation (0 = none).")

let app_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"APP" ~doc:"Application name (see `critload list`).")

(* Shared option spellings: every subcommand that writes a file, forks
   workers, selects an output encoding or filters by kernel uses the
   same flag names. *)

(* An output file in a directory that does not exist is an argument
   error (exit 124), reported before any work runs. *)
let out_file =
  let parse s =
    let dir = Filename.dirname s in
    if s = "-" || (Sys.file_exists dir && Sys.is_directory dir) then Ok s
    else Error (`Msg (Printf.sprintf "directory %s does not exist" dir))
  in
  Arg.conv (parse, Format.pp_print_string)

let out_arg ?(doc = "Output file ('-' for stdout).") () =
  Arg.(value & opt out_file "-" & info [ "out"; "o" ] ~docv:"FILE" ~doc)

let jobs_arg ?(default = 4) () =
  Arg.(
    value & opt int default
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:"Number of concurrent worker processes.")

let format_arg ~alts ~default ~doc =
  Arg.(value & opt (Arg.enum alts) default & info [ "format" ] ~docv:"FMT" ~doc)

let kernel_arg ~doc =
  Arg.(value & opt (some string) None & info [ "kernel" ] ~docv:"K" ~doc)

let policy_doc =
  "Memory-system policy: $(b,baseline), $(b,iar) (a small reorder unit \
   batches same-line non-deterministic loads before the L1), or \
   $(b,holistic) (bypass streaming loads, protect non-deterministic \
   lines, throttle CTAs under reservation-fail pressure)."

let policy_conv =
  Arg.conv
    ( (fun s ->
        match Gsim.Config.policy_of_string s with
        | Ok p -> Ok p
        | Error msg -> Error (`Msg msg)),
      fun ppf p -> Format.pp_print_string ppf (Gsim.Config.policy_name p) )

let policy_arg =
  Arg.(
    value
    & opt policy_conv Gsim.Config.Baseline
    & info [ "policy" ] ~docv:"POLICY" ~doc:policy_doc)

(* Sweeping subcommands accept the flag repeatedly: one config per
   policy, labelled by the policy name. *)
let policies_arg ?(default_doc = "baseline only") () =
  Arg.(
    value & opt_all policy_conv []
    & info [ "policy" ] ~docv:"POLICY"
        ~doc:(policy_doc ^ "  Repeatable; default " ^ default_doc ^ "."))

let policy_cfgs ~cfg policies =
  let policies =
    match policies with [] -> [ Gsim.Config.Baseline ] | l -> l
  in
  List.map
    (fun p -> (Gsim.Config.policy_name p, cfg |> Gsim.Config.with_policy p))
    policies

let sweep_format_arg =
  format_arg
    ~alts:[ ("json", `Json); ("jsonl", `Jsonl) ]
    ~default:`Json
    ~doc:
      "Output encoding: $(b,json) (one whole-sweep document) or \
       $(b,jsonl) (one result envelope per line)."

(* A sweep document: [sweep], [submit] and [verify --out] write the same
   shapes, byte for byte. *)
let write_sweep_doc ~cmd ~format ~out job_list outcomes =
  let module P = Critload.Parsweep in
  let module Json = Gsim.Stats_io.Json in
  let write oc =
    match format with
    | `Json ->
        Json.to_channel oc (P.sweep_to_json ~jobs:job_list ~outcomes);
        output_char oc '\n'
    | `Jsonl ->
        List.iteri
          (fun i j ->
            Json.to_channel oc (P.job_envelope j outcomes.(i));
            output_char oc '\n')
          job_list
  in
  match out with
  | "-" -> write stdout
  | file ->
      let oc = open_out file in
      write oc;
      close_out oc;
      Printf.eprintf "%s: wrote %s\n%!" cmd file

(* ---- list ---- *)

let list_cmd =
  let run () =
    List.iter
      (fun (a : Workloads.App.t) ->
        Printf.printf "%-6s %-7s %s\n" a.Workloads.App.name
          (Workloads.App.category_name a.Workloads.App.category)
          a.Workloads.App.description)
      Workloads.Suite.all
  in
  Cmd.v (cmd_info "list" ~doc:"List the 15 applications of the suite.")
    Term.(const run $ const ())

(* ---- APP|FILE targets of verify and classify ---- *)

type target = Ptx_file of Ptx.Kernel.t | Suite_app of Gsim.Launch.t list

(* An existing path is a .ptx file: one that cannot be read or parsed,
   or whose kernel is invalid, fails the check (exit 1).  Anything else
   names an application; an unknown one is a usage error (exit 2). *)
let resolve_target ~cmd target =
  if Sys.file_exists target then begin
    let fail what msg =
      Printf.eprintf "%s: %s %s: %s\n" cmd what target msg;
      exit EC.failure
    in
    match In_channel.with_open_bin target In_channel.input_all with
    | exception Sys_error msg -> fail "cannot read" msg
    | text -> (
        match Ptx.Parse.kernel_of_string text with
        | k -> Ptx_file k
        | exception Ptx.Parse.Error msg -> fail "parse error in" msg
        | exception Ptx.Kernel.Invalid msg -> fail "invalid kernel in" msg)
  end
  else
    let app = find_app ~cmd target in
    Suite_app Workloads.App.(kernel_launches (app.make Small))

(* ---- verify ---- *)

(* One kernel's static-verification diagnostics; returns the number of
   errors. *)
let verify_report (k : Ptx.Kernel.t) diags =
  let errors = Ptx.Verify.errors diags in
  if diags = [] then
    Printf.printf "%-14s ok\n" k.Ptx.Kernel.kname
  else begin
    Printf.printf "%-14s %d diagnostic(s)\n" k.Ptx.Kernel.kname
      (List.length diags);
    List.iter
      (fun d -> Printf.printf "  %s\n" (Ptx.Verify.to_string d))
      diags
  end;
  List.length errors

let verify_cmd =
  let module P = Critload.Parsweep in
  let run target scale jobs out =
    match target with
    | Some t ->
        (* static verification only: fast, no simulation; a launch
           carries its kernel's diagnostics *)
        let errors =
          match resolve_target ~cmd:"verify" t with
          | Ptx_file k ->
              verify_report k (fst (Dataflow.Verify.verify_kernel k))
          | Suite_app launches ->
              List.fold_left
                (fun n (l : Gsim.Launch.t) ->
                  n + verify_report l.kernel l.diags)
                0 launches
        in
        if errors > 0 then exit EC.failure
    | None ->
        (* whole-suite functional verification, over the same worker
           pool the sweep uses *)
        let job_list =
          P.jobs ~apps:suite_names ~scales:[ scale ]
            ~cfgs:[ ("base", Gsim.Config.default) ]
            ~mode:P.Func ()
        in
        let outcomes = P.run ~workers:jobs job_list in
        let failures = ref 0 in
        List.iteri
          (fun i (j : P.job) ->
            match outcomes.(i) with
            | P.Failed msg ->
                incr failures;
                Printf.printf "%-6s FAIL  %s\n" j.P.sj_app msg
            | P.Completed payload ->
                let f = P.func_summary_of_json payload in
                let ok = f.P.fu_check in
                if not ok then incr failures;
                Printf.printf "%-6s %-4s  %8d warp insts\n" j.P.sj_app
                  (if ok then "OK" else "FAIL")
                  f.P.fu_warp_insts)
          job_list;
        if out <> "-" then
          write_sweep_doc ~cmd:"verify" ~format:`Json ~out job_list outcomes;
        if !failures > 0 then exit EC.failure
  in
  let target =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"APP|FILE"
          ~doc:
            "Statically verify one application's kernels (or a .ptx \
             file) and print the diagnostics.  Without it, run every \
             application functionally and check the results.")
  in
      Cmd.v
      (cmd_info "verify"
       ~doc:
         "Check applications: statically verify one app's kernels, or \
          (no argument) run the whole suite functionally against the \
          host references.")
    Term.(
      const run $ target $ scale_arg $ jobs_arg ()
      $ out_arg
          ~doc:
            "Also export the functional results as a sweep-format JSON \
             document to $(docv) ('-', the default, writes no file)."
          ())

(* ---- classify ---- *)

let classify_cmd =
  let run target =
    match resolve_target ~cmd:"classify" target with
    | Ptx_file kernel ->
        (* the parser ran the structural pass, so the kernel can be
           analyzed *)
        let an = Dataflow.Depgraph.of_kernel kernel in
        Format.printf "%a@." Dataflow.Classify.pp_result
          (Dataflow.Classify.classify an);
        Format.printf "static coalescing prediction (1-D block assumed):@.%a@."
          (Dataflow.Stride.pp_predictions ?block:None) an
    | Suite_app launches ->
        List.iter
          (fun (launch : Gsim.Launch.t) ->
            let k = launch.Gsim.Launch.kernel in
            let an = launch.Gsim.Launch.analysis in
            Format.printf "%a" Dataflow.Classify.pp_result
              launch.Gsim.Launch.classes;
            Format.printf "  coalescing prediction:@.%a"
              (Dataflow.Stride.pp_predictions ~block:launch.Gsim.Launch.block)
              an;
            (* spare registers bound the prefetch slots of the paper's
               [16]-style optimization *)
            let pressure =
              Dataflow.Liveness.max_pressure (Dataflow.Liveness.compute an)
            in
            Format.printf "  registers: %d used, peak pressure %d, %d spare@.@."
              k.Ptx.Kernel.nregs pressure
              (max 0 (k.Ptx.Kernel.nregs - pressure)))
          launches
  in
  let target =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"APP|FILE" ~doc:"Application name or .ptx file.")
  in
      Cmd.v
      (cmd_info "classify"
       ~doc:"Print the deterministic / non-deterministic load classification.")
    Term.(const run $ target)

(* ---- characterize (functional) ---- *)

let characterize_cmd =
  let run name scale =
    let app = find_app ~cmd:"characterize" name in
    let r =
      match
        Critload.Runner.run ~mode:Critload.Runner.Func ~scale ~check:false app
      with
      | Ok r -> Critload.Runner.Report.func_exn r
      | Error e ->
          Printf.eprintf "characterize: %s\n" (Gsim.Sim_error.to_string e);
          exit EC.sim_error
    in
    let fs = r.Critload.Runner.fr_fs in
    let open Dataflow.Classify in
    Printf.printf "app: %s (%s scale)\n" name
      (Workloads.App.string_of_scale scale);
    Printf.printf "warp instructions: %d (%d launches, %d CTAs)\n"
      fs.Gsim.Funcsim.warp_insts r.Critload.Runner.fr_launches
      r.Critload.Runner.fr_ctas;
    Printf.printf "static loads: %d D, %d N\n" r.Critload.Runner.fr_static_d
      r.Critload.Runner.fr_static_n;
    Printf.printf "dynamic load warps: %d D, %d N (D fraction %.1f%%)\n"
      fs.Gsim.Funcsim.gld_warps.(0)
      fs.Gsim.Funcsim.gld_warps.(1)
      (100.0 *. Gsim.Funcsim.deterministic_fraction fs);
    Printf.printf "requests/active thread: N %.2f vs D %.2f\n"
      (Gsim.Funcsim.requests_per_active_thread fs Nondeterministic)
      (Gsim.Funcsim.requests_per_active_thread fs Deterministic);
    Printf.printf "shared loads per global load: %.2f\n"
      (Gsim.Funcsim.shared_per_global fs);
    Printf.printf "cold miss: %.1f%%, accesses/block: %.1f\n"
      (100.0 *. Gsim.Funcsim.cold_miss_ratio fs)
      (Gsim.Funcsim.avg_accesses_per_block fs);
    let sh = Gsim.Funcsim.sharing fs in
    Printf.printf
      "inter-CTA sharing: %.1f%% blocks, %.1f%% accesses, %.1f CTAs/block\n"
      (100.0 *. sh.Gsim.Funcsim.sh_block_ratio)
      (100.0 *. sh.Gsim.Funcsim.sh_access_ratio)
      sh.Gsim.Funcsim.sh_avg_ctas;
    (* hottest load instructions *)
    let hot =
      Hashtbl.fold (fun k v acc -> (v, k) :: acc) fs.Gsim.Funcsim.gld_warps_by_pc []
      |> List.sort compare |> List.rev
      |> List.filteri (fun i _ -> i < 8)
    in
    Printf.printf "hottest global loads:\n";
    List.iter
      (fun (count, (kernel, pc)) ->
        Printf.printf "  %-14s pc %3d  %8d warp loads\n" kernel pc count)
      hot
  in
      Cmd.v
      (cmd_info "characterize"
       ~doc:"Functional characterization of one application.")
    Term.(const run $ app_arg $ scale_arg)

(* ---- dot (graphviz export) ---- *)

let dot_cmd =
  let run name which =
    let app = find_app ~cmd:"dot" name in
    match Workloads.App.(kernel_launches (app.make Small)) with
    | [] -> prerr_endline "no launch"
    | launch :: _ -> (
        let an = launch.Gsim.Launch.analysis in
        match which with
        | "cfg" -> print_string (Ptx.Cfg.to_dot (Dataflow.Depgraph.cfg an))
        | "deps" -> print_string (Dataflow.Depgraph.to_dot an)
        | other ->
            Printf.eprintf "unknown graph kind %s (cfg|deps)\n" other;
            exit EC.usage)
  in
  let which =
    Arg.(
      value
      & opt string "cfg"
      & info [ "kind" ] ~docv:"KIND" ~doc:"Graph to export: cfg or deps.")
  in
      Cmd.v
      (cmd_info "dot"
       ~doc:
         "Export the first kernel's control-flow or dependence graph as \
          Graphviz dot.")
    Term.(const run $ app_arg $ which)

(* ---- advise ---- *)

let advise_cmd =
  let run name scale =
    let app = find_app ~cmd:"advise" name in
    let advice = Critload.Advisor.advise_app app scale in
    Format.printf
      "per-load hardware advice for %s (class x stride x walk):@.%a" name
      Critload.Advisor.pp_advice advice;
    let n_policies = List.length (Critload.Advisor.policies advice) in
    Printf.printf "%d of %d loads get a policy override\n" n_policies
      (List.length advice)
  in
      Cmd.v
      (cmd_info "advise"
       ~doc:
         "Per-load instruction-aware policy advice (paper Section X.A): \
          prefetch walking non-deterministic loads, split gathers.")
    Term.(const run $ app_arg $ scale_arg)

(* ---- simulate (cycle-level) ---- *)

let simulate_cmd =
  let run name scale cap policy =
    let app = find_app ~cmd:"simulate" name in
    let cfg =
      Gsim.Config.default
      |> Gsim.Config.with_caps ~max_warp_insts:cap ()
      |> Gsim.Config.with_policy policy
    in
    let report =
      match Critload.Runner.run ~cfg ~scale app with
      | Ok r -> r
      | Error e ->
          Printf.eprintf "simulate: %s\n" (Gsim.Sim_error.to_string e);
          exit EC.sim_error
    in
    let s = Critload.Runner.Report.stats_exn report in
    let open Dataflow.Classify in
    Printf.printf "cycles: %d, warp instructions: %d, CTAs completed: %d%s\n"
      s.Gsim.Stats.cycles s.Gsim.Stats.warp_insts s.Gsim.Stats.completed_ctas
      (if s.Gsim.Stats.truncated then "  [truncated]" else "");
    if s.Gsim.Stats.truncated then
      Printf.eprintf
        "simulate: warning: run truncated by an instruction/cycle cap; \
         statistics cover only the simulated prefix\n%!";
    List.iter
      (fun c ->
        Printf.printf
          "%s: req/warp %.2f, req/thread %.2f, turnaround %.0f, L1 miss \
           %.0f%%, L2 miss %.0f%%\n"
          (short_class c)
          (Gsim.Stats.requests_per_warp s c)
          (Gsim.Stats.requests_per_active_thread s c)
          (Gsim.Stats.avg_turnaround s c)
          (100.0 *. Gsim.Stats.l1_miss_ratio s c)
          (100.0 *. Gsim.Stats.l2_miss_ratio s c))
      [ Nondeterministic; Deterministic ];
    let b = Gsim.Stats.l1_cycle_breakdown s in
    Printf.printf
      "L1 cycles: hit %.0f%%, hit-reserved %.0f%%, miss %.0f%%, tag-fail \
       %.0f%%, mshr-fail %.0f%%, icnt-fail %.0f%%\n"
      (100. *. b.(0)) (100. *. b.(1)) (100. *. b.(2)) (100. *. b.(3))
      (100. *. b.(4)) (100. *. b.(5));
    let n_sms = cfg.Gsim.Config.n_sms in
    Printf.printf "unit busy: SP %.1f%%, SFU %.1f%%, LD/ST %.1f%%\n"
      (100. *. Gsim.Stats.unit_busy_fraction s ~n_sms Gsim.Exec.SP)
      (100. *. Gsim.Stats.unit_busy_fraction s ~n_sms Gsim.Exec.SFU)
      (100. *. Gsim.Stats.unit_busy_fraction s ~n_sms Gsim.Exec.LDST)
  in
      Cmd.v
      (cmd_info "simulate" ~doc:"Cycle-level simulation of one application.")
    Term.(const run $ app_arg $ scale_arg $ cap_arg () $ policy_arg)

(* ---- trace (cycle-level observability) ---- *)

let trace_cmd =
  let run name scale cap policy kernel format out =
    let app = find_app ~cmd:"trace" name in
    let cfg =
      Gsim.Config.default
      |> Gsim.Config.with_caps ~max_warp_insts:cap ()
      |> Gsim.Config.with_policy policy
    in
    let with_out f =
      match out with
      | "-" -> f stdout
      | file ->
          let oc = open_out file in
          Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)
    in
    let run_traced ?trace ?profile () =
      match
        Critload.Runner.run ~cfg ~scale ?trace ?trace_kernel:kernel ?profile app
      with
      | Ok r -> r
      | Error e ->
          Printf.eprintf "trace: %s\n" (Gsim.Sim_error.to_string e);
          exit EC.sim_error
    in
    match format with
    | `Summary ->
        let r = run_traced ~profile:true () in
        let s = Critload.Runner.Report.stats_exn r in
        let profile = Option.get r.Critload.Runner.Report.profile in
        with_out (fun oc ->
            Printf.fprintf oc "app: %s  cycles: %d  warp insts: %d%s\n" name
              s.Gsim.Stats.cycles s.Gsim.Stats.warp_insts
              (if s.Gsim.Stats.truncated then "  [truncated]" else "");
            output_string oc (Gsim.Profile.summary_to_string profile))
    | `Jsonl ->
        with_out (fun oc ->
            ignore (run_traced ~trace:(Gsim.Trace.jsonl_sink oc) ()))
    | `Chrome ->
        with_out (fun oc ->
            let trace, close_trace = Gsim.Trace.chrome_sink oc in
            ignore (run_traced ~trace ());
            close_trace ())
  in
  let kernel =
    kernel_arg
      ~doc:
        "Trace only launches of kernel $(docv); other launches still \
         run (cache state flows across them) but emit no events."
  in
  let format =
    format_arg
      ~alts:
        [ ("summary", `Summary); ("jsonl", `Jsonl); ("chrome", `Chrome) ]
      ~default:`Summary
      ~doc:
        "Output format: $(b,summary) (per-category turnaround \
         histograms, reservation-fail attribution, MSHR locality), \
         $(b,jsonl) (one event object per line), or $(b,chrome) \
         (chrome://tracing / Perfetto trace_event JSON)."
  in
  let out = out_arg () in
      Cmd.v
      (cmd_info "trace"
       ~doc:
         "Cycle-simulate one application with event tracing enabled: \
          per-load-category latency histograms and fail attribution \
          (summary), or the raw event stream (jsonl / chrome).")
    Term.(
      const run $ app_arg $ scale_arg $ cap_arg () $ policy_arg $ kernel
      $ format $ out)

(* ---- sweep (parallel, JSON export) ---- *)

(* The job grid [sweep] and [submit] share: apps x policies at one scale
   and cap, in one mode, with the warmup and profile flags.  The term
   yields a thunk, so [submit --health] never validates app names it
   does not use. *)
let grid_term ~cmd =
  let build apps scale cap policies func no_warmup profile () =
    let apps = if apps = [] then suite_names else apps in
    (* validate names up front for a clean error instead of spawning a
       pool that fails one job per bad name *)
    List.iter (fun a -> ignore (find_app ~cmd a)) apps;
    let cfg =
      Gsim.Config.default |> Gsim.Config.with_caps ~max_warp_insts:cap ()
    in
    let module P = Critload.Parsweep in
    P.jobs ~apps ~scales:[ scale ] ~cfgs:(policy_cfgs ~cfg policies)
      ~mode:(if func then P.Func else P.Timing)
      ~warmup:(not no_warmup) ~profile ()
  in
  let apps =
    Arg.(
      value
      & opt (list string) []
      & info [ "apps" ] ~docv:"APPS"
          ~doc:"Comma-separated application names (default: all 15).")
  in
  let func =
    Arg.(
      value & flag
      & info [ "func" ]
          ~doc:"Run the functional simulator instead of the cycle \
                simulator.")
  in
  let no_warmup =
    Arg.(
      value & flag
      & info [ "no-warmup" ]
          ~doc:"Skip the functional fast-forward to the first heavy \
                launch (timing mode).")
  in
  let profile =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Attach the event-trace Profile reducer to every timing job \
             and embed its per-category metrics (turnaround histograms, \
             fail attribution, MSHR locality) in each result.")
  in
  Term.(
    const build $ apps $ scale_arg $ cap_arg () $ policies_arg () $ func
    $ no_warmup $ profile)

let sweep_cmd =
  let module P = Critload.Parsweep in
  let run grid jobs timeout out format no_cache cache_dir =
    let job_list = grid () in
    let total = List.length job_list in
    let finished = ref 0 in
    let tag (j : P.job) =
      Printf.sprintf "%s (%s, %s)" j.P.sj_app
        (Workloads.App.string_of_scale j.P.sj_scale)
        j.P.sj_label
    in
    let on_event = function
      | P.Started (j, attempt) ->
          Printf.eprintf "sweep: start %s%s\n%!" (tag j)
            (if attempt > 0 then " (retry)" else "")
      | P.Finished (j, dt) ->
          incr finished;
          Printf.eprintf "sweep: [%d/%d] %s done in %.1fs\n%!" !finished
            total (tag j) dt
      | P.Retried (j, reason) ->
          Printf.eprintf "sweep: %s crashed (%s), retrying\n%!" (tag j) reason
      | P.Gave_up (j, reason) ->
          incr finished;
          Printf.eprintf "sweep: [%d/%d] %s FAILED: %s\n%!" !finished total
            (tag j) reason
      | P.Cached j ->
          incr finished;
          Printf.eprintf "sweep: [%d/%d] %s cached\n%!" !finished total
            (tag j)
      | P.Cache_damage (j, reason) ->
          Printf.eprintf
            "sweep: warning: damaged cache entry for %s (%s); recomputing\n%!"
            (tag j) reason
    in
    Sys.catch_break true;
    (* SIGTERM gets the same orderly exit as ^C: leave no pool workers
       behind and say where the finished jobs are kept. *)
    let old_term =
      try Some (Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> raise Sys.Break)))
      with Invalid_argument _ | Sys_error _ -> None
    in
    let cache_dir = if no_cache then None else Some cache_dir in
    let outcomes =
      try P.run ~workers:jobs ~timeout ~on_event ?cache_dir job_list
      with Sys.Break ->
        (match cache_dir with
        | None -> Printf.eprintf "sweep: interrupted\n%!"
        | Some dir ->
            Printf.eprintf
              "sweep: interrupted; finished jobs are stored in %s — run the \
               same command again to continue\n%!"
              dir);
        exit EC.interrupted
    in
    Option.iter (fun h -> Sys.set_signal Sys.sigterm h) old_term;
    write_sweep_doc ~cmd:"sweep" ~format ~out job_list outcomes;
    if Array.exists (function P.Failed _ -> true | _ -> false) outcomes
    then exit EC.failure
  in
  let jobs = jobs_arg () in
  let timeout =
    Arg.(
      value & opt float 600.
      & info [ "timeout" ] ~docv:"SECS"
          ~doc:"Per-job wall-clock timeout; an overdue worker is killed \
                and retried once.")
  in
  let out =
    out_arg ~doc:"Output file for the JSON document ('-' for stdout)." ()
  in
  let no_cache =
    Arg.(
      value & flag
      & info [ "no-cache" ]
          ~doc:
            "Bypass the content-addressed result cache entirely: \
             neither read nor write entries, so an interrupted run \
             starts over.")
  in
  let cache_dir =
    Arg.(
      value
      & opt string ".critload-cache"
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:
            "Directory of the content-addressed result cache.  Jobs \
             whose digest — kernels (printed text), launch geometry, \
             dataset seed, full config, mode and simulator tag — \
             matches a stored entry are served from it without \
             re-simulating; completed jobs are stored back as they \
             finish, so an interrupted sweep continues when the same \
             command is run again.")
  in
      Cmd.v
      (cmd_info "sweep"
       ~doc:
         "Run many applications through the simulator in parallel worker \
          processes and export every per-app statistic as JSON.")
    Term.(
      const run $ grid_term ~cmd:"sweep" $ jobs $ timeout $ out
      $ sweep_format_arg $ no_cache $ cache_dir)

(* ---- serve (long-running sweep daemon) ---- *)

let socket_arg =
  Arg.(
    value
    & opt string ".critload.sock"
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path of the sweep daemon.")

let serve_cmd =
  let module S = Critload.Server in
  let module Json = Gsim.Stats_io.Json in
  let run socket workers timeout queue_limit no_cache cache_dir chaos_every
      quiet =
    let log =
      if quiet then None
      else Some (fun msg -> Printf.eprintf "serve: %s\n%!" msg)
    in
    let cfg =
      {
        (S.default_config ~socket_path:socket) with
        S.workers = max 1 workers;
        job_timeout = timeout;
        queue_limit;
        cache_dir = (if no_cache then None else Some cache_dir);
        chaos =
          (if chaos_every > 0 then Some { S.kill_every = chaos_every }
           else None);
        log;
      }
    in
    match S.run cfg with
    | Ok health ->
        (* final tally on stdout so operators can scrape it *)
        Json.to_channel stdout (Critload.Protocol.health_to_json health);
        print_newline ()
    | Error msg ->
        Printf.eprintf "serve: %s\n" msg;
        exit EC.unavailable
  in
  let workers = jobs_arg () in
  let timeout =
    Arg.(
      value & opt float 600.
      & info [ "timeout" ] ~docv:"SECS"
          ~doc:
            "Per-request wall-clock deadline; an overdue worker is \
             killed and the client receives a timeout response.")
  in
  let queue_limit =
    Arg.(
      value & opt int 64
      & info [ "queue-limit" ] ~docv:"N"
          ~doc:
            "Bound on queued (accepted, not yet dispatched) jobs; \
             submissions beyond it are rejected with a retry-after \
             hint.")
  in
  let no_cache =
    Arg.(
      value & flag
      & info [ "no-cache" ]
          ~doc:"Serve without the content-addressed result cache.")
  in
  let cache_dir =
    Arg.(
      value
      & opt string ".critload-cache"
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:
            "Directory of the content-addressed result cache shared \
             with `critload sweep`.")
  in
  let chaos_every =
    Arg.(
      value & opt int 0
      & info [ "chaos-kill-every" ] ~docv:"N"
          ~doc:
            "Fault injection for testing: each worker kills itself on \
             every $(docv)-th first-attempt job (0 = off).  Results \
             are unchanged — crashes are retried.")
  in
  let quiet =
    Arg.(
      value & flag
      & info [ "quiet" ] ~doc:"Suppress the event log on stderr.")
  in
      Cmd.v
      (cmd_info "serve"
       ~doc:
         "Run the sweep daemon: accept jobs over a Unix-domain socket, \
          execute them on a supervised worker pool (crash retry, \
          exponential-backoff restart, per-request deadlines, bounded \
          queue), and drain gracefully on SIGTERM.")
    Term.(
      const run $ socket_arg $ workers $ timeout $ queue_limit $ no_cache
      $ cache_dir $ chaos_every $ quiet)

(* ---- submit (client of a running daemon) ---- *)

let submit_cmd =
  let module P = Critload.Parsweep in
  let module Pr = Critload.Protocol in
  let module Json = Gsim.Stats_io.Json in
  let module F = Gsim.Stats_io.Framing in
  let run socket grid out format retries wait health_only =
    let fd =
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match Unix.connect fd (Unix.ADDR_UNIX socket) with
      | () -> fd
      | exception Unix.Unix_error (e, _, _) ->
          Printf.eprintf "submit: cannot reach a daemon at %s: %s\n" socket
            (Unix.error_message e);
          exit EC.unavailable
    in
    let send req =
      let b = Bytes.of_string (F.frame (Pr.request_to_json req)) in
      let n = Bytes.length b in
      let off = ref 0 in
      try
        while !off < n do
          off := !off + Unix.write fd b !off (n - !off)
        done
      with Unix.Unix_error ((EPIPE | ECONNRESET), _, _) ->
        Printf.eprintf "submit: daemon closed the connection\n";
        exit EC.unavailable
    in
    let split = F.Splitter.create () in
    let buf = Bytes.create 65536 in
    let rec next_line () =
      match F.Splitter.pop split with
      | Some l -> l
      | None -> (
          let ready, _, _ = Unix.select [ fd ] [] [] wait in
          if ready = [] then begin
            Printf.eprintf
              "submit: no response from the daemon for %.0fs; giving up\n"
              wait;
            exit EC.timeout
          end;
          match Unix.read fd buf 0 (Bytes.length buf) with
          | 0 ->
              Printf.eprintf "submit: daemon closed the connection\n";
              exit EC.unavailable
          | n ->
              F.Splitter.feed split (Bytes.sub_string buf 0 n);
              next_line ()
          | exception Unix.Unix_error (ECONNRESET, _, _) ->
              Printf.eprintf "submit: daemon closed the connection\n";
              exit EC.unavailable)
    in
    let next_response () =
      let line = next_line () in
      match Pr.response_of_json (Json.of_string line) with
      | Ok r -> r
      | Error msg | (exception Json.Parse_error msg) ->
          Printf.eprintf "submit: unintelligible response: %s\n" msg;
          exit EC.failure
    in
    if health_only then begin
      send Pr.Health;
      match next_response () with
      | Pr.Health_report h ->
          Json.to_channel stdout (Pr.health_to_json h);
          print_newline ()
      | _ ->
          Printf.eprintf "submit: unexpected response to the health probe\n";
          exit EC.failure
    end
    else begin
      let job_list = grid () in
      let jobs_a = Array.of_list job_list in
      let n = Array.length jobs_a in
      let outcomes = Array.make n None in
      let rejections = Array.make n 0 in
      let remaining = ref n in
      let any_timeout = ref false in
      let any_failed = ref false in
      let submit i =
        send (Pr.Submit { id = string_of_int i; job = jobs_a.(i) })
      in
      Array.iteri (fun i _ -> submit i) jobs_a;
      let settle i o =
        (* first verdict wins; a duplicate line would be a server bug *)
        if i >= 0 && i < n && outcomes.(i) = None then begin
          outcomes.(i) <- Some o;
          decr remaining
        end
      in
      while !remaining > 0 do
        match next_response () with
        | Pr.Result { id; payload } -> (
            match int_of_string_opt id with
            | Some i -> settle i (P.Completed payload)
            | None -> ())
        | Pr.Job_failed { id; message } -> (
            any_failed := true;
            match int_of_string_opt id with
            | Some i -> settle i (P.Failed message)
            | None -> ())
        | Pr.Job_timeout { id; after } -> (
            any_timeout := true;
            Printf.eprintf "submit: job %s timed out after %.0fs\n%!" id
              after;
            match int_of_string_opt id with
            | Some i ->
                settle i
                  (P.Failed (Printf.sprintf "timeout after %.0fs" after))
            | None -> ())
        | Pr.Rejected { id; reason; retry_after } -> (
            match int_of_string_opt id with
            | None -> ()
            | Some i ->
                rejections.(i) <- rejections.(i) + 1;
                if rejections.(i) > retries then begin
                  any_failed := true;
                  settle i
                    (P.Failed
                       (Printf.sprintf "rejected: %s"
                          (Pr.reject_reason_to_string reason)))
                end
                else begin
                  Unix.sleepf retry_after;
                  submit i
                end)
        | Pr.Error_response { message } ->
            Printf.eprintf "submit: daemon error: %s\n" message;
            exit EC.failure
        | Pr.Health_report _ | Pr.Pong -> ()
      done;
      Unix.close fd;
      let outcomes =
        Array.map
          (function Some o -> o | None -> P.Failed "no response")
          outcomes
      in
      write_sweep_doc ~cmd:"submit" ~format ~out job_list outcomes;
      if !any_timeout then exit EC.timeout
      else if !any_failed then exit EC.failure
    end
  in
  let out =
    out_arg ~doc:"Output file for the JSON document ('-' for stdout)." ()
  in
  let retries =
    Arg.(
      value & opt int 25
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "How many backpressure rejections to absorb per job \
             (sleeping the server's retry-after hint between attempts) \
             before reporting it failed.")
  in
  let wait =
    Arg.(
      value & opt float 600.
      & info [ "wait" ] ~docv:"SECS"
          ~doc:
            "Give up (exit 4) if the daemon sends nothing at all for \
             $(docv) seconds.")
  in
  let health_only =
    Arg.(
      value & flag
      & info [ "health" ]
          ~doc:
            "Do not submit jobs; print the daemon's health counters as \
             JSON and exit.")
  in
      Cmd.v
      (cmd_info "submit"
       ~doc:
         "Submit sweep jobs to a running `critload serve` daemon and \
          write the same JSON document `critload sweep` would.")
    Term.(
      const run $ socket_arg $ grid_term ~cmd:"submit" $ out
      $ sweep_format_arg $ retries $ wait $ health_only)

(* ---- experiment (the paper's tables and figures) ---- *)

let experiment_cmd =
  let module E = Critload.Experiments in
  let run ids scale cap jobs policies out_dir =
    let write file emit =
      Option.iter
        (fun dir ->
          let oc = open_out (Filename.concat dir file) in
          emit oc;
          close_out oc)
        out_dir
    in
    (* one policy sweep feeds both the table and its JSON record *)
    let policies () =
      let policies =
        match policies with [] -> Gsim.Config.named_policies | ps -> ps
      in
      let rows = E.policy_sweep ~policies ~workers:jobs scale in
      write "policies.json" (fun oc ->
          Gsim.Stats_io.Json.to_channel oc (E.policy_rows_to_json scale rows);
          output_char oc '\n');
      E.render_policy_rows rows
    in
    let table =
      List.map (fun (id, render) -> (id, fun () -> render scale)) E.all
    in
    let ids = match ids with [] | [ "all" ] -> List.map fst table | l -> l in
    (* every id is checked before any experiment runs *)
    let runs =
      List.map
        (fun id ->
          match List.assoc_opt id (("policies", policies) :: table) with
          | Some f -> (id, f)
          | None ->
              Printf.eprintf
                "experiment: unknown experiment %s (have: %s, policies)\n" id
                (String.concat ", " (List.map fst table));
              exit EC.usage)
        ids
    in
    Option.iter
      (fun dir ->
        if not (Sys.file_exists dir) then
          try Sys.mkdir dir 0o755
          with Sys_error msg ->
            Printf.eprintf "experiment: cannot create --out-dir: %s\n" msg;
            exit EC.usage)
      out_dir;
    E.set_timing_cap cap;
    List.iter
      (fun (id, f) ->
        let t0 = Unix.gettimeofday () in
        let text = f () in
        Printf.printf "=== %s (%.1fs) ===\n%s\n%!" id
          (Unix.gettimeofday () -. t0)
          text;
        write (id ^ ".txt") (fun oc -> output_string oc text))
      runs
  in
  let ids =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"ID"
          ~doc:
            "Experiments to run: table1..table3, fig1..fig12, the \
             ablate-* ablations, sensitivity, or $(b,policies) (every \
             app under each $(b,--policy)).  None, or $(b,all), runs \
             every id except $(b,policies).")
  in
  let out_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "out-dir" ] ~docv:"DIR"
          ~doc:
            "Also write each experiment to $(docv)/ID.txt, and the \
             policy rows to $(docv)/policies.json.")
  in
  Cmd.v
    (cmd_info "experiment"
       ~doc:"Regenerate the paper's tables, figures and ablations.")
    Term.(
      const run $ ids $ scale_arg
      $ cap_arg ~default:120_000 ()
      $ jobs_arg ()
      $ policies_arg ~default_doc:"baseline, iar and holistic" ()
      $ out_dir)

let () =
  let doc =
    "critical-load classification and GPU memory-system characterization"
  in
  exit
    (Cmd.eval
       (Cmd.group (cmd_info "critload" ~doc)
          [ list_cmd; verify_cmd; classify_cmd; characterize_cmd;
            advise_cmd; dot_cmd; simulate_cmd; trace_cmd; sweep_cmd;
            serve_cmd; submit_cmd; experiment_cmd ]))
