(* Drives an application (a sequence of kernel launches) through the
   functional or cycle simulator, accumulating statistics across the
   launches and collecting the static load classification of each
   distinct kernel.

   The unified entry point is [run], which returns a [Report.t] for
   either simulation mode; [run_func] and [run_timing] below are the
   mode-specific machinery it drives, private to this module. *)

type mode = Func | Timing

let mode_name = function Func -> "func" | Timing -> "timing"
let modes = [ Func; Timing ]

type func_result = {
  fr_fs : Gsim.Funcsim.t;
  fr_launches : int;
  fr_ctas : int; (* total CTAs across launches *)
  fr_threads_per_cta : int; (* of the first launch *)
  fr_static_d : int; (* static deterministic global-load instructions *)
  fr_static_n : int;
  fr_check : bool;
}

(* Accumulate static per-kernel classification over distinct kernels. *)
let static_counts seen (launch : Gsim.Launch.t) =
  let name = launch.Gsim.Launch.kernel.Ptx.Kernel.kname in
  if Hashtbl.mem seen name then (0, 0)
  else begin
    Hashtbl.add seen name ();
    Dataflow.Classify.count_global launch.Gsim.Launch.classes
  end

let run_func ?(cfg = Gsim.Config.default) ?(max_warp_insts = 0)
    ?(check = true) (app : Workloads.App.t) scale =
  let run = app.Workloads.App.make scale in
  let fs = Gsim.Funcsim.create cfg in
  let seen = Hashtbl.create 8 in
  let launches = ref 0 in
  let ctas = ref 0 in
  let threads_per_cta = ref 0 in
  let d = ref 0 and n = ref 0 in
  Workloads.App.iter_launches run (fun launch ->
      incr launches;
      ctas := !ctas + Gsim.Launch.n_ctas launch;
      if !threads_per_cta = 0 then
        threads_per_cta := Gsim.Launch.threads_per_cta launch;
      let sd, sn = static_counts seen launch in
      d := !d + sd;
      n := !n + sn;
      Gsim.Funcsim.run_into fs ~max_warp_insts launch;
      not fs.Gsim.Funcsim.capped);
  {
    fr_fs = fs;
    fr_launches = !launches;
    fr_ctas = !ctas;
    fr_threads_per_cta = !threads_per_cta;
    fr_static_d = !d;
    fr_static_n = !n;
    fr_check =
      (if check && not fs.Gsim.Funcsim.capped then run.Workloads.App.check ()
       else true);
  }

(* Iterative applications (bfs, sssp, ...) spend their first launches
   on tiny frontiers; measuring only those would mischaracterize the
   steady state the paper reports.  A functional pre-pass counts each
   launch's coalesced global-load requests, modelling no cache, and
   finds the first launch carrying substantial traffic (>= 25% of the
   busiest launch).  It walks [run] to its end, executing every
   launch. *)
let first_heavy_launch cfg (run : Workloads.App.run) =
  let per_launch = ref [] in
  Workloads.App.iter_launches run (fun launch ->
      per_launch := Gsim.Funcsim.count_requests cfg launch :: !per_launch;
      true);
  (* traffic metric: non-deterministic requests when the app has any
     (the bursty side the paper characterizes), else all requests *)
  let deltas = Array.of_list (List.rev !per_launch) in
  let has_n = Array.exists (fun (_, n) -> n > 0) deltas in
  let counts =
    Array.map (fun (d, n) -> if has_n then n else d + n) deltas
  in
  let peak = Array.fold_left max 1 counts in
  let rec first i =
    if i >= Array.length counts then 0
    else if counts.(i) * 4 >= peak then i
    else first (i + 1)
  in
  first 0

let warmup_launches ?(cfg = Gsim.Config.default) (app : Workloads.App.t) scale
    =
  first_heavy_launch cfg (app.Workloads.App.make scale)

(* The timing run's statistics and the number of launches it pulled.
   One dataset serves both walks: the fresh image's touched prefix is
   copied before the pre-pass, and afterwards the image is put back and
   the host program started again (see [App.host]).  The timing walk
   executes the launches before the first heavy one functionally, so
   simulation resumes from exactly the memory image they leave, and
   cycle-simulates from there. *)
let run_timing ?(cfg = Gsim.Config.default) ?(warmup = true) ?trace
    ?trace_kernel ?(fast_forward = false) (app : Workloads.App.t) scale =
  let run = app.Workloads.App.make scale in
  let skip =
    if warmup then begin
      let global = run.Workloads.App.global in
      let fresh = Gsim.Mem.copy_image global in
      let skip = first_heavy_launch cfg run in
      Gsim.Mem.restore_image global fresh;
      run.Workloads.App.restart ();
      skip
    end
    else 0
  in
  let machine = Gsim.Gpu.create_machine ~cfg ?trace () in
  let stats = machine.Gsim.Gpu.stats in
  let trace = machine.Gsim.Gpu.trace in
  let launches = ref 0 in
  Workloads.App.iter_launches run (fun launch ->
      incr launches;
      if !launches <= skip then begin
        Gsim.Funcsim.execute cfg launch;
        true
      end
      else
        (* --kernel filtering: mute the shared trace for launches of
           other kernels instead of rebuilding the machine, so cache
           state still flows across kernel boundaries *)
        let muted =
          match trace_kernel with
          | Some k -> k <> launch.Gsim.Launch.kernel.Ptx.Kernel.kname
          | None -> false
        in
        if muted then
          Gsim.Trace.with_muted trace (fun () ->
              Gsim.Gpu.run_launch machine ~fast_forward launch)
        else Gsim.Gpu.run_launch machine ~fast_forward launch);
  (stats, !launches)

(* Result-returning wrappers: every failure mode a malformed kernel or
   a simulator bug can produce — static verification, unbound
   parameters, memory faults, watchdog stalls — arrives as one typed
   [Sim_error.t] instead of an exception escaping to the caller.
   Kernel construction errors are folded into the same type so callers
   have a single error channel. *)

let catching f =
  try Ok (f ()) with
  | Gsim.Sim_error.Error e -> Error e
  | Ptx.Kernel.Invalid msg ->
      Error (Gsim.Sim_error.make Gsim.Sim_error.Invalid_kernel "%s" msg)

(* The unified report: one result shape for both simulation modes, so
   callers (CLI subcommands, the sweep runner, benches) branch on the
   mode they asked for instead of juggling two entry points with
   different record types. *)
module Report = struct
  type t = {
    cfg : Gsim.Config.t;
    launches : int;
    stats : Gsim.Stats.t option;  (* Timing *)
    func : func_result option;  (* Func *)
    profile : Gsim.Profile.t option;  (* Timing with ~profile:true *)
    truncated : bool;
  }

  let stats_exn t =
    match t.stats with
    | Some s -> s
    | None -> invalid_arg "Runner.Report.stats_exn: functional report"

  let func_exn t =
    match t.func with
    | Some f -> f
    | None -> invalid_arg "Runner.Report.func_exn: timing report"
end

(* A trace handle that feeds two sinks.  Used to tee the event stream
   into a profile reducer while still honouring a caller's own trace;
   [Trace.with_muted] on the machine handle mutes both together, which
   is exactly what --kernel filtering wants. *)
let tee_trace a b =
  Gsim.Trace.stream (fun ev ->
      Gsim.Trace.emit a ev;
      Gsim.Trace.emit b ev)

let run ?(cfg = Gsim.Config.default) ?(mode = Timing)
    ?(scale = Workloads.App.Default) ?(warmup = true) ?(check = true)
    ?(func_cap = 0) ?trace ?trace_kernel ?(profile = false)
    ?(fast_forward = true) (app : Workloads.App.t) =
  catching (fun () ->
      Result.iter_error
        (Gsim.Sim_error.error Gsim.Sim_error.Invalid_config "%s")
        (Gsim.Config.check cfg);
      match mode with
      | Func ->
          (* Functional runs ignore the config's instruction cap (the
             cap is a property of the cycle simulation); [func_cap]
             (0 = uncapped) bounds exploratory runs, at the price of
             skipping host-reference verification when it fires. *)
          let r = run_func ~cfg ~max_warp_insts:func_cap ~check app scale in
          {
            Report.cfg;
            launches = r.fr_launches;
            stats = None;
            func = Some r;
            profile = None;
            truncated = r.fr_fs.Gsim.Funcsim.capped;
          }
      | Timing ->
          let prof = if profile then Some (Gsim.Profile.create ()) else None in
          let trace =
            match (prof, trace) with
            | None, t -> t
            | Some p, None -> Some (Gsim.Profile.sink p)
            | Some p, Some user -> Some (tee_trace (Gsim.Profile.sink p) user)
          in
          let stats, launches =
            run_timing ~cfg ~warmup ?trace ?trace_kernel ~fast_forward app
              scale
          in
          {
            Report.cfg;
            launches;
            stats = Some stats;
            func = None;
            profile = prof;
            truncated = stats.Gsim.Stats.truncated;
          })
