(** Drives an application (a sequence of kernel launches) through the
    functional or cycle simulator, accumulating statistics across
    launches and collecting each kernel's static load classification.

    {!run} is the sole entry point: it selects the simulation {!mode},
    returns a unified {!Report.t}, and folds every failure mode into a
    [result]. *)

(** Which simulator executes the application: [Func] interprets kernels
    directly against global memory (fast, no timing); [Timing] runs the
    cycle-level GPU model and produces a {!Gsim.Stats.t}. *)
type mode = Func | Timing

val mode_name : mode -> string
(** ["func"] / ["timing"] — the sweep JSON / cache spelling. *)

val modes : mode list
(** Both modes; a mode decoder is {!mode_name}'s inverse over it. *)

type func_result = {
  fr_fs : Gsim.Funcsim.t;
  fr_launches : int;
  fr_ctas : int;  (** total CTAs across launches *)
  fr_threads_per_cta : int;  (** of the first launch *)
  fr_static_d : int;  (** static deterministic global-load instructions *)
  fr_static_n : int;
  fr_check : bool;  (** host-reference verification (when requested) *)
}

(** One result shape for both simulation modes. *)
module Report : sig
  type t = {
    cfg : Gsim.Config.t;
    launches : int;
    stats : Gsim.Stats.t option;  (** [Some] iff [mode = Timing] *)
    func : func_result option;  (** [Some] iff [mode = Func] *)
    profile : Gsim.Profile.t option;
        (** [Some] iff [mode = Timing] and profiling was requested *)
    truncated : bool;  (** a cycle / instruction cap cut the run short *)
  }

  val stats_exn : t -> Gsim.Stats.t
  (** @raise Invalid_argument on a functional report. *)

  val func_exn : t -> func_result
  (** @raise Invalid_argument on a timing report. *)
end

val run :
  ?cfg:Gsim.Config.t ->
  ?mode:mode ->
  ?scale:Workloads.App.scale ->
  ?warmup:bool ->
  ?check:bool ->
  ?func_cap:int ->
  ?trace:Gsim.Trace.t ->
  ?trace_kernel:string ->
  ?profile:bool ->
  ?fast_forward:bool ->
  Workloads.App.t ->
  (Report.t, Gsim.Sim_error.t) result
(** Run [app] through the selected simulator (default [Timing], scale
    [Default]).

    Timing mode: with [warmup] (default true) the run fast-forwards
    functionally to the first heavy launch — the memory image is
    shared, so simulation resumes exactly there — and cycle-simulates
    from that point until the configured caps.  [trace] (default null)
    receives memory-system events and [trace_kernel] mutes it for
    launches of every other kernel; [profile] (default false)
    additionally folds the event stream into a {!Gsim.Profile.t}
    returned in the report (teeing with [trace] when both are given).
    [fast_forward] (default true) lets the cycle loop jump over
    quiescent windows — statistics and traces are identical to the
    naive loop by construction (see DESIGN.md), so it is on by default.

    Func mode: the computation is interpreted without timing —
    [cfg.max_warp_insts] is a property of the cycle simulation; the
    separate [func_cap] (default 0 = uncapped) bounds the interpreted
    warp instructions for exploratory runs.  [check] (default true)
    verifies the result against the host reference, skipped when a cap
    cut the run short (verification must observe the complete
    computation).

    Every failure mode — a config {!Gsim.Config.check} rejects (before
    anything is built), static verification, unbound parameters,
    memory faults, watchdog stalls, kernel construction errors —
    arrives as a structured {!Gsim.Sim_error.t} instead of an
    exception. *)

val warmup_launches :
  ?cfg:Gsim.Config.t -> Workloads.App.t -> Workloads.App.scale -> int
(** Index of the first launch carrying substantial global-load traffic
    (>= 25% of the busiest launch's), found by a functional pre-pass
    that counts each launch's coalesced requests
    ({!Gsim.Funcsim.count_requests}) and models no cache.  Iterative
    apps (bfs, sssp, ...) spend their first launches on tiny frontiers;
    measuring only those would mischaracterize the steady state the
    paper reports.  It builds the app's dataset ([make]) for its own
    walk; a timing run walks its one dataset twice instead. *)
