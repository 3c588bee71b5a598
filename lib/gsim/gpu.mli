(** Top-level cycle simulator: SMs + interconnect + memory partitions,
    plus the per-launch CTA work distributor.

    The machine persists across the kernel launches of one application,
    so L1/L2 contents survive kernel boundaries as on hardware; only
    the warp slots are reconfigured per launch. *)

type t = {
  cfg : Config.t;
  stats : Stats.t;
  trace : Trace.t;
  icnt : Icnt.t;
  parts : L2part.t array;
  sms : Sm.t array;
  mutable cycle : int;
}

val create_machine : ?cfg:Config.t -> ?trace:Trace.t -> unit -> t
(** [?trace] defaults to a null sink shared by every SM, the
    interconnect, and every memory partition; when enabled, per-SM
    MSHR / LD-ST queue occupancy is additionally sampled every 256th
    cycle. *)

val run_launch : t -> ?fast_forward:bool -> Launch.t -> bool
(** Run one kernel launch to completion (or to the instruction/cycle
    caps), keeping cache state from prior launches.  Returns false when
    a cap stopped the launch early — also recorded as
    [stats.truncated].

    With [fast_forward] (default false), cycles in which every
    component reports quiescent (see {!Sm.next_wake},
    {!Icnt.next_wake}, {!L2part.next_wake}) are jumped in one step to
    the earliest next-wake horizon — capped at the watchdog deadline,
    the cycle cap, and (when tracing) the next sparse occupancy sample
    — with the skipped unit-occupancy samples restored in batch.
    Fast-forwarded runs are byte-identical in [Stats.t] and trace
    stream to the naive loop; the equivalence suite cross-checks every
    app in both modes.
    @raise Sim_error.Error on barrier deadlock or livelock (the stall
    watchdog), with kernel / warp / cycle context. *)

val run :
  ?cfg:Config.t -> ?trace:Trace.t -> ?fast_forward:bool -> Launch.t -> t
(** One launch on a fresh machine. *)

