(** Per-SM interpreter for the memory-system policy selected in
    {!Config.t.policy}.

    [Sm] consults this module at five points of the load path — load
    issue ({!decide}), coalescer routing (the [d_buffer] flag), cache
    probe outcome ({!on_outcome}), warp-issue gating
    ({!allowed_ctas}), and launch reconfiguration ({!reconfigure}) —
    and otherwise runs the stock pipeline.  Under {!Config.Baseline}
    every hook is a constant-time no-op returning the neutral answer,
    which is what keeps the default run byte-identical to the
    perf-lock goldens.

    To add a policy: extend {!Config.policy}, give it a state arm
    here, answer {!decide} (and whichever of the optional hooks it
    needs), and give it a JSON arm in [Stats_io]'s policy codec.  The
    config digest is the MD5 of that JSON, so sweep-cache keys then
    distinguish its runs with no second rendering. *)

type cls = Dataflow.Classify.load_class

(** What the policy wants for one global load instruction. *)
type decision = {
  d_flags : Config.load_policy;
      (** static split/prefetch/bypass flags (the X.A mechanisms) *)
  d_protect : bool;
      (** pin the L1 line this load touches (eviction second-chance) *)
  d_buffer : bool;
      (** route the load through the IAR reorder buffer instead of
          the in-order LD/ST queue *)
}

val no_decision : decision
(** Neutral answer: stock flags, no protection, no buffering. *)

type t

val create : Config.t -> t
(** Fresh per-SM state for the config's policy. *)

val reconfigure : t -> warp_slots:int -> warps_per_cta:int -> unit
(** Called at each launch boundary (no CTAs resident): resets the
    throttle to fully open for the new occupancy and clears windowed
    counters.  Streaming-pc verdicts persist across launches, like the
    caches themselves. *)

val decide : t -> kernel:string -> pc:int -> cls -> decision
(** Policy decision for the global load at [(kernel, pc)]. *)

val on_outcome : t -> kernel:string -> pc:int -> cls -> Cache.outcome -> unit
(** Feed one L1 probe outcome back to the policy (streaming detection
    and the reservation-fail throttle window).  Call once per demand
    probe attempt, mirroring the {!Stats} accounting. *)

val allowed_ctas : t -> int
(** CTA-granular warp-throttle level: only warps of the [allowed_ctas]
    lowest-based resident CTAs may issue this cycle ([max_int] when
    the policy does not throttle).  CTA granularity keeps barriers
    whole — a throttled CTA is throttled as a unit. *)

val throttle_steps : t -> int
(** Times the throttle tightened (observability and tests). *)

(** {1 IAR reorder buffer}

    Holds individual line requests of buffered loads; [Sm] issues at
    most one line batch per cycle, probing the L1 once for the whole
    batch and attaching the secondaries to the primary's MSHR entry.
    All hooks are no-ops / empty under non-IAR policies.

    Costs, for a buffer of [n] entries on [l] distinct lines:
    {!iar_room}, {!iar_pending} and {!iar_defer} are O(1); {!iar_add}
    is O(l); {!iar_select} is O(1), plus one O(l) recount on the first
    call after an add or a remove; {!iar_batch} and {!iar_remove_line}
    are O(n).  Only {!iar_batch} allocates (its result list). *)

type iar_entry = {
  ie_line : int;  (** cache-line address *)
  ie_born : int;  (** cycle the entry was buffered *)
  ie_wl : Request.warp_load option;
  ie_kind : Request.kind;
  ie_cls : cls;
  ie_cta : int;
}

val iar_room : t -> n:int -> bool
(** Can [n] more line entries be buffered?  [false] under non-IAR
    policies (callers then use the in-order queue). *)

val iar_add : t -> iar_entry -> unit
(** Buffer one line entry.  Call only after {!iar_room}: an add to a
    full buffer raises {!Sim_error.Error} with kind [Internal].
    Precondition: [e.ie_born] is no smaller than that of any entry
    already buffered ([Sm] stamps entries with its current cycle), so
    the oldest entry is the first to age — {!iar_select} reads only
    that one. *)

val iar_pending : t -> int
(** Buffered line entries (0 under non-IAR policies). *)

val iar_select : t -> now:int -> fifo_nonempty:bool -> int option
(** The line the buffer wants to issue this cycle, or [None] to let
    the in-order queue go.  A formed batch (two or more entries on
    one line) issues immediately — harvesting the combining is the
    unit's purpose; next come aged singles (waited [iar_max_wait]+);
    otherwise the queue drains first and the buffer only issues when
    the queue is idle (most buffered entries, oldest first on ties).
    Quiet (constant [None]) during the post-failure backoff window
    set by {!iar_defer}. *)

val iar_defer : t -> now:int -> unit
(** A buffered probe just failed: the exhausted resource will not
    free for several cycles, so the unit goes quiet for a fixed
    backoff window instead of burning the L1 port on retries. *)

val iar_batch : t -> line:int -> iar_entry list
(** All buffered entries for [line], oldest first, without removing
    them (the probe may fail and retry later). *)

val iar_remove_line : t -> line:int -> unit
(** Drop every entry for [line] after a successful probe. *)
