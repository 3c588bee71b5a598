(** Cycle-level event tracing: zero-cost-when-disabled emission of the
    memory-system transitions the paper's figures are built from.

    Components of the timing simulator share one {!t} and [emit] typed
    events at each transition, every cache load probe through
    {!probe}.  One of two sinks decides what happens: nothing (null),
    or a callback per event (JSONL writer, Chrome [trace_event]
    writer, {!Profile} reducer, a test collecting a list).  Emission
    sites guard event construction behind {!enabled}, so untraced runs
    allocate nothing and produce a {!Stats.t} byte-identical to a
    build without tracing. *)

type cls = Dataflow.Classify.load_class

(** Which cache observed an access: an SM's L1 or a partition's L2. *)
type side = S_l1 of int | S_l2 of int

type dir = Dir_req | Dir_resp

(** What probed the cache: a classified load, a store, or a next-line
    prefetch (prefetch probes are not Fig 3 probes and are not recorded
    in {!Stats}, so they are tagged distinctly to keep trace-derived
    counts reconcilable). *)
type acc_src = A_load of cls | A_store | A_prefetch

type event =
  | Ev_load_issue of {
      cycle : int;
      sm : int;
      cta : int;
      warp_slot : int;
      kernel : string;
      pc : int;
      cls : cls;
      active : int;
      nreq : int;  (** coalesced line requests the load fans out into *)
    }  (** A warp-level global load entered the LD/ST queue (Fig 6). *)
  | Ev_load_return of {
      cycle : int;
      sm : int;
      cta : int;
      kernel : string;
      pc : int;
      cls : cls;
      nreq : int;
      turnaround : int;  (** issue-to-last-return, the Fig 5 metric *)
      level : Request.level;  (** deepest level that serviced it *)
    }  (** The last outstanding request of a warp-level load returned. *)
  | Ev_access of {
      cycle : int;
      where : side;
      line : int;
      src : acc_src;
      outcome : Cache.outcome;
    }  (** One cache probe cycle, incl. reservation failures (Fig 3). *)
  | Ev_mshr_alloc of { cycle : int; where : side; line : int; cta : int }
  | Ev_mshr_merge of {
      cycle : int;
      where : side;
      line : int;
      cta : int;  (** requesting CTA *)
      owner_cta : int;  (** CTA that allocated the in-flight entry *)
    }  (** Merge into an in-flight line — Figs 8-9 locality evidence. *)
  | Ev_mshr_free of { cycle : int; where : side; line : int; waiters : int }
  | Ev_icnt_enq of { cycle : int; dir : dir; sm : int; part : int; line : int }
  | Ev_icnt_deq of { cycle : int; dir : dir; sm : int; part : int; line : int }
  | Ev_dram_enq of { cycle : int; part : int; line : int; write : bool }
  | Ev_dram_deq of { cycle : int; part : int; line : int }
  | Ev_occupancy of { cycle : int; sm : int; mshr : int; ldst_q : int }
      (** Periodic per-SM MSHR / LD-ST queue occupancy sample. *)

type sink = Null | Stream of (event -> unit)

type t = { mutable sink : sink }

val null : unit -> t
(** The production default: every emission is dropped. *)

val stream : (event -> unit) -> t

val enabled : t -> bool
(** False only for the null sink — emission sites check this before
    constructing an event, making disabled tracing allocation-free. *)

val emit : t -> event -> unit

val probe :
  t ->
  Cache.t ->
  cycle:int ->
  where:side ->
  line:int ->
  src:acc_src ->
  cta:int ->
  Cache.outcome ->
  unit
(** Record one load probe of the cache: the [Ev_access], then a miss's
    [Ev_mshr_alloc] (for [cta]) or a hit-reserved's [Ev_mshr_merge],
    whose owner is the in-flight entry's allocating CTA.  Call it right
    after {!Cache.access_load}; stores reserve no MSHR and emit a bare
    [Ev_access] instead. *)

val with_muted : t -> (unit -> 'a) -> 'a
(** Run [f] with the sink swapped to [Null] (kernel filtering). *)

(** {1 JSON encoding} *)

val event_to_json : event -> Stats_io.Json.t

val event_of_json : Stats_io.Json.t -> event
(** Inverse of {!event_to_json}.
    @raise Stats_io.Json.Parse_error on schema mismatch. *)

val jsonl_sink : out_channel -> t
(** One JSON object per line, parseable by {!Stats_io.Json}. *)

val chrome_sink : out_channel -> t * (unit -> unit)
(** Chrome [trace_event] JSON array for chrome://tracing / Perfetto;
    cycles are written as microseconds, warp-load lifetimes as complete
    ("X") spans, occupancy samples as counter ("C") tracks.  The
    returned closer terminates the array (it does not close the
    channel). *)
