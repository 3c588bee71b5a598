(** A supervised pool of persistent forked worker processes — the one
    place in the code base that forks.

    Each worker loops on its task pipe: it reads one framed JSON task
    line, runs the pool's handler on it, and writes one envelope line
    back ([{"status": "ok", "result": ...}] or
    [{"status": "error", "message": ...}]).  Closing the task pipe
    (EOF) tells it to exit.

    The parent drives the pool from its own [Unix.select] loop through
    {!wait}, and each assignment ends in exactly one {!verdict},
    reported through the [on_verdict] callback given to {!create}.  The
    pool knows nothing about what a task means, who asked for it, or
    whether a lost task is worth retrying: {!Parsweep.run} and
    {!Server.run} are its two drivers and own those decisions.

    Each worker slot is a small state machine:
    {v
            assign                      envelope
   Idle ───────────────► Busy ───────────────────► Idle
    ▲                     │ EOF/garbage         (streak := 0)
    │ backoff expired     ▼
   Down ◄──────────────  crash: Lost, streak += 1,
         (spawn_due)      delay = min(cap, base·2^(streak-1))
    v}
    A deadline kill ([Timed_out]) sends the slot [Down] with no delay
    and the streak unchanged: the worker was healthy, the task was the
    problem. *)

type verdict =
  | Done of Gsim.Stats_io.Json.t  (** the handler's result payload *)
  | Failed of string
      (** the handler raised: a deterministic failure, so retrying
          cannot help *)
  | Lost of string
      (** the worker died, hung up, or wrote garbage under the task;
          the reason names which *)
  | Timed_out  (** the deadline expired and the worker was killed *)

exception Garble
(** A handler may raise this to make its worker write a corrupt
    envelope line instead of a result — fault injection for the
    parent's garbage → [Lost] path. *)

exception Crash
(** A handler may raise this to make its worker SIGKILL itself
    mid-task — fault injection for the parent's crash → [Lost] path. *)

type 'a t
(** A pool whose assignments carry driver tags of type ['a]. *)

val create :
  workers:int ->
  timeout:float ->
  backoff_base:float ->
  backoff_cap:float ->
  log:(string -> unit) ->
  inherited:(unit -> Unix.file_descr list) ->
  on_verdict:('a -> verdict -> unit) ->
  (Gsim.Stats_io.Json.t -> Gsim.Stats_io.Json.t) ->
  'a t
(** [create ... handler] makes [workers] slots (at least one), all
    [Down] and ready, and forks nothing yet.  [handler] runs inside
    each worker, once per task.  [timeout] is the per-assignment
    wall-clock deadline in seconds.  [inherited ()] lists the driver's
    own descriptors, which each newly forked worker closes so that EOF
    on them still means what the driver thinks.  [log] receives crash
    and respawn notes.  SIGPIPE is ignored until {!shutdown}, so a
    write to a dead worker fails with an error, not a signal. *)

val spawn_due : 'a t -> want:int -> unit
(** Fork workers into [Down] slots whose backoff has expired until
    [want] workers (at most the slot count) are alive. *)

val assign : 'a t -> 'a -> Gsim.Stats_io.Json.t -> bool
(** Hand a task to an idle worker and start its deadline.  [false]
    when no idle worker accepted it; an idle worker found dead on the
    way is counted as a crash, and the task stays the caller's. *)

val has_idle : 'a t -> bool

val wait :
  'a t ->
  reads:Unix.file_descr list ->
  writes:Unix.file_descr list ->
  Unix.file_descr list * Unix.file_descr list
(** One select round of at most 0.25 s over the workers' result pipes
    and the driver's descriptors.  Worker output is consumed and
    overdue workers are killed, both reporting through [on_verdict];
    the driver's own ready descriptors are returned. *)

val in_flight : 'a t -> 'a list
(** Tags of the assignments still running. *)

val alive : 'a t -> int
val crashes : 'a t -> int

val restarts : 'a t -> int
(** Respawns of slots that had crashed. *)

val shutdown : 'a t -> kill:bool -> unit
(** Retire every worker and reap it: [~kill:false] closes the task
    pipes and lets idle workers exit, SIGKILLing any still alive after
    2 s; [~kill:true] SIGKILLs at once.  Running assignments get no
    verdict.  Restores SIGPIPE. *)
