(** The [critload serve] daemon: a long-running, crash-tolerant sweep
    service.

    One process owns a Unix-domain stream socket and multiplexes any
    number of concurrent clients (speaking {!Protocol} over JSONL
    framing) onto a {!Pool} of persistent forked worker processes —
    the same supervised pool [critload sweep] runs on.  The pool owns
    the processes and reports one verdict per job; this driver owns
    the socket, the queues and what each verdict means.  The design
    treats failure as the normal case:

    - {b Supervision.}  A worker that crashes (or ships garbage) is
      reaped and its slot respawned with capped exponential backoff.
      A job lost to a crash is retried once on another worker —
      simulation is deterministic, so the retry reproduces the lost
      result bit-for-bit.  A job that crashes twice fails loudly
      ({!Protocol.Job_failed}), never silently.
    - {b Deadlines.}  Every request carries the server's per-job
      wall-clock deadline; an overdue worker is SIGKILLed and the
      client receives a distinct {!Protocol.Job_timeout} (no retry —
      a timeout is evidence the job does not fit the budget; unlike
      [critload sweep], which runs unattended and retries it once).
    - {b Backpressure.}  The pending queue is bounded; a submission
      that would overflow it is turned away immediately with
      {!Protocol.Rejected} and a [retry_after] hint, never buffered
      without bound.
    - {b Fairness.}  Queued work is dispatched round-robin across
      clients (least-recently-served first), so one client pipelining
      hundreds of jobs cannot starve another's single request.
    - {b Cache degradation.}  With a content-addressed store
      configured, submissions are probed through
      {!Parsweep.cache_probe}; torn or corrupt entries are served as
      misses, counted, and reported — the daemon never returns bytes
      from a damaged entry and never dies over one.
    - {b Graceful shutdown.}  SIGTERM/SIGINT stops intake (new
      submissions are rejected as [Shutting_down]), drains queued and
      in-flight jobs, flushes client responses, reaps every worker (no
      orphans), removes the socket, and returns the final counters.  A
      second signal forces immediate teardown: queued work is dropped
      and the workers are killed at once. *)

(** Deterministic fault injection for the chaos/soak harness:
    [kill_every n] makes each worker SIGKILL itself on every [n]-th
    first-attempt job it is handed, exercising the crash → retry →
    respawn path without ever changing result bytes (retries are
    exempt, so recovery always converges). *)
type chaos = { kill_every : int }

type config = {
  socket_path : string;
  workers : int;  (** worker slots (clamped to at least 1) *)
  job_timeout : float;  (** per-request wall-clock deadline, seconds *)
  queue_limit : int;  (** bound on queued (not yet dispatched) jobs *)
  retry_after : float;  (** hint sent with [Queue_full] rejections *)
  backoff_base : float;  (** first respawn delay after a crash *)
  backoff_cap : float;  (** ceiling of the exponential backoff *)
  cache_dir : string option;  (** content-addressed store; [None] = off *)
  chaos : chaos option;  (** fault injection; [None] in production *)
  log : (string -> unit) option;  (** event log sink; [None] = quiet *)
}

val default_config : socket_path:string -> config
(** 4 workers, 600 s deadline, queue bound 64, retry-after 0.25 s,
    backoff 0.05 s doubling to a 2 s cap, no cache, no chaos, quiet. *)

val run :
  ?on_listening:(unit -> unit) -> config -> (Protocol.health, string) result
(** Bind the socket and serve until SIGTERM or SIGINT, then drain and
    return the final counters.  [on_listening] fires once the socket
    accepts connections.  [Error] covers startup only: the socket path
    is owned by a live daemon (detected by connecting to it — a stale
    socket file left by a crash is silently replaced) or cannot be
    bound.  Once serving, client churn, worker crashes, and store
    corruption are handled, counted, and never fatal. *)
