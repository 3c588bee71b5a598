(** Wire protocol of the [critload serve] daemon.

    Clients speak newline-framed JSON ({!Gsim.Stats_io.Framing}) over a
    Unix-domain stream socket: one request object per line in, one
    response object per line out.  Submissions are asynchronous —
    responses to one connection arrive as their jobs settle, not
    necessarily in submission order — so every submit carries a
    client-chosen [id] echoed verbatim in its response.

    The protocol is versioned by {!schema}; a server answers a request
    whose schema it does not speak with {!Error_response}. *)

module Json = Gsim.Stats_io.Json

val schema : string
(** ["critload-serve-v1"]. *)

(** {1 Job specifications}

    The unit of work is exactly a sweep job ({!Parsweep.job}), so a
    served result is byte-identical to what [critload sweep] or
    {!Parsweep.exec_job} produces for the same specification. *)

val job_to_json : Parsweep.job -> Json.t
(** Full job specification, config included (via
    {!Gsim.Stats_io.config_to_json}), with the mode spelled by
    {!Runner.mode_name}. *)

val job_of_json : Json.t -> (Parsweep.job, string) result
(** Decode a job specification.  An absent ["config"] field means
    {!Gsim.Config.default}; unknown scales, modes, or malformed configs
    are reported as [Error] — never an exception, since the bytes come
    from an untrusted socket.  Members it does not name are ignored,
    such as the ["fast_forward"] flag older clients send.  The
    application name is {e not} resolved here: an unknown app travels
    to execution and fails there, exactly as in a sweep. *)

(** {1 Requests} *)

type request =
  | Submit of { id : string; job : Parsweep.job }
      (** run one job; the response echoes [id] *)
  | Health  (** snapshot the daemon's counters and queue state *)
  | Ping  (** liveness probe; answered with {!Pong} *)

val request_to_json : request -> Json.t

val request_of_json : Json.t -> (request, string) result
(** Never raises: malformed or unknown requests come back as [Error]
    (the server answers them with {!Error_response}). *)

(** {1 Responses} *)

(** Why a submission was turned away rather than queued. *)
type reject_reason =
  | Queue_full  (** backpressure: the bounded queue is at capacity *)
  | Shutting_down  (** the daemon is draining and accepts no new work *)

val reject_reason_to_string : reject_reason -> string

(** Point-in-time daemon counters, served under the ["health"] op and
    returned by {!Server.run} as the final tally. *)
type health = {
  h_queued : int;  (** jobs accepted but not yet dispatched *)
  h_inflight : int;  (** jobs currently on a worker *)
  h_clients : int;  (** open client connections *)
  h_workers : int;  (** configured worker slots *)
  h_alive : int;  (** slots with a live worker process *)
  h_accepted : int;
  h_completed : int;
  h_failed : int;
  h_timeouts : int;
  h_rejected : int;
  h_cache_hits : int;
  h_cache_misses : int;
  h_cache_damaged : int;  (** torn/corrupt store entries served as misses *)
  h_crashes : int;  (** worker processes lost to crashes *)
  h_restarts : int;  (** supervisor respawns (after backoff) *)
  h_disconnects : int;  (** clients gone with work still pending *)
}

val empty_health : health

val health_to_json : health -> Json.t
(** Flat object of counters; field spellings are the protocol schema
    documented in the README's "Operating the service" section. *)

val health_of_json : Json.t -> health
(** @raise Json.Parse_error on schema mismatch. *)

type response =
  | Result of { id : string; payload : Json.t }
      (** the job's result payload — bytes identical to
          {!Parsweep.exec_job} output for the same job *)
  | Job_failed of { id : string; message : string }
      (** the job ran (possibly twice) and failed deterministically *)
  | Job_timeout of { id : string; after : float }
      (** the per-request deadline expired; the worker was killed *)
  | Rejected of { id : string; reason : reject_reason; retry_after : float }
      (** not queued; retry no sooner than [retry_after] seconds *)
  | Health_report of health
  | Pong
  | Error_response of { message : string }
      (** the request line itself was unintelligible *)

val response_to_json : response -> Json.t

val response_of_json : Json.t -> (response, string) result
(** Never raises; the inverse of {!response_to_json}. *)
