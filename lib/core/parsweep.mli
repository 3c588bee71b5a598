(** Parallel experiment sweep runner.

    Executes (app x scale x config) jobs on a {!Pool} of persistent
    forked worker processes — the same supervision the [serve] daemon
    uses.  Workers run job after job and ship each result back over a
    pipe as JSON (see {!Gsim.Stats_io}), so results survive the process
    boundary in the same machine-readable form the CLI exports.

    Guarantees:
    - results come back in job order, regardless of completion order;
    - a worker that crashes, ships garbage or exceeds the per-job
      wall-clock timeout is killed and its job retried once on another
      worker (safe because simulation is deterministic — see the
      determinism test);
    - a job that fails twice yields [Failed], never a corrupted or
      missing slot;
    - at most [min workers pending] workers are forked, so a sweep
      settled entirely from the cache forks none;
    - with a cache directory, a job is stored as soon as it finishes, so
      an interrupted sweep run again serves every finished job from the
      cache and re-simulates only the rest. *)

(** The simulator a job runs, spelled in documents and digests by
    {!Runner.mode_name}. *)
type mode = Runner.mode = Func | Timing

(** One unit of sweep work.  A timing job always runs with
    fast-forward on: its statistics and traces are byte-identical to the
    naive cycle loop by construction. *)
type job = {
  sj_app : string;  (** application name, resolved via {!Workloads.Suite} *)
  sj_scale : Workloads.App.scale;
  sj_label : string;  (** configuration label, e.g. ["base"] *)
  sj_cfg : Gsim.Config.t;
  sj_mode : mode;
  sj_warmup : bool;  (** timing runs: fast-forward past cold launches *)
  sj_profile : bool;  (** timing runs: attach a {!Gsim.Profile} reducer *)
}

val job :
  ?label:string ->
  ?cfg:Gsim.Config.t ->
  ?mode:mode ->
  ?warmup:bool ->
  ?profile:bool ->
  ?scale:Workloads.App.scale ->
  string ->
  job
(** [job app] with defaults: label ["base"], default config, [Timing]
    mode, warmup on, profiling off, [Small] scale. *)

val jobs :
  apps:string list ->
  scales:Workloads.App.scale list ->
  cfgs:(string * Gsim.Config.t) list ->
  ?mode:mode ->
  ?warmup:bool ->
  ?profile:bool ->
  unit ->
  job list
(** Cross product, ordered app-major (app, then scale, then config). *)

(** {1 Content digests and the sweep cache}

    The cache is content-addressed: {!job_digest} covers everything a
    job's result depends on — the app's kernels (as
    {!Ptx.Kernel.to_string} prints them: a kernel is an AST, so its
    text is canonical), launch geometry, dataset seed, the full
    {!Gsim.Config.t} (via {!Gsim.Stats_io.config_digest}), the
    simulation mode, warmup and profile settings, and
    {!Version.sim_tag}.  The config {e label} is
    deliberately excluded: it cannot change the result bytes, so jobs
    differing only there share an entry. *)

val app_fingerprint : Workloads.App.t -> Workloads.App.scale -> string
(** Hex digest naming the app's content at a scale (kernels, launch
    geometry, dataset seed).  Launches are enumerated without
    simulating between them, which is deterministic.  Every call runs
    the app's [make], so it costs what generating the dataset does. *)

val job_digest : job -> string
(** Hex digest addressing a job's cache entry.  The first digest of an
    (app, scale) in a process computes its {!app_fingerprint}, one
    [make] (up to about 0.2 s at Default); later digests of that pair
    reuse it and cost about 10 µs.  The memo is keyed by registry name
    and scale, so it holds at most one entry per suite app and scale.
    @raise Invalid_argument when [sj_app] names no known application
    (nothing is memoized then). *)

(** Verdict of probing the store for one job: a {!Cache_hit} passed
    every structural check (entry parses, names the job's digest,
    carries the current {!Version.sim_tag}, and its payload decodes as
    a summary of the job's mode); a legitimately stale entry (another
    schema or simulator revision) is {!Cache_miss}; an entry that
    exists but fails a check — a torn write, truncation, bit rot — is
    {!Cache_damaged} with a reason.  Damage is served exactly like a
    miss, but callers can count and surface it. *)
type cache_probe =
  | Cache_hit of Gsim.Stats_io.Json.t
  | Cache_miss
  | Cache_damaged of string

val cache_probe : dir:string -> job -> cache_probe
(** Probe [dir] for the job's entry.  An unknown application probes as
    a {!Cache_miss} (running the job reports it); an entry that cannot
    be read, is not a JSON object or fails a check is
    {!Cache_damaged}.  Nothing else is caught: an exception raised
    while the probe runs, such as [Sys.Break] from Ctrl-C, propagates. *)

val cache_store : dir:string -> job -> Gsim.Stats_io.Json.t -> unit
(** Write a job's result payload under its digest (creating [dir] if
    needed), via a temporary file and rename so readers never observe a
    torn entry.  I/O failures ([Sys_error], [Unix.Unix_error]) degrade
    to not caching; the temporary file is removed whenever the write or
    the rename fails.
    @raise Invalid_argument when [sj_app] names no known application. *)

(** {1 Result summaries} *)

(** JSON-portable digest of a functional run. *)
type func_summary = {
  fu_launches : int;
  fu_ctas : int;
  fu_threads_per_cta : int;
  fu_static_d : int;
  fu_static_n : int;
  fu_check : bool;
  fu_warp_insts : int;
  fu_thread_insts : int;
  fu_gld_warps : int array;  (** by class (D/N) *)
  fu_gld_requests : int array;
  fu_gld_active_threads : int array;
  fu_shared_load_warps : int;
  fu_global_store_warps : int;
  fu_atom_warps : int;
}

val func_summary_to_json : func_summary -> Gsim.Stats_io.Json.t

val func_summary_of_json : Gsim.Stats_io.Json.t -> func_summary
(** @raise Gsim.Stats_io.Json.Parse_error on schema mismatch. *)

(** JSON-portable digest of a timing run; [tm_stats] round-trips the
    full {!Gsim.Stats.t}, [tm_profile] (profiled jobs only) the
    {!Gsim.Profile.t} reduced from the run's trace. *)
type timing_summary = {
  tm_launches : int;
  tm_stats : Gsim.Stats.t;
  tm_profile : Gsim.Profile.t option;
}

val timing_summary_to_json : timing_summary -> Gsim.Stats_io.Json.t

val timing_summary_of_json : Gsim.Stats_io.Json.t -> timing_summary
(** @raise Gsim.Stats_io.Json.Parse_error on schema mismatch. *)

(** {1 Execution} *)

type outcome =
  | Completed of Gsim.Stats_io.Json.t
      (** the job's result payload (the envelope's ["result"] field) *)
  | Failed of string  (** error after the retry was also exhausted *)

type event =
  | Started of job * int  (** attempt number, 0 or 1 *)
  | Finished of job * float  (** wall-clock seconds *)
  | Retried of job * string  (** first attempt failed: reason *)
  | Gave_up of job * string
  | Cached of job  (** served from the content cache, not re-run *)
  | Cache_damage of job * string
      (** the store held a torn or corrupt entry for this job; it was
          treated as a miss and the job re-simulates *)

exception Garble
(** A [chaos] hook may raise this to make its worker ship deliberately
    corrupted bytes instead of a result envelope, exercising the
    parent's parse-failure → retry path (the same exception as
    {!Pool.Garble}). *)

val exec_job : job -> Gsim.Stats_io.Json.t
(** Run one job in-process (the code a worker executes) and return its
    result payload.  Exposed so tests can compare pool output against
    direct execution. *)

val run :
  ?workers:int ->
  ?timeout:float ->
  ?on_event:(event -> unit) ->
  ?chaos:(job_index:int -> attempt:int -> unit) ->
  ?cache_dir:string ->
  job list ->
  outcome array
(** Run the jobs over [workers] concurrent worker processes (default 1;
    values < 1 clamp to 1) with a per-job wall-clock [timeout] in
    seconds (default 600).  The result array is indexed by job order.

    [chaos] runs inside the worker before each job body — a test hook
    for fault injection (self-[SIGKILL], a hang the timeout must catch,
    or raising {!Garble}); the default does nothing.

    [cache_dir] enables the content cache: jobs whose {!job_digest}
    resolves in the directory settle immediately from the stored
    payload ([Cached] is reported); completed jobs are stored back
    before their [Finished] event.  Failed jobs are never cached.

    Every worker is reaped before [run] returns.  On [Sys.Break] (or
    any exception, including one raised by [on_event]) the pool is
    killed first (no orphan workers) and the exception propagates; the
    jobs that finished before it are already in [cache_dir], so running
    the same jobs again serves them as [Cached]. *)

val job_envelope : job -> outcome -> Gsim.Stats_io.Json.t
(** Self-describing per-job record: app, scale, label, mode, status and
    payload — the element type of the sweep file's ["results"] array. *)

val sweep_to_json : jobs:job list -> outcomes:outcome array -> Gsim.Stats_io.Json.t
(** Whole-sweep document: [{"schema": "critload-sweep-v1", "results": [...]}]. *)
