(* Parallel experiment sweep runner: a driver of the worker pool.

   The parent never serializes jobs — the pool's workers fork after the
   job array exists, so a task names a job by its index — but results
   always cross back as JSON text over a pipe, the same representation
   the CLI writes to disk.  {!Pool} supervises the workers and reports
   one verdict per assignment; this driver keeps job order, settles
   jobs from the content cache and stores finished ones back, and
   retries a crashed, garbled or hung job exactly once — since the
   simulators are deterministic, a retry reproduces the lost result
   bit-for-bit.  The cache is also how an interrupted sweep resumes:
   every job that finished before the interrupt is stored, so the same
   sweep run again serves it instead of re-simulating. *)

module Json = Gsim.Stats_io.Json

type mode = Runner.mode = Func | Timing

type job = {
  sj_app : string;
  sj_scale : Workloads.App.scale;
  sj_label : string;
  sj_cfg : Gsim.Config.t;
  sj_mode : mode;
  sj_warmup : bool;
  sj_profile : bool; (* attach a Profile reducer to a timing run *)
}

let job ?(label = "base") ?(cfg = Gsim.Config.default) ?(mode = Timing)
    ?(warmup = true) ?(profile = false) ?(scale = Workloads.App.Small) app =
  {
    sj_app = app;
    sj_scale = scale;
    sj_label = label;
    sj_cfg = cfg;
    sj_mode = mode;
    sj_warmup = warmup;
    sj_profile = profile;
  }

let jobs ~apps ~scales ~cfgs ?(mode = Timing) ?(warmup = true)
    ?(profile = false) () =
  List.concat_map
    (fun app ->
      List.concat_map
        (fun scale ->
          List.map
            (fun (label, cfg) ->
              job ~label ~cfg ~mode ~warmup ~profile ~scale app)
            cfgs)
        scales)
    apps

(* ---- content digests ----

   The sweep cache is content-addressed: a job's digest covers
   everything its result depends on — the application's kernels (as
   printed text; a kernel is an AST, so its printing is canonical), its
   launch geometry and dataset seed, the full machine configuration,
   the simulation mode, the warmup and profile settings, and the
   simulator semantics tag.  The config label is a presentation knob
   and deliberately excluded: two jobs that must produce the same bytes
   share one cache entry.  A job has no fast-forward setting: it always
   runs fast-forwarded, which is byte-identical to the naive cycle loop
   by construction. *)

let cache_schema = "critload-cache-v1"

(* Enumerating an app's launches without simulating between them is
   deterministic — its host program sees the untouched initial memory
   image — so it names the app's content reproducibly even
   though the enumerated sequence can be shorter than a real run's.
   Not memoized here: two [App.t] values may share a name yet differ in
   seed or kernels, and must digest apart.  The memo lives in
   [suite_fingerprint], where the name alone picks the app. *)
let app_fingerprint (app : Workloads.App.t) scale =
  let b = Buffer.create 4096 in
  Printf.ksprintf (Buffer.add_string b) "%s|seed=%#x|scale=%s"
    app.Workloads.App.name app.Workloads.App.seed
    (Workloads.App.string_of_scale scale);
  let seen = Hashtbl.create 4 in
  Workloads.App.iter_launches (app.Workloads.App.make scale) (fun l ->
      let k = l.Gsim.Launch.kernel in
      let kname = k.Ptx.Kernel.kname in
      let gx, gy, gz = l.Gsim.Launch.grid in
      let bx, by, bz = l.Gsim.Launch.block in
      Printf.ksprintf (Buffer.add_string b) "|launch=%s:%dx%dx%d:%dx%dx%d"
        kname gx gy gz bx by bz;
      if not (Hashtbl.mem seen kname) then begin
        Hashtbl.add seen kname ();
        Buffer.add_string b "|kernel=";
        Buffer.add_string b (Ptx.Kernel.to_string k)
      end;
      true);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* A fingerprint runs the app's [make], which costs what generating its
   dataset does (sssp about 0.2 s at Default), and a daemon digests in
   its select loop.  [Suite.all] is an immutable list with one value per
   name, so the registry name [Suite.find] resolves, with the scale,
   names one fingerprint for the life of the process: the table fills
   on the first digest of each pair and holds at most 15 x 3 entries.
   An unknown name raises in [Suite.find] before the table is touched,
   so a failure is never memoized. *)
let suite_fingerprint =
  let memo = Hashtbl.create 16 in
  fun name scale ->
    let app = Workloads.Suite.find name in
    let key = (app.Workloads.App.name, scale) in
    match Hashtbl.find_opt memo key with
    | Some fp -> fp
    | None ->
        let fp = app_fingerprint app scale in
        Hashtbl.add memo key fp;
        fp

let job_digest j =
  let payload =
    String.concat "\n"
      [ cache_schema;
        Version.sim_tag;
        suite_fingerprint j.sj_app j.sj_scale;
        Gsim.Stats_io.config_digest j.sj_cfg;
        Runner.mode_name j.sj_mode;
        (if j.sj_warmup then "warmup" else "nowarmup");
        (if j.sj_profile then "profile" else "noprofile") ]
  in
  Digest.to_hex (Digest.string payload)

(* ---- on-disk cache ----

   One file per digest.  Entries carry provenance (app, config JSON,
   sim tag) alongside the result payload, written via a temporary file
   and rename so a reader never observes a torn entry.  Lookups treat
   an unreadable or mismatched file as a miss — a corrupt entry costs
   one re-simulation, never a crash. *)

let cache_path ~dir digest = Filename.concat dir (digest ^ ".json")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let cache_store ~dir j payload =
  try
    let digest = job_digest j in
    if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
    let entry =
      Json.Obj
        [ ("schema", Json.Str cache_schema);
          ("digest", Json.Str digest);
          ("sim_tag", Json.Str Version.sim_tag);
          ("app", Json.Str j.sj_app);
          ("scale", Json.Str (Workloads.App.string_of_scale j.sj_scale));
          ("mode", Json.Str (Runner.mode_name j.sj_mode));
          ("warmup", Json.Bool j.sj_warmup);
          ("profile", Json.Bool j.sj_profile);
          ("config", Gsim.Stats_io.config_to_json j.sj_cfg);
          ("result", payload) ]
    in
    let path = cache_path ~dir digest in
    let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
    match
      (* [with_open_bin] would close with [close_out_noerr]; closing
         here makes a failed final flush raise instead of renaming a
         short entry into place *)
      Out_channel.with_open_bin tmp (fun oc ->
          Json.to_channel oc entry;
          close_out oc);
      Unix.rename tmp path
    with
    | () -> ()
    | exception e ->
        (try Sys.remove tmp with Sys_error _ -> ());
        raise e
  with Sys_error _ | Unix.Unix_error _ ->
    () (* a full disk or permission error degrades to no cache *)

(* ---- result summaries ---- *)

type func_summary = {
  fu_launches : int;
  fu_ctas : int;
  fu_threads_per_cta : int;
  fu_static_d : int;
  fu_static_n : int;
  fu_check : bool;
  fu_warp_insts : int;
  fu_thread_insts : int;
  fu_gld_warps : int array;
  fu_gld_requests : int array;
  fu_gld_active_threads : int array;
  fu_shared_load_warps : int;
  fu_global_store_warps : int;
  fu_atom_warps : int;
}

let func_summary (r : Runner.func_result) =
  let fs = r.Runner.fr_fs in
  {
    fu_launches = r.Runner.fr_launches;
    fu_ctas = r.Runner.fr_ctas;
    fu_threads_per_cta = r.Runner.fr_threads_per_cta;
    fu_static_d = r.Runner.fr_static_d;
    fu_static_n = r.Runner.fr_static_n;
    fu_check = r.Runner.fr_check;
    fu_warp_insts = fs.Gsim.Funcsim.warp_insts;
    fu_thread_insts = fs.Gsim.Funcsim.thread_insts;
    fu_gld_warps = Array.copy fs.Gsim.Funcsim.gld_warps;
    fu_gld_requests = Array.copy fs.Gsim.Funcsim.gld_requests;
    fu_gld_active_threads = Array.copy fs.Gsim.Funcsim.gld_active_threads;
    fu_shared_load_warps = fs.Gsim.Funcsim.shared_load_warps;
    fu_global_store_warps = fs.Gsim.Funcsim.global_store_warps;
    fu_atom_warps = fs.Gsim.Funcsim.atom_warps;
  }

module Codec = Gsim.Stats_io.Codec

(* Per-class counts are D/N pairs. *)
let func_summary_codec =
  let open Codec in
  let by_class = int_array 2 in
  obj
    [ field "launches" int (fun f -> f.fu_launches)
        (fun f x -> { f with fu_launches = x });
      field "ctas" int (fun f -> f.fu_ctas) (fun f x -> { f with fu_ctas = x });
      field "threads_per_cta" int (fun f -> f.fu_threads_per_cta)
        (fun f x -> { f with fu_threads_per_cta = x });
      field "static_d" int (fun f -> f.fu_static_d)
        (fun f x -> { f with fu_static_d = x });
      field "static_n" int (fun f -> f.fu_static_n)
        (fun f x -> { f with fu_static_n = x });
      field "check" bool (fun f -> f.fu_check)
        (fun f x -> { f with fu_check = x });
      field "warp_insts" int (fun f -> f.fu_warp_insts)
        (fun f x -> { f with fu_warp_insts = x });
      field "thread_insts" int (fun f -> f.fu_thread_insts)
        (fun f x -> { f with fu_thread_insts = x });
      field "gld_warps" by_class (fun f -> f.fu_gld_warps)
        (fun f x -> { f with fu_gld_warps = x });
      field "gld_requests" by_class (fun f -> f.fu_gld_requests)
        (fun f x -> { f with fu_gld_requests = x });
      field "gld_active_threads" by_class (fun f -> f.fu_gld_active_threads)
        (fun f x -> { f with fu_gld_active_threads = x });
      field "shared_load_warps" int (fun f -> f.fu_shared_load_warps)
        (fun f x -> { f with fu_shared_load_warps = x });
      field "global_store_warps" int (fun f -> f.fu_global_store_warps)
        (fun f x -> { f with fu_global_store_warps = x });
      field "atom_warps" int (fun f -> f.fu_atom_warps)
        (fun f x -> { f with fu_atom_warps = x }) ]
    (fun () ->
      { fu_launches = 0; fu_ctas = 0; fu_threads_per_cta = 0; fu_static_d = 0;
        fu_static_n = 0; fu_check = false; fu_warp_insts = 0;
        fu_thread_insts = 0; fu_gld_warps = [||]; fu_gld_requests = [||];
        fu_gld_active_threads = [||]; fu_shared_load_warps = 0;
        fu_global_store_warps = 0; fu_atom_warps = 0 })

let func_summary_to_json = func_summary_codec.enc
let func_summary_of_json = func_summary_codec.dec

type timing_summary = {
  tm_launches : int;
  tm_stats : Gsim.Stats.t;
  tm_profile : Gsim.Profile.t option;
}

let timing_summary_codec =
  let open Codec in
  let stats =
    { enc = Gsim.Stats_io.stats_to_json; dec = Gsim.Stats_io.stats_of_json }
  in
  let profile = { enc = Gsim.Profile.to_json; dec = Gsim.Profile.of_json } in
  obj
    [ field "launches" int (fun t -> t.tm_launches)
        (fun t x -> { t with tm_launches = x });
      field "stats" stats (fun t -> t.tm_stats)
        (fun t x -> { t with tm_stats = x });
      (* present only for profiled jobs *)
      field "profile" (option profile) (fun t -> t.tm_profile)
        (fun t x -> { t with tm_profile = x }) ]
    (fun () ->
      { tm_launches = 0; tm_stats = Gsim.Stats.create (); tm_profile = None })

let timing_summary_to_json = timing_summary_codec.enc
let timing_summary_of_json = timing_summary_codec.dec

(* ---- cache probing ----

   (Below the summary codecs because a probe validates the stored
   payload against them.)  A hit must survive the full gauntlet before
   it is served: the entry parses, names this digest, carries the
   current simulator tag, and its payload decodes as a summary of the
   job's mode.  A legitimately stale entry (another schema revision or
   simulator tag) is a plain miss; an entry that exists but fails a
   structural check is [Cache_damaged] — still served as a miss, but
   counted and surfaced so torn or bit-rotted stores are visible
   instead of silently re-simulating forever.  Each handler names the
   exceptions its step documents, so an interrupt ([Sys.Break]) raised
   while a probe fingerprints an app or reads an entry reaches the
   caller instead of turning into a miss. *)

type cache_probe = Cache_hit of Json.t | Cache_miss | Cache_damaged of string

let cache_probe ~dir j =
  match job_digest j with
  | exception Invalid_argument _ ->
      Cache_miss (* unknown app: let execution report it *)
  | digest -> (
      let path = cache_path ~dir digest in
      if not (Sys.file_exists path) then Cache_miss
      else
        let damaged fmt = Printf.ksprintf (fun m -> Cache_damaged m) fmt in
        match Json.of_string (read_file path) with
        | exception Json.Parse_error e -> damaged "%s: unparseable (%s)" path e
        | exception (Sys_error _ | End_of_file) -> damaged "%s: unreadable" path
        | Json.Obj _ as v -> (
            match (Json.member "schema" v, Json.member "sim_tag" v) with
            | Json.Str s, _ when s <> cache_schema -> Cache_miss
            | _, Json.Str t when t <> Version.sim_tag -> Cache_miss
            | Json.Str _, Json.Str _ -> (
                match Json.member "digest" v with
                | Json.Str d when d <> digest ->
                    damaged "%s: digest mismatch (entry says %s)" path d
                | Json.Str _ -> (
                    match Json.member "result" v with
                    | Json.Null -> damaged "%s: missing result payload" path
                    | r ->
                        let decodes =
                          match j.sj_mode with
                          | Timing -> (
                              match timing_summary_of_json r with
                              | _ -> true
                              | exception Json.Parse_error _ -> false)
                          | Func -> (
                              match func_summary_of_json r with
                              | _ -> true
                              | exception Json.Parse_error _ -> false)
                        in
                        if decodes then Cache_hit r
                        else
                          damaged "%s: result does not decode as a %s summary"
                            path (Runner.mode_name j.sj_mode))
                | _ -> damaged "%s: missing digest field" path)
            | _ -> damaged "%s: missing schema or sim_tag field" path)
        | _ -> damaged "%s: not a JSON object" path)

(* ---- worker body ---- *)

let exec_job j =
  let app = Workloads.Suite.find j.sj_app in
  let report =
    match
      Runner.run ~cfg:j.sj_cfg ~mode:j.sj_mode ~scale:j.sj_scale
        ~warmup:j.sj_warmup ~check:true ~profile:j.sj_profile app
    with
    | Ok r -> r
    | Error e -> raise (Gsim.Sim_error.Error e)
  in
  match j.sj_mode with
  | Timing ->
      timing_summary_to_json
        {
          tm_launches = report.Runner.Report.launches;
          tm_stats = Runner.Report.stats_exn report;
          tm_profile = report.Runner.Report.profile;
        }
  | Func -> func_summary_to_json (func_summary (Runner.Report.func_exn report))

(* ---- driving the worker pool ---- *)

type outcome = Completed of Json.t | Failed of string

type event =
  | Started of job * int
  | Finished of job * float
  | Retried of job * string
  | Gave_up of job * string
  | Cached of job
  | Cache_damage of job * string

exception Garble = Pool.Garble

let run ?(workers = 1) ?(timeout = 600.)
    ?(on_event = fun (_ : event) -> ())
    ?(chaos = fun ~job_index:_ ~attempt:_ -> ())
    ?cache_dir job_list =
  let job_arr = Array.of_list job_list in
  let n = Array.length job_arr in
  let results = Array.make n (Failed "never ran") in
  let pending = Queue.create () in
  Array.iteri
    (fun i j ->
      match
        match cache_dir with
        | Some dir -> (
            match cache_probe ~dir j with
            | Cache_hit payload -> Some payload
            | Cache_miss -> None
            | Cache_damaged reason ->
                (* a torn or corrupt entry costs one re-simulation,
                   never a crash — but the caller hears about it *)
                on_event (Cache_damage (j, reason));
                None)
        | None -> None
      with
      | Some payload ->
          results.(i) <- Completed payload;
          on_event (Cached j)
      | None -> Queue.add (i, 0) pending)
    job_arr;
  (* A worker's verdict on job [i]: a deterministic failure is final,
     while a crash, garbage or a timeout earns the single retry.  A
     completed job is stored before it is reported, so an interrupt
     raised from [on_event] cannot lose it. *)
  let started = Array.make n 0. in
  let on_verdict (i, attempt) verdict =
    let j = job_arr.(i) in
    let lost reason =
      if attempt = 0 then begin
        on_event (Retried (j, reason));
        Queue.add (i, 1) pending
      end
      else begin
        results.(i) <- Failed reason;
        on_event (Gave_up (j, reason))
      end
    in
    match verdict with
    | Pool.Done payload ->
        results.(i) <- Completed payload;
        Option.iter (fun dir -> cache_store ~dir j payload) cache_dir;
        on_event (Finished (j, Unix.gettimeofday () -. started.(i)))
    | Pool.Failed msg ->
        results.(i) <- Failed msg;
        on_event (Gave_up (j, msg))
    | Pool.Lost reason -> lost reason
    | Pool.Timed_out -> lost (Printf.sprintf "timeout after %.0fs" timeout)
  in
  (* Workers fork after [job_arr] exists, so a task is just the job's
     index: jobs never cross the pipe, only results do. *)
  let pool =
    Pool.create ~workers ~timeout ~backoff_base:0.05 ~backoff_cap:2.0
      ~log:ignore ~inherited:(fun () -> []) ~on_verdict (fun task ->
        let i = Json.int_field "job" task in
        chaos ~job_index:i ~attempt:(Json.int_field "attempt" task);
        exec_job job_arr.(i))
  in
  let rec loop () =
    let busy = List.length (Pool.in_flight pool) in
    let work = busy + Queue.length pending in
    if work > 0 then begin
      Pool.spawn_due pool ~want:work;
      while Pool.has_idle pool && not (Queue.is_empty pending) do
        let i, attempt = Queue.peek pending in
        let task =
          Json.Obj [ ("attempt", Json.Int attempt); ("job", Json.Int i) ]
        in
        if Pool.assign pool (i, attempt) task then begin
          ignore (Queue.pop pending);
          started.(i) <- Unix.gettimeofday ();
          on_event (Started (job_arr.(i), attempt))
        end
      done;
      ignore (Pool.wait pool ~reads:[] ~writes:[]);
      loop ()
    end
  in
  (* Any exception (Sys.Break from ctrl-C or a hook) kills in-flight
     workers without settling their jobs: the store keeps only
     genuinely finished work, a rerun re-simulates the rest, and no
     orphan keeps simulating. *)
  match loop () with
  | () ->
      Pool.shutdown pool ~kill:false;
      results
  | exception e ->
      Pool.shutdown pool ~kill:true;
      raise e

(* ---- sweep documents ---- *)

let job_envelope j outcome =
  let base =
    [ ("app", Json.Str j.sj_app);
      ("scale", Json.Str (Workloads.App.string_of_scale j.sj_scale));
      ("label", Json.Str j.sj_label);
      ("mode", Json.Str (Runner.mode_name j.sj_mode)) ]
  in
  match outcome with
  | Completed payload ->
      Json.Obj (base @ [ ("status", Json.Str "ok"); ("result", payload) ])
  | Failed msg ->
      Json.Obj (base @ [ ("status", Json.Str "failed"); ("error", Json.Str msg) ])

let sweep_to_json ~jobs ~outcomes =
  let results =
    List.mapi (fun i j -> job_envelope j outcomes.(i)) jobs
  in
  Json.Obj
    [ ("schema", Json.Str "critload-sweep-v1"); ("results", Json.Arr results) ]
