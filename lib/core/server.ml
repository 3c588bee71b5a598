(* The serve daemon: one select loop multiplexing a listening
   Unix-domain socket, N client connections, and the supervised
   {!Pool} of persistent forked workers.

   The daemon owns all policy — queueing, fairness, retry, the cache —
   and the pool owns every process concern: fork, deadlines, crash
   detection, respawn backoff, reaping.  Workers only ever do one
   thing: read a job line, simulate, write an envelope line.
   Everything a worker can do wrong (crash, hang, write garbage, die
   mid-line) reaches this file as one pool verdict; nothing a client
   can do (disconnect mid-job, pipeline junk, stop reading) reaches a
   worker at all. *)

module Json = Gsim.Stats_io.Json
module Framing = Gsim.Stats_io.Framing
module P = Protocol

type chaos = { kill_every : int }

type config = {
  socket_path : string;
  workers : int;
  job_timeout : float;
  queue_limit : int;
  retry_after : float;
  backoff_base : float;
  backoff_cap : float;
  cache_dir : string option;
  chaos : chaos option;
  log : (string -> unit) option;
}

let default_config ~socket_path =
  {
    socket_path;
    workers = 4;
    job_timeout = 600.;
    queue_limit = 64;
    retry_after = 0.25;
    backoff_base = 0.05;
    backoff_cap = 2.0;
    cache_dir = None;
    chaos = None;
    log = None;
  }

let close_noerr fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* The work a pool worker does for one task line: a job plus its
   attempt number.  The chaos hook fires between reading the job and
   running it, so an injected SIGKILL always loses exactly one
   in-flight job — the worst case the retry path must cover.  Its
   counter lives in each forked worker's own copy of the closure. *)
let exec_task ~chaos =
  let jobs_seen = ref 0 in
  fun task ->
    incr jobs_seen;
    let attempt = Json.int_field "attempt" task in
    (match chaos with
    | Some { kill_every = n } when n > 0 && attempt = 0 && !jobs_seen mod n = 0
      ->
        raise Pool.Crash
    | _ -> ());
    match P.job_of_json (Json.member "job" task) with
    | Error e -> invalid_arg ("bad job: " ^ e)
    | Ok job -> Parsweep.exec_job job

(* Peak resident set (VmHWM, kB) of a process; 0 where its status file
   cannot be read (a worker that just exited, or no procfs). *)
let vm_hwm_kb pid =
  match open_in (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> 0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0
        | line -> (
            match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
            | Some kb -> kb
            | None -> scan ())
      in
      Fun.protect ~finally:(fun () -> close_in_noerr ic) scan

(* ---- supervisor state ---- *)

(* One accepted-but-unfinished submission. *)
type pending = {
  p_id : string;  (** the client's request id, echoed in the response *)
  p_client : int;  (** client key; the client may be gone by settle time *)
  p_job : Parsweep.job;
  p_attempt : int;  (** 0, or 1 after a worker crash *)
}

type client = {
  c_key : int;
  c_fd : Unix.file_descr;
  c_split : Framing.Splitter.t;
  c_out : Buffer.t;  (** bytes owed to the client *)
  mutable c_out_off : int;  (** prefix of [c_out] already written *)
  c_queue : pending Queue.t;
  mutable c_last_served : int;  (** dispatch tick, for round-robin *)
  mutable c_closing : bool;  (** close once [c_out] drains *)
}

(* A client that pipelines requests but never reads responses would
   otherwise grow its out-buffer without bound; past this it is cut
   off like any other misbehaving peer. *)
let max_client_backlog = 8 * 1024 * 1024

(* ---- the server ---- *)

let run ?(on_listening = fun () -> ()) cfg =
  let log fmt =
    Printf.ksprintf
      (fun s -> match cfg.log with Some f -> f s | None -> ())
      fmt
  in
  let workers = max 1 cfg.workers in
  (* A live daemon answers a connect on its socket; a stale file left
     by a crash refuses it and is safe to replace. *)
  let socket_busy () =
    if not (Sys.file_exists cfg.socket_path) then false
    else
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> close_noerr fd)
        (fun () ->
          match Unix.connect fd (Unix.ADDR_UNIX cfg.socket_path) with
          | () -> true
          | exception Unix.Unix_error _ -> false)
  in
  if socket_busy () then
    Error
      (Printf.sprintf "socket %s is owned by a running server"
         cfg.socket_path)
  else begin
    (try Sys.remove cfg.socket_path with Sys_error _ -> ());
    match
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try
         Unix.bind fd (Unix.ADDR_UNIX cfg.socket_path);
         Unix.listen fd 64;
         Unix.set_nonblock fd
       with e ->
         close_noerr fd;
         raise e);
      fd
    with
    | exception Unix.Unix_error (err, _, _) ->
        Error
          (Printf.sprintf "cannot bind %s: %s" cfg.socket_path
             (Unix.error_message err))
    | listen_fd ->
        (* -- signals: first TERM/INT drains, second forces -- *)
        let signals = ref 0 in
        let prev_term =
          Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> incr signals))
        in
        let prev_int =
          Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> incr signals))
        in
        let prev_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
        let stopping () = !signals >= 1 in
        let forced () = !signals >= 2 in

        (* -- counters -- *)
        let accepted = ref 0 and completed = ref 0 and failed = ref 0 in
        let timeouts = ref 0 and rejected = ref 0 in
        let cache_hits = ref 0 and cache_misses = ref 0 in
        let cache_damaged = ref 0 and disconnects = ref 0 in

        (* -- state -- *)
        let clients : (int, client) Hashtbl.t = Hashtbl.create 16 in
        let fd_client : (Unix.file_descr, client) Hashtbl.t =
          Hashtbl.create 16
        in
        let retries : pending Queue.t = Queue.create () in
        (* retries are part of the queue bound *)
        let queued () =
          Hashtbl.fold
            (fun _ c n -> n + Queue.length c.c_queue)
            clients (Queue.length retries)
        in
        let next_key = ref 0 in
        let tick = ref 0 in
        let chunk = Bytes.create 65536 in

        (* -- responding -- *)

        let respond c resp =
          Buffer.add_string c.c_out (Framing.frame (P.response_to_json resp));
          if Buffer.length c.c_out - c.c_out_off > max_client_backlog then begin
            log "client %d: backlog over %d bytes, dropping" c.c_key
              max_client_backlog;
            c.c_closing <- true
          end
        in
        let respond_key key resp =
          match Hashtbl.find_opt clients key with
          | Some c when not c.c_closing -> respond c resp
          | _ -> () (* the client is gone; the work still warmed the cache *)
        in

        (* -- verdicts: how each assignment ends -- *)

        let settle_failed p message =
          incr failed;
          respond_key p.p_client (P.Job_failed { id = p.p_id; message })
        in
        let on_verdict p = function
          | Pool.Done payload ->
              incr completed;
              (match cfg.cache_dir with
              | Some dir -> Parsweep.cache_store ~dir p.p_job payload
              | None -> ());
              respond_key p.p_client (P.Result { id = p.p_id; payload })
          | Pool.Failed message -> settle_failed p message
          | Pool.Lost reason ->
              (* first loss earns the deterministic retry, the second
                 is a real failure *)
              if p.p_attempt = 0 then begin
                log "job %s: %s; retrying" p.p_id reason;
                Queue.add { p with p_attempt = 1 } retries
              end
              else
                settle_failed p
                  (Printf.sprintf "worker lost twice (%s)" reason)
          | Pool.Timed_out ->
              (* a timeout is the job's verdict, not the worker's: the
                 slot respawns without backoff, the client hears it
                 distinctly, and there is no retry *)
              incr timeouts;
              log "job %s: deadline %.1fs expired, worker killed" p.p_id
                cfg.job_timeout;
              respond_key p.p_client
                (P.Job_timeout { id = p.p_id; after = cfg.job_timeout })
        in
        let pool =
          Pool.create ~workers ~timeout:cfg.job_timeout
            ~backoff_base:cfg.backoff_base ~backoff_cap:cfg.backoff_cap
            ~log:(log "%s")
            ~inherited:(fun () ->
              Hashtbl.fold (fun fd _ acc -> fd :: acc) fd_client [ listen_fd ])
            ~on_verdict (exec_task ~chaos:cfg.chaos)
        in
        let inflight () = List.length (Pool.in_flight pool) in
        let health () =
          {
            P.h_queued = queued ();
            h_inflight = inflight ();
            h_clients = Hashtbl.length clients;
            h_workers = workers;
            h_alive = Pool.alive pool;
            h_accepted = !accepted;
            h_completed = !completed;
            h_failed = !failed;
            h_timeouts = !timeouts;
            h_rejected = !rejected;
            h_cache_hits = !cache_hits;
            h_cache_misses = !cache_misses;
            h_cache_damaged = !cache_damaged;
            h_crashes = Pool.crashes pool;
            h_restarts = Pool.restarts pool;
            h_disconnects = !disconnects;
            h_worker_peak_rss_kb =
              List.fold_left (fun m pid -> max m (vm_hwm_kb pid)) 0
                (Pool.pids pool);
          }
        in

        (* -- dispatch: round-robin over clients, retries first -- *)

        let pick_pending () =
          if not (Queue.is_empty retries) then Some (Queue.pop retries)
          else begin
            let best = ref None in
            Hashtbl.iter
              (fun _ c ->
                if not (Queue.is_empty c.c_queue) then
                  match !best with
                  | Some b when b.c_last_served <= c.c_last_served -> ()
                  | _ -> best := Some c)
              clients;
            match !best with
            | None -> None
            | Some c ->
                incr tick;
                c.c_last_served <- !tick;
                Some (Queue.pop c.c_queue)
          end
        in
        let rec dispatch () =
          if queued () > 0 && Pool.has_idle pool then
            match pick_pending () with
            | None -> ()
            | Some p ->
                let task =
                  Json.Obj
                    [ ("attempt", Json.Int p.p_attempt);
                      ("job", P.job_to_json p.p_job) ]
                in
                if not (Pool.assign pool p task) then
                  (* every idle worker died before taking it: the job
                     keeps its attempt count (nothing was lost) *)
                  Queue.add p retries;
                dispatch ()
        in

        (* -- client lifecycle -- *)

        let drop_client ?(lost = false) c =
          let pending_work =
            (not (Queue.is_empty c.c_queue))
            || List.exists (fun p -> p.p_client = c.c_key) (Pool.in_flight pool)
          in
          if lost && pending_work then incr disconnects;
          (* its queue leaves with it; drop the retries that belonged
             to it too *)
          let keep = Queue.create () in
          Queue.iter
            (fun p -> if p.p_client <> c.c_key then Queue.add p keep)
            retries;
          Queue.clear retries;
          Queue.transfer keep retries;
          Hashtbl.remove fd_client c.c_fd;
          Hashtbl.remove clients c.c_key;
          close_noerr c.c_fd
        in

        let handle_submit c id job =
          incr accepted;
          let served_from_cache =
            match cfg.cache_dir with
            | None -> false
            | Some dir -> (
                match Parsweep.cache_probe ~dir job with
                | Parsweep.Cache_hit payload ->
                    incr cache_hits;
                    incr completed;
                    respond c (P.Result { id; payload });
                    true
                | Parsweep.Cache_miss ->
                    incr cache_misses;
                    false
                | Parsweep.Cache_damaged reason ->
                    (* corrupt store: degrade to a miss, loudly *)
                    incr cache_damaged;
                    log "cache damage: %s" reason;
                    false)
          in
          if not served_from_cache then
            if stopping () then begin
              incr rejected;
              respond c
                (P.Rejected
                   { id; reason = P.Shutting_down; retry_after = 1.0 })
            end
            else if queued () >= cfg.queue_limit then begin
              incr rejected;
              respond c
                (P.Rejected
                   { id;
                     reason = P.Queue_full;
                     retry_after = cfg.retry_after })
            end
            else begin
              Queue.add
                { p_id = id; p_client = c.c_key; p_job = job; p_attempt = 0 }
                c.c_queue
            end
        in

        let handle_request c line =
          match Json.of_string line with
          | exception Json.Parse_error e ->
              (* framing is line-based, so one unparseable line means
                 the stream can no longer be trusted *)
              respond c
                (P.Error_response { message = "unparseable request: " ^ e });
              c.c_closing <- true
          | v -> (
              match P.request_of_json v with
              | Error e -> respond c (P.Error_response { message = e })
              | Ok (P.Submit { id; job }) -> handle_submit c id job
              | Ok P.Health -> respond c (P.Health_report (health ()))
              | Ok P.Ping -> respond c P.Pong)
        in

        let client_readable c =
          match Unix.read c.c_fd chunk 0 (Bytes.length chunk) with
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
            ->
              ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | exception Unix.Unix_error _ ->
              log "client %d: connection lost" c.c_key;
              drop_client ~lost:true c
          | 0 ->
              (* EOF: a clean goodbye if nothing is owed or pending;
                 [drop_client] counts it as a disconnect otherwise *)
              drop_client ~lost:true c
          | n ->
              Framing.Splitter.feed c.c_split (Bytes.sub_string chunk 0 n);
              let continue_ = ref true in
              while !continue_ && not c.c_closing do
                match Framing.Splitter.pop c.c_split with
                | None -> continue_ := false
                | Some line ->
                    if String.trim line <> "" then handle_request c line
              done
        in

        let client_writable c =
          let len = Buffer.length c.c_out - c.c_out_off in
          if len > 0 then begin
            let s = Buffer.sub c.c_out c.c_out_off (min len 65536) in
            match Unix.write_substring c.c_fd s 0 (String.length s) with
            | exception
                Unix.Unix_error
                  ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
                ()
            | exception Unix.Unix_error _ -> drop_client ~lost:true c
            | n ->
                c.c_out_off <- c.c_out_off + n;
                if c.c_out_off = Buffer.length c.c_out then begin
                  Buffer.clear c.c_out;
                  c.c_out_off <- 0;
                  if c.c_closing then drop_client c
                end
          end
          else if c.c_closing then drop_client c
        in

        let accept_clients () =
          let continue_ = ref true in
          while !continue_ do
            match Unix.accept listen_fd with
            | exception
                Unix.Unix_error
                  ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
                continue_ := false
            | exception Unix.Unix_error _ -> continue_ := false
            | fd, _ ->
                Unix.set_nonblock fd;
                incr next_key;
                let c =
                  {
                    c_key = !next_key;
                    c_fd = fd;
                    c_split = Framing.Splitter.create ();
                    c_out = Buffer.create 4096;
                    c_out_off = 0;
                    c_queue = Queue.create ();
                    c_last_served = 0;
                    c_closing = false;
                  }
                in
                Hashtbl.replace clients c.c_key c;
                Hashtbl.replace fd_client fd c
          done
        in

        (* -- main loop -- *)

        on_listening ();
        log "serving on %s with %d worker(s)" cfg.socket_path workers;
        let draining_logged = ref false in
        (try
           while
             (not (forced ()))
             && ((not (stopping ())) || queued () > 0 || inflight () > 0)
           do
             if stopping () && not !draining_logged then begin
               draining_logged := true;
               log "shutdown requested: draining %d queued + %d in-flight"
                 (queued ()) (inflight ())
             end;
             Pool.spawn_due pool ~want:workers;
             dispatch ();
             let reads = ref [] and writes = ref [] in
             if not (stopping ()) then reads := [ listen_fd ];
             Hashtbl.iter
               (fun fd c ->
                 if not c.c_closing then reads := fd :: !reads;
                 if Buffer.length c.c_out > c.c_out_off || c.c_closing then
                   writes := fd :: !writes)
               fd_client;
             let readable, writable =
               Pool.wait pool ~reads:!reads ~writes:!writes
             in
             List.iter
               (fun fd ->
                 if fd = listen_fd then accept_clients ()
                 else
                   match Hashtbl.find_opt fd_client fd with
                   | Some c -> client_readable c
                   | None -> ())
               readable;
             List.iter
               (fun fd ->
                 match Hashtbl.find_opt fd_client fd with
                 | Some c -> client_writable c
                 | None -> ())
               writable
           done
         with e ->
           (* a supervisor bug must still tear the pool down *)
           log "fatal: %s" (Printexc.to_string e));

        (* -- teardown: flush clients, retire workers, remove socket -- *)

        if forced () then log "forced shutdown: abandoning queued work";
        let final = health () in
        (* flush what clients are owed, briefly *)
        let flush_deadline = Unix.gettimeofday () +. 2.0 in
        let rec flush_clients () =
          let pending_fds =
            Hashtbl.fold
              (fun fd c acc ->
                if Buffer.length c.c_out > c.c_out_off then fd :: acc else acc)
              fd_client []
          in
          if pending_fds <> [] && Unix.gettimeofday () < flush_deadline then begin
            (match Unix.select [] pending_fds [] 0.1 with
            | _, writable, _ ->
                List.iter
                  (fun fd ->
                    match Hashtbl.find_opt fd_client fd with
                    | Some c -> client_writable c
                    | None -> ())
                  writable
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
            flush_clients ()
          end
        in
        flush_clients ();
        Hashtbl.iter (fun fd _ -> close_noerr fd) fd_client;
        Hashtbl.reset fd_client;
        Hashtbl.reset clients;
        (* retire workers: EOF first, SIGKILL stragglers — no orphans;
           a forced shutdown skips the grace period *)
        Pool.shutdown pool ~kill:(forced ());
        close_noerr listen_fd;
        (try Sys.remove cfg.socket_path with Sys_error _ -> ());
        Sys.set_signal Sys.sigterm prev_term;
        Sys.set_signal Sys.sigint prev_int;
        Sys.set_signal Sys.sigpipe prev_pipe;
        log "drained: %d completed, %d failed, %d timeouts" final.P.h_completed
          final.P.h_failed final.P.h_timeouts;
        Ok final
  end
