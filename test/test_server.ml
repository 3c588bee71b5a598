(* The serve daemon, tested as a real process: the server is forked
   into its own session (so the process group doubles as an orphan
   detector), spoken to over its Unix socket exactly as `critload
   submit` would, and torn down with SIGTERM after every test — exit
   status, socket removal, and an empty process group are asserted
   each time.

   The anchor property throughout: a payload served by the daemon —
   through a cache hit, a cache miss, a crash retry, or chaos — is
   byte-identical to [Parsweep.exec_job] run in this process. *)

module S = Critload.Server
module Pr = Critload.Protocol
module P = Critload.Parsweep
module Json = Gsim.Stats_io.Json
module F = Gsim.Stats_io.Framing

let cfg = Gsim.Config.default |> Gsim.Config.with_caps ~max_warp_insts:4_000 ()

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "critload-server-test-%d-%d" (Unix.getpid ()) !n)
    in
    (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d

let rm_rf dir =
  match Sys.readdir dir with
  | files ->
      Array.iter (fun f -> try Sys.remove (Filename.concat dir f) with _ -> ())
        files;
      (try Unix.rmdir dir with _ -> ())
  | exception Sys_error _ -> ()

let write_all fd s =
  let b = Bytes.of_string s in
  let len = Bytes.length b in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write fd b !off (len - !off)
  done

(* ---- running a server under test ---- *)

let base_config socket_path =
  { (S.default_config ~socket_path) with S.workers = 2; log = None }

(* Fork the server as a session leader: every process it spawns lives
   in its group, so `kill -pgid 0` after it exits is a whole-tree
   orphan check.  The daemon starts with SIGPIPE at its default, not
   the test binary's ignore, so its own handling is what keeps it alive
   when a client vanishes. *)
let start_server scfg =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      (try ignore (Unix.setsid ()) with Unix.Unix_error _ -> ());
      Sys.set_signal Sys.sigpipe Sys.Signal_default;
      let code = match S.run scfg with Ok _ -> 0 | Error _ -> 1 in
      Unix._exit code
  | pid ->
      let deadline = Unix.gettimeofday () +. 10. in
      let rec wait_up () =
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        match Unix.connect fd (Unix.ADDR_UNIX scfg.S.socket_path) with
        | () -> Unix.close fd
        | exception Unix.Unix_error _ ->
            Unix.close fd;
            if Unix.gettimeofday () > deadline then
              Alcotest.fail "server did not come up";
            Unix.sleepf 0.02;
            wait_up ()
      in
      wait_up ();
      pid

let assert_no_orphans pid =
  match Unix.kill (-pid) 0 with
  | () -> Alcotest.fail "processes left behind in the server's group"
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> ()

(* SIGTERM, wait, and assert the full clean-exit contract. *)
let stop_server ?(expect_status = 0) scfg pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let _, status = Unix.waitpid [] pid in
  (match status with
  | Unix.WEXITED c ->
      Alcotest.(check int) "server exit status" expect_status c
  | Unix.WSIGNALED s -> Alcotest.failf "server killed by signal %d" s
  | Unix.WSTOPPED _ -> Alcotest.fail "server stopped");
  Alcotest.(check bool) "socket file removed" false
    (Sys.file_exists scfg.S.socket_path);
  assert_no_orphans pid

(* ---- a test client ---- *)

module Client = struct
  type t = { fd : Unix.file_descr; split : F.Splitter.t; buf : Bytes.t }

  let connect path =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    { fd; split = F.Splitter.create (); buf = Bytes.create 65536 }

  let send t req = write_all t.fd (F.frame (Pr.request_to_json req))

  (* several framed requests in one write: lands as one read batch on
     the server, which the backpressure test depends on *)
  let send_batch t reqs =
    write_all t.fd
      (String.concat ""
         (List.map (fun r -> F.frame (Pr.request_to_json r)) reqs))

  exception Closed
  exception Timeout

  let recv ?(timeout = 60.) t =
    let deadline = Unix.gettimeofday () +. timeout in
    let rec line () =
      match F.Splitter.pop t.split with
      | Some l -> l
      | None ->
          let left = deadline -. Unix.gettimeofday () in
          if left <= 0. then raise Timeout;
          (match Unix.select [ t.fd ] [] [] left with
          | [], _, _ -> raise Timeout
          | _ -> (
              match Unix.read t.fd t.buf 0 (Bytes.length t.buf) with
              | 0 -> raise Closed
              | n -> F.Splitter.feed t.split (Bytes.sub_string t.buf 0 n)));
          line ()
    in
    match Pr.response_of_json (Json.of_string (line ())) with
    | Ok r -> r
    | Error e -> Alcotest.failf "client: bad response: %s" e

  let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
end

let submit c id job = Client.send c (Pr.Submit { id; job })

let payload_str = function
  | Pr.Result { payload; _ } -> Json.to_string payload
  | Pr.Job_failed { message; _ } -> Alcotest.failf "job failed: %s" message
  | Pr.Job_timeout _ -> Alcotest.fail "job timed out"
  | Pr.Rejected _ -> Alcotest.fail "job rejected"
  | _ -> Alcotest.fail "unexpected response"

let health_of c =
  Client.send c Pr.Health;
  match Client.recv c with
  | Pr.Health_report h -> h
  | _ -> Alcotest.fail "expected a health report"

(* Read responses until [n] jobs have settled; Rejected submissions
   are resubmitted after the server's hint.  Returns id -> response
   for the settled jobs only. *)
let collect ?(resubmit = fun _ -> ()) c n =
  let settled = Hashtbl.create n in
  while Hashtbl.length settled < n do
    match Client.recv c with
    | Pr.Rejected { id; retry_after; _ } ->
        Unix.sleepf retry_after;
        resubmit id
    | Pr.Result { id; _ } as r -> Hashtbl.replace settled id r
    | Pr.Job_failed { id; _ } as r -> Hashtbl.replace settled id r
    | Pr.Job_timeout { id; _ } as r -> Hashtbl.replace settled id r
    | Pr.Pong | Pr.Health_report _ -> ()
    | Pr.Error_response { message } ->
        Alcotest.failf "server error: %s" message
  done;
  settled

(* ---- protocol round-trips (no server) ---- *)

let test_protocol_roundtrip () =
  let j = P.job ~cfg ~warmup:false ~profile:true "2mm" in
  (match Pr.job_of_json (Pr.job_to_json j) with
  | Ok j' ->
      Alcotest.(check string) "job digest survives the wire"
        (P.job_digest j) (P.job_digest j');
      Alcotest.(check bool) "job survives the wire" true (j = j')
  | Error e -> Alcotest.failf "job round-trip: %s" e);
  (match Pr.job_of_json (Json.Obj [ ("app", Json.Str "2mm") ]) with
  | Ok j' ->
      Alcotest.(check bool) "defaults fill an app-only job" true
        (P.job "2mm" = j')
  | Error e -> Alcotest.failf "minimal job: %s" e);
  (* older clients send a fast_forward member; a submit decodes the
     same job with or without it *)
  (match Pr.job_to_json j with
  | Json.Obj members ->
      let submit job =
        Pr.request_of_json
          (Json.Obj
             [ ("schema", Json.Str Pr.schema); ("op", Json.Str "submit");
               ("id", Json.Str "ff"); ("job", job) ])
      in
      let legacy = members @ [ ("fast_forward", Json.Bool false) ] in
      Alcotest.(check bool) "a fast_forward member is ignored" true
        (match (submit (Json.Obj legacy), submit (Json.Obj members)) with
        | Ok a, Ok b -> a = b
        | _ -> false)
  | _ -> Alcotest.fail "job_to_json is not an object");
  (match Pr.job_of_json (Json.Str "nope") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-object job decoded");
  let reqs =
    [ Pr.Submit { id = "a-1"; job = j }; Pr.Health; Pr.Ping ]
  in
  List.iter
    (fun r ->
      match Pr.request_of_json (Json.of_string (Json.to_string (Pr.request_to_json r))) with
      | Ok r' -> (
          match (r, r') with
          | Pr.Submit { id; job }, Pr.Submit { id = id'; job = job' } ->
              Alcotest.(check string) "submit id" id id';
              Alcotest.(check string) "submit job" (P.job_digest job)
                (P.job_digest job')
          | Pr.Health, Pr.Health | Pr.Ping, Pr.Ping -> ()
          | _ -> Alcotest.fail "request changed shape on the wire")
      | Error e -> Alcotest.failf "request round-trip: %s" e)
    reqs;
  (* distinct counter values catch any health field transposition *)
  let h =
    {
      Pr.h_queued = 1; h_inflight = 2; h_clients = 3; h_workers = 4;
      h_alive = 5; h_accepted = 6; h_completed = 7; h_failed = 8;
      h_timeouts = 9; h_rejected = 10; h_cache_hits = 11;
      h_cache_misses = 12; h_cache_damaged = 13; h_crashes = 14;
      h_restarts = 15; h_disconnects = 16; h_worker_peak_rss_kb = 17;
    }
  in
  Alcotest.(check bool) "health round-trips field-exactly" true
    (Pr.health_of_json (Json.of_string (Json.to_string (Pr.health_to_json h)))
    = h);
  let resps =
    [ Pr.Result { id = "r"; payload = Json.Obj [ ("x", Json.Int 1) ] };
      Pr.Job_failed { id = "f"; message = "boom" };
      Pr.Job_timeout { id = "t"; after = 1.5 };
      Pr.Rejected { id = "q"; reason = Pr.Queue_full; retry_after = 0.25 };
      Pr.Rejected { id = "s"; reason = Pr.Shutting_down; retry_after = 1.0 };
      Pr.Health_report h; Pr.Pong;
      Pr.Error_response { message = "nope" } ]
  in
  List.iter
    (fun r ->
      match Pr.response_of_json (Json.of_string (Json.to_string (Pr.response_to_json r))) with
      | Ok r' ->
          Alcotest.(check bool) "response round-trips" true (r = r')
      | Error e -> Alcotest.failf "response round-trip: %s" e)
    resps;
  (match Pr.response_of_json (Json.Obj [ ("type", Json.Str "martian") ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown response type decoded")

(* ---- basic service: results byte-identical to in-process runs ---- *)

let test_submit_byte_identity () =
  let scfg = base_config (Filename.temp_file "critload" ".sock") in
  let pid = start_server scfg in
  let jobs =
    [ P.job ~cfg ~warmup:false "2mm"; P.job ~cfg ~warmup:false "gaus";
      P.job ~cfg:Gsim.Config.default ~mode:P.Func "2mm" ]
  in
  let c = Client.connect scfg.S.socket_path in
  Client.send c Pr.Ping;
  (match Client.recv c with
  | Pr.Pong -> ()
  | _ -> Alcotest.fail "expected pong");
  List.iteri (fun i j -> submit c (string_of_int i) j) jobs;
  let settled = collect c (List.length jobs) in
  List.iteri
    (fun i j ->
      Alcotest.(check string)
        (Printf.sprintf "job %d byte-identical to exec_job" i)
        (Json.to_string (P.exec_job j))
        (payload_str (Hashtbl.find settled (string_of_int i))))
    jobs;
  let h = health_of c in
  Alcotest.(check int) "accepted" 3 h.Pr.h_accepted;
  Alcotest.(check int) "completed" 3 h.Pr.h_completed;
  Alcotest.(check int) "failed" 0 h.Pr.h_failed;
  Alcotest.(check int) "all workers alive" 2 h.Pr.h_alive;
  Client.close c;
  stop_server scfg pid

(* ---- a bad request line answers with an error, not a crash ---- *)

let test_bad_request_line () =
  let scfg =
    { (base_config (Filename.temp_file "critload" ".sock")) with S.workers = 1 }
  in
  let pid = start_server scfg in
  (* an intelligible-but-unknown request keeps the connection *)
  let c = Client.connect scfg.S.socket_path in
  write_all c.Client.fd "{\"op\": \"martian\"}\n";
  (match Client.recv c with
  | Pr.Error_response _ -> ()
  | _ -> Alcotest.fail "expected an error response");
  Client.send c Pr.Ping;
  (match Client.recv c with
  | Pr.Pong -> ()
  | _ -> Alcotest.fail "connection should survive an unknown request");
  Client.close c;
  (* an unparseable line poisons the stream: error, then close *)
  let c2 = Client.connect scfg.S.socket_path in
  write_all c2.Client.fd "this is not JSON\n";
  (match Client.recv c2 with
  | Pr.Error_response _ -> ()
  | _ -> Alcotest.fail "expected an error response");
  (match Client.recv c2 with
  | exception Client.Closed -> ()
  | _ -> Alcotest.fail "expected the server to close the stream");
  Client.close c2;
  stop_server scfg pid

(* ---- a client that cannot take its answer does not kill the daemon ---- *)

(* The first client shuts its receive side, then asks for health: on
   Linux every write to a Unix socket whose peer has done that fails
   with EPIPE, so the daemon (SIGPIPE at its default, see
   [start_server]) cannot answer it.  It must drop that client and keep
   serving: a second client sees itself as the only one left. *)
let test_vanished_reader () =
  let scfg =
    { (base_config (Filename.temp_file "critload" ".sock")) with S.workers = 1 }
  in
  let pid = start_server scfg in
  let c = Client.connect scfg.S.socket_path in
  Unix.shutdown c.Client.fd Unix.SHUTDOWN_RECEIVE;
  Client.send c Pr.Health;
  let c2 = Client.connect scfg.S.socket_path in
  let deadline = Unix.gettimeofday () +. 10. in
  let rec until_dropped () =
    if (health_of c2).Pr.h_clients > 1 then begin
      if Unix.gettimeofday () > deadline then
        Alcotest.fail "daemon kept the client it could not answer";
      Unix.sleepf 0.02;
      until_dropped ()
    end
  in
  until_dropped ();
  Client.close c;
  Client.close c2;
  stop_server scfg pid

(* ---- a bad config is refused before it reaches a worker ---- *)

(* A submit whose config has a 0-lane warp (a SIGFPE in a worker under
   -unsafe) is answered with an error naming the field, and no worker
   is lost.  After a miss, health reports the workers' peak memory. *)
let test_bad_config_refused () =
  let scfg =
    { (base_config (Filename.temp_file "critload" ".sock")) with S.workers = 1 }
  in
  let pid = start_server scfg in
  let c = Client.connect scfg.S.socket_path in
  submit c "miss" (P.job ~cfg ~warmup:false "2mm");
  ignore (payload_str (Hashtbl.find (collect c 1) "miss"));
  if Sys.file_exists "/proc/self/status" then
    Alcotest.(check bool) "workers' peak memory reported" true
      ((health_of c).Pr.h_worker_peak_rss_kb > 0);
  let rec set path x v =
    match (path, v) with
    | [], _ -> x
    | k :: rest, Json.Obj ms ->
        Json.Obj (List.map (fun (k', y) -> (k', if k' = k then set rest x y else y)) ms)
    | _ :: _, v -> v
  in
  let submit_json = Pr.request_to_json (Pr.Submit { id = "bad"; job = P.job "2mm" }) in
  write_all c.Client.fd
    (F.frame (set [ "job"; "config"; "warp_size" ] (Json.Int 0) submit_json));
  (match Client.recv c with
  | Pr.Error_response { message } ->
      Alcotest.(check bool) ("the error names the field: " ^ message) true
        (String.ends_with ~suffix:"warp_size = 0 is outside [1, 32]" message)
  | r ->
      Alcotest.failf "expected an error response, got %s"
        (Json.to_string (Pr.response_to_json r)));
  let h = health_of c in
  Alcotest.(check int) "no worker crashed" 0 h.Pr.h_crashes;
  Alcotest.(check int) "the worker is alive" 1 h.Pr.h_alive;
  Client.close c;
  stop_server scfg pid

(* ---- backpressure: the queue is bounded, rejects carry a hint ---- *)

let test_backpressure () =
  let scfg =
    {
      (base_config (Filename.temp_file "critload" ".sock")) with
      S.workers = 1;
      queue_limit = 1;
    }
  in
  let pid = start_server scfg in
  let j = P.job ~cfg ~warmup:false "2mm" in
  let c = Client.connect scfg.S.socket_path in
  let n = 5 in
  Client.send_batch c
    (List.init n (fun i -> Pr.Submit { id = string_of_int i; job = j }));
  let rejected = ref 0 and completed = ref 0 in
  for _ = 1 to n do
    match Client.recv c with
    | Pr.Rejected { reason = Pr.Queue_full; retry_after; _ } ->
        incr rejected;
        Alcotest.(check bool) "retry-after hint is positive" true
          (retry_after > 0.)
    | Pr.Result _ -> incr completed
    | r ->
        Alcotest.failf "unexpected response: %s"
          (Json.to_string (Pr.response_to_json r))
  done;
  Alcotest.(check int) "every submission answered" n (!rejected + !completed);
  Alcotest.(check bool) "at least one accepted" true (!completed >= 1);
  Alcotest.(check bool) "at least one rejected" true (!rejected >= 1);
  let h = health_of c in
  Alcotest.(check int) "rejections counted" !rejected h.Pr.h_rejected;
  (* a rejected job resubmitted after the hint completes normally *)
  Unix.sleepf scfg.S.retry_after;
  submit c "again" j;
  let settled = collect ~resubmit:(fun id -> submit c id j) c 1 in
  ignore (payload_str (Hashtbl.find settled "again"));
  Client.close c;
  stop_server scfg pid

(* ---- deadlines: an overdue job times out, the pool recovers ---- *)

let test_job_timeout () =
  let scfg =
    {
      (base_config (Filename.temp_file "critload" ".sock")) with
      S.workers = 1;
      job_timeout = 0.15;
    }
  in
  let pid = start_server scfg in
  let slow_cfg =
    Gsim.Config.default |> Gsim.Config.with_caps ~max_warp_insts:50_000_000 ()
  in
  let c = Client.connect scfg.S.socket_path in
  submit c "slow" (P.job ~cfg:slow_cfg ~scale:Workloads.App.Large "srad");
  (match Client.recv c with
  | Pr.Job_timeout { id = "slow"; after } ->
      Alcotest.(check (float 0.001)) "reported deadline" 0.15 after
  | r ->
      Alcotest.failf "expected a timeout, got %s"
        (Json.to_string (Pr.response_to_json r)))
  ;
  (* the slot was respawned without backoff: the next job just runs *)
  let j = P.job ~cfg ~warmup:false "2mm" in
  submit c "fast" j;
  let settled = collect c 1 in
  Alcotest.(check string) "post-timeout job byte-identical"
    (Json.to_string (P.exec_job j))
    (payload_str (Hashtbl.find settled "fast"));
  let h = health_of c in
  Alcotest.(check int) "timeout counted" 1 h.Pr.h_timeouts;
  Alcotest.(check int) "worker alive again" 1 h.Pr.h_alive;
  Client.close c;
  stop_server scfg pid

(* ---- chaos: killed workers are respawned, jobs retried ---- *)

let test_crash_retry_chaos () =
  let scfg =
    {
      (base_config (Filename.temp_file "critload" ".sock")) with
      S.chaos = Some { S.kill_every = 1 };
      (* every first-attempt job kills its worker *)
      backoff_base = 0.01;
    }
  in
  let pid = start_server scfg in
  let jobs =
    [ P.job ~cfg ~warmup:false "2mm"; P.job ~cfg ~warmup:false "gaus";
      P.job ~cfg ~warmup:false "lu" ]
  in
  let c = Client.connect scfg.S.socket_path in
  List.iteri (fun i j -> submit c (string_of_int i) j) jobs;
  let settled = collect c (List.length jobs) in
  List.iteri
    (fun i j ->
      Alcotest.(check string)
        (Printf.sprintf "job %d survives its crash byte-identically" i)
        (Json.to_string (P.exec_job j))
        (payload_str (Hashtbl.find settled (string_of_int i))))
    jobs;
  let h = health_of c in
  Alcotest.(check bool) "crashes were injected" true (h.Pr.h_crashes >= 3);
  Alcotest.(check int) "no job failed" 0 h.Pr.h_failed;
  Alcotest.(check int) "all jobs completed" 3 h.Pr.h_completed;
  Client.close c;
  stop_server scfg pid

(* ---- cache: hits are served, damage degrades to a counted miss ---- *)

let test_cache_hit_and_damage () =
  let dir = fresh_dir () in
  let hit_job = P.job ~cfg ~warmup:false "2mm" in
  let torn_job = P.job ~cfg ~warmup:false "gaus" in
  let hit_payload = P.exec_job hit_job in
  let torn_payload = P.exec_job torn_job in
  P.cache_store ~dir hit_job hit_payload;
  P.cache_store ~dir torn_job torn_payload;
  (* tear the second entry mid-write *)
  let entry = Filename.concat dir (P.job_digest torn_job ^ ".json") in
  let whole =
    let ic = open_in entry in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let oc = open_out entry in
  output_string oc (String.sub whole 0 (String.length whole / 2));
  close_out oc;
  let scfg =
    {
      (base_config (Filename.temp_file "critload" ".sock")) with
      S.cache_dir = Some dir;
    }
  in
  let pid = start_server scfg in
  let c = Client.connect scfg.S.socket_path in
  submit c "hit" hit_job;
  submit c "torn" torn_job;
  let settled = collect c 2 in
  Alcotest.(check string) "cached payload served byte-identically"
    (Json.to_string hit_payload)
    (payload_str (Hashtbl.find settled "hit"));
  Alcotest.(check string) "damaged entry recomputed byte-identically"
    (Json.to_string torn_payload)
    (payload_str (Hashtbl.find settled "torn"));
  let h = health_of c in
  Alcotest.(check int) "hit counted" 1 h.Pr.h_cache_hits;
  Alcotest.(check int) "damage counted" 1 h.Pr.h_cache_damaged;
  Client.close c;
  (* completing the job repaired the torn entry *)
  (match P.cache_probe ~dir torn_job with
  | P.Cache_hit v ->
      Alcotest.(check string) "store repaired in place"
        (Json.to_string torn_payload) (Json.to_string v)
  | _ -> Alcotest.fail "torn entry was not repaired");
  stop_server scfg pid;
  rm_rf dir

(* ---- fairness: one greedy client cannot starve another ---- *)

let test_fairness () =
  let scfg =
    { (base_config (Filename.temp_file "critload" ".sock")) with S.workers = 1 }
  in
  let pid = start_server scfg in
  (* slow enough that per-job ordering is observable *)
  let j =
    P.job
      ~cfg:
        (Gsim.Config.default |> Gsim.Config.with_caps ~max_warp_insts:150_000 ())
      ~warmup:false "2mm"
  in
  let n_greedy = 4 in
  let greedy = Client.connect scfg.S.socket_path in
  Client.send_batch greedy
    (List.init n_greedy (fun i ->
         Pr.Submit { id = "g" ^ string_of_int i; job = j }));
  (* let the greedy batch get accepted and its first job dispatched *)
  Unix.sleepf 0.1;
  let single = Client.connect scfg.S.socket_path in
  submit single "s" j;
  (* the single job must settle before the greedy client's tail *)
  ignore (collect single 1);
  (* count what the greedy client had settled by then: round-robin
     means at most the in-flight job plus maybe one more, never the
     whole batch *)
  let greedy_done = ref 0 in
  (try
     while !greedy_done < n_greedy do
       match Client.recv ~timeout:0.05 greedy with
       | Pr.Result _ -> incr greedy_done
       | _ -> ()
     done
   with Client.Timeout -> ());
  Alcotest.(check bool)
    (Printf.sprintf
       "single client served before the greedy tail (greedy had %d/%d)"
       !greedy_done n_greedy)
    true (!greedy_done <= 2);
  (* drain the rest so shutdown is clean *)
  ignore (collect greedy (n_greedy - !greedy_done));
  Client.close greedy;
  Client.close single;
  stop_server scfg pid

(* ---- graceful shutdown: drain in-flight, reject new work ---- *)

let test_graceful_shutdown_drain () =
  let scfg = base_config (Filename.temp_file "critload" ".sock") in
  let pid = start_server scfg in
  (* both jobs must still be running when "late" arrives, 0.2 s after
     they are submitted: a job that finishes first lets the daemon
     drain and exit, and "late" then meets a closed socket.  This one
     runs about 0.9 s (a Small 2mm job ran 0.1 s). *)
  let j =
    P.job
      ~cfg:
        (Gsim.Config.default |> Gsim.Config.with_caps ~max_warp_insts:1_000_000 ())
      ~warmup:false ~scale:Workloads.App.Default "2mm"
  in
  let c = Client.connect scfg.S.socket_path in
  submit c "a" j;
  submit c "b" j;
  Unix.sleepf 0.15 (* both dispatched *);
  Unix.kill pid Sys.sigterm;
  Unix.sleepf 0.05 (* let the handler land *);
  submit c "late" j;
  let seen_late_reject = ref false in
  let settled = Hashtbl.create 4 in
  while Hashtbl.length settled < 2 do
    match Client.recv c with
    | Pr.Rejected { id = "late"; reason = Pr.Shutting_down; _ } ->
        seen_late_reject := true
    | Pr.Result { id; _ } as r when id = "a" || id = "b" ->
        Hashtbl.replace settled id r
    | r ->
        Alcotest.failf "unexpected during drain: %s"
          (Json.to_string (Pr.response_to_json r))
  done;
  Alcotest.(check bool) "submission during drain rejected" true
    !seen_late_reject;
  let expect = Json.to_string (P.exec_job j) in
  Alcotest.(check string) "drained job a intact" expect
    (payload_str (Hashtbl.find settled "a"));
  Alcotest.(check string) "drained job b intact" expect
    (payload_str (Hashtbl.find settled "b"));
  let _, status = Unix.waitpid [] pid in
  (match status with
  | Unix.WEXITED 0 -> ()
  | _ -> Alcotest.fail "server did not exit cleanly after draining");
  Alcotest.(check bool) "socket removed" false
    (Sys.file_exists scfg.S.socket_path);
  assert_no_orphans pid;
  Client.close c

(* ---- the chaos/soak harness ---- *)

(* >= 200 concurrent requests from forked client processes, against a
   daemon with injected worker SIGKILLs, a pre-damaged cache entry,
   and clients that vanish without reading.  Every settled response
   must be byte-identical to the serial baseline computed up front;
   the daemon must survive it all and drain cleanly. *)
let test_soak () =
  let dir = fresh_dir () in
  let jobs =
    [| P.job ~cfg ~warmup:false "2mm"; P.job ~cfg ~warmup:false "gaus";
       P.job ~cfg ~warmup:false "lu"; P.job ~cfg ~warmup:false "grm";
       P.job ~cfg:Gsim.Config.default ~mode:P.Func "2mm";
       P.job ~cfg:Gsim.Config.default ~mode:P.Func "gaus" |]
  in
  (* serial baseline, computed before any chaos exists *)
  let expected = Array.map (fun j -> Json.to_string (P.exec_job j)) jobs in
  (* warm two entries: one stays intact (hits), one is torn (damage) *)
  P.cache_store ~dir jobs.(0) (Json.of_string expected.(0));
  P.cache_store ~dir jobs.(1) (Json.of_string expected.(1));
  let entry = Filename.concat dir (P.job_digest jobs.(1) ^ ".json") in
  let whole =
    let ic = open_in entry in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let oc = open_out entry in
  output_string oc (String.sub whole 0 (String.length whole / 2));
  close_out oc;
  let scfg =
    {
      (base_config (Filename.temp_file "critload" ".sock")) with
      S.workers = 4;
      cache_dir = Some dir;
      chaos = Some { S.kill_every = 3 };
      queue_limit = 16;
      retry_after = 0.05;
      backoff_base = 0.01;
      backoff_cap = 0.1;
    }
  in
  let pid = start_server scfg in
  let n_clients = 8 and per_client = 26 in
  (* client process: pipeline everything, absorb rejections, verify
     every payload against the baseline; exit 0 only if all 26 match *)
  let run_client ci =
    let c = Client.connect scfg.S.socket_path in
    let pick k = (ci * 7 + k) mod Array.length jobs in
    for k = 0 to per_client - 1 do
      submit c (string_of_int k) jobs.(pick k)
    done;
    let settled =
      collect
        ~resubmit:(fun id -> submit c id jobs.(pick (int_of_string id)))
        c per_client
    in
    let ok = ref true in
    for k = 0 to per_client - 1 do
      match Hashtbl.find_opt settled (string_of_int k) with
      | Some (Pr.Result { payload; _ }) ->
          if Json.to_string payload <> expected.(pick k) then ok := false
      | _ -> ok := false
    done;
    Client.close c;
    if !ok then 0 else 1
  in
  let client_pids =
    List.init n_clients (fun ci ->
        flush stdout;
        flush stderr;
        match Unix.fork () with
        | 0 ->
            let code = try run_client ci with _ -> 2 in
            Unix._exit code
        | pid -> pid)
  in
  (* two clients that vanish rudely: submit, never read, close *)
  for _ = 1 to 2 do
    let c = Client.connect scfg.S.socket_path in
    submit c "gone-0" jobs.(2);
    submit c "gone-1" jobs.(3);
    Unix.sleepf 0.05;
    Client.close c
  done;
  List.iteri
    (fun i pid ->
      let _, status = Unix.waitpid [] pid in
      match status with
      | Unix.WEXITED 0 -> ()
      | Unix.WEXITED c ->
          Alcotest.failf "soak client %d failed with code %d" i c
      | _ -> Alcotest.failf "soak client %d died" i)
    client_pids;
  let c = Client.connect scfg.S.socket_path in
  let h = health_of c in
  Client.close c;
  Alcotest.(check bool)
    (Printf.sprintf "soak volume >= 200 requests (got %d)" h.Pr.h_accepted)
    true
    (h.Pr.h_accepted >= 200);
  Alcotest.(check bool)
    (Printf.sprintf "chaos injected crashes (got %d)" h.Pr.h_crashes)
    true (h.Pr.h_crashes >= 1);
  Alcotest.(check bool) "torn entry detected" true (h.Pr.h_cache_damaged >= 1);
  Alcotest.(check bool)
    (Printf.sprintf "cache served hits (got %d)" h.Pr.h_cache_hits)
    true (h.Pr.h_cache_hits >= 1);
  Alcotest.(check int) "nothing failed" 0 h.Pr.h_failed;
  Alcotest.(check int) "nothing timed out" 0 h.Pr.h_timeouts;
  Alcotest.(check int) "all workers alive at the end" 4 h.Pr.h_alive;
  stop_server scfg pid;
  rm_rf dir

let () =
  (* a client's write to a socket the daemon has closed fails the case
     that made it (EPIPE) instead of killing the binary and every case
     after it; [start_server] restores the default for the daemon *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Alcotest.run "server"
    [
      ( "protocol",
        [ Alcotest.test_case "round-trips" `Quick test_protocol_roundtrip ] );
      ( "serve",
        [
          Alcotest.test_case "byte-identity" `Slow test_submit_byte_identity;
          Alcotest.test_case "bad request line" `Quick test_bad_request_line;
          Alcotest.test_case "vanished reader" `Quick test_vanished_reader;
          Alcotest.test_case "bad config refused" `Quick
            test_bad_config_refused;
          Alcotest.test_case "backpressure" `Slow test_backpressure;
          Alcotest.test_case "job timeout" `Slow test_job_timeout;
          Alcotest.test_case "crash retry (chaos)" `Slow
            test_crash_retry_chaos;
          Alcotest.test_case "cache hit + damage" `Slow
            test_cache_hit_and_damage;
          Alcotest.test_case "fairness" `Slow test_fairness;
          Alcotest.test_case "graceful shutdown" `Slow
            test_graceful_shutdown_drain;
        ] );
      ("soak", [ Alcotest.test_case "chaos soak" `Slow test_soak ]);
    ]
