(* Interrupting the real CLI binary: `critload sweep` stopped by
   SIGTERM or SIGINT must exit 130 with no document and no orphaned
   pool workers, both mid-run and while it probes a cold cache; the
   same command run again must serve every finished job from the cache
   and rebuild the uninterrupted document byte-for-byte.  `critload
   serve` stopped by SIGTERM must drain, remove its socket, exit 0, and
   leave no workers behind.

   Children run via fork+exec as session leaders, so "no orphans"
   is checked the same way as in test_server: after the child exits,
   its process group must be empty. *)

module P = Critload.Parsweep
module Pr = Critload.Protocol
module Json = Gsim.Stats_io.Json
module F = Gsim.Stats_io.Framing

(* The CLI sits beside this test's directory in the build tree, so the
   test runs from any working directory. *)
let cli =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat Filename.parent_dir_name "bin/critload_cli.exe")

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "critload-shutdown-test-%d-%d" (Unix.getpid ()) !n)
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

(* fork+exec the CLI as a session leader, stdout/stderr to [log] *)
let spawn ?(log = "/dev/null") argv =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      (try ignore (Unix.setsid ()) with Unix.Unix_error _ -> ());
      let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
      Unix.dup2 fd Unix.stdout;
      Unix.dup2 fd Unix.stderr;
      Unix.close fd;
      (try Unix.execv cli argv with _ -> ());
      Unix._exit 127
  | pid -> pid

let wait_exit pid =
  let _, status = Unix.waitpid [] pid in
  match status with
  | Unix.WEXITED c -> c
  | Unix.WSIGNALED s -> Alcotest.failf "child killed by signal %d" s
  | Unix.WSTOPPED _ -> Alcotest.fail "child stopped"

let assert_no_orphans pid =
  match Unix.kill (-pid) 0 with
  | () -> Alcotest.fail "processes left behind in the child's group"
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> ()

let read_file path =
  let ic = open_in path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let describe_status = function
  | Unix.WEXITED c -> Printf.sprintf "exited with status %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "was killed by signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "was stopped by signal %d" s

(* Poll [pred] until it holds; fail at once if child [pid] exits first
   (it can no longer make [pred] true), or after [timeout] seconds. *)
let wait_for ?(timeout = 60.) ~pid what pred =
  let deadline = Unix.gettimeofday () +. timeout in
  while not (pred ()) do
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _, status ->
        Alcotest.failf "child %s while waiting for %s" (describe_status status)
          what);
    if Unix.gettimeofday () > deadline then
      Alcotest.failf "timed out waiting for %s" what;
    Unix.sleepf 0.01
  done

(* ---- sweep: interrupt, then rerun from the cache ---- *)

let sweep_args ?(cap = 40_000) ~store ~out () =
  Array.of_list
    ([ cli; "sweep"; "--apps"; "2mm,gaus,lu,grm"; "--scale"; "small";
       "--cap"; string_of_int cap; "--no-warmup"; "--jobs"; "1"; "--out";
       out ]
    @
    match store with
    | Some d -> [ "--cache-dir"; d ]
    | None -> [ "--no-cache" ])

(* the finished entries of a store: an entry is written as
   [<digest>.json.tmp.<pid>] and renamed to [<digest>.json] once whole *)
let entries store =
  List.filter
    (fun f -> Filename.check_suffix f ".json")
    (Array.to_list (Sys.readdir store))

let count_lines ~suffix log =
  List.length
    (List.filter (String.ends_with ~suffix)
       (String.split_on_char '\n' (read_file log)))

let test_sweep_interrupt signal () =
  let dir = fresh_dir () in
  let store = Filename.concat dir "store" in
  let out = Filename.concat dir "doc.json" in
  let log = Filename.concat dir "sweep.log" in
  let pid = spawn ~log (sweep_args ~store:(Some store) ~out ()) in
  (* interrupt once the first job is stored, mid-sweep *)
  wait_for ~pid "the first cache entry" (fun () ->
      Sys.file_exists store && entries store <> []);
  Unix.kill pid signal;
  Alcotest.(check int) "interrupted sweep exits 130" 130 (wait_exit pid);
  assert_no_orphans pid;
  Alcotest.(check bool) "no final document yet" false (Sys.file_exists out);
  let stored = List.length (entries store) in
  Alcotest.(check bool)
    (Printf.sprintf "the store is partial (%d entries)" stored)
    true
    (stored >= 1 && stored < 4);
  Alcotest.(check int) "no temporary file left in the store" stored
    (Array.length (Sys.readdir store));
  (* another cap is another digest: nothing may be served *)
  let olog = log ^ ".other-cap" in
  let opid =
    spawn ~log:olog (sweep_args ~cap:20_000 ~store:(Some store) ~out ())
  in
  Alcotest.(check int) "other-cap sweep exits 0" 0 (wait_exit opid);
  Alcotest.(check int) "other-cap sweep serves nothing from the cache" 0
    (count_lines ~suffix:" cached" olog);
  (* the same command again: the finished jobs come from the store *)
  let rlog = log ^ ".rerun" in
  let rpid = spawn ~log:rlog (sweep_args ~store:(Some store) ~out ()) in
  Alcotest.(check int) "rerun exits 0" 0 (wait_exit rpid);
  Alcotest.(check int) "rerun serves every finished job from the cache"
    stored
    (count_lines ~suffix:" cached" rlog);
  (* byte-identical to a never-interrupted run *)
  let out2 = Filename.concat dir "clean.json" in
  let cpid =
    spawn ~log:(log ^ ".clean") (sweep_args ~store:None ~out:out2 ())
  in
  Alcotest.(check int) "clean sweep exits 0" 0 (wait_exit cpid);
  Alcotest.(check string) "rerun document byte-identical to clean run"
    (read_file out2) (read_file out);
  rm_rf store;
  rm_rf dir

(* Ctrl-C while a cold store is probed, before any job starts: the
   probe fingerprints each app at Large scale (seconds in all), and the
   interrupt must end the sweep rather than turn into a cache miss *)
let test_sweep_interrupt_probing () =
  let dir = fresh_dir () in
  let out = Filename.concat dir "doc.json" in
  let pid =
    spawn ~log:(Filename.concat dir "sweep.log")
      [| cli; "sweep"; "--scale"; "large"; "--cap"; "1"; "--no-warmup";
         "--cache-dir"; Filename.concat dir "store"; "--jobs"; "1"; "--out";
         out |]
  in
  Unix.sleepf 0.3;
  Unix.kill pid Sys.sigint;
  Alcotest.(check int) "interrupted probe exits 130" 130 (wait_exit pid);
  assert_no_orphans pid;
  Alcotest.(check bool) "no document" false (Sys.file_exists out);
  rm_rf (Filename.concat dir "store");
  rm_rf dir

(* ---- serve: SIGTERM drains and leaves nothing behind ---- *)

let test_serve_sigterm () =
  let dir = fresh_dir () in
  let socket = Filename.concat dir "daemon.sock" in
  let log = Filename.concat dir "serve.log" in
  let pid =
    spawn ~log
      [| cli; "serve"; "--socket"; socket; "--jobs"; "2"; "--no-cache";
         "--quiet" |]
  in
  wait_for ~pid "the daemon's socket" (fun () -> Sys.file_exists socket);
  (* one in-flight job when the signal lands *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  let job =
    P.job
      ~cfg:(Gsim.Config.default |> Gsim.Config.with_caps ~max_warp_insts:80_000 ())
      ~warmup:false "2mm"
  in
  let req =
    F.frame (Pr.request_to_json (Pr.Submit { id = "drain-me"; job }))
  in
  let b = Bytes.of_string req in
  ignore (Unix.write fd b 0 (Bytes.length b));
  Unix.sleepf 0.15;
  Unix.kill pid Sys.sigterm;
  (* the drained job's result still arrives *)
  let split = F.Splitter.create () in
  let buf = Bytes.create 65536 in
  let deadline = Unix.gettimeofday () +. 60. in
  let rec next_line () =
    match F.Splitter.pop split with
    | Some l -> l
    | None ->
        let left = deadline -. Unix.gettimeofday () in
        if left <= 0. then Alcotest.fail "no response before the drain ended";
        (match Unix.select [ fd ] [] [] left with
        | [], _, _ -> Alcotest.fail "no response before the drain ended"
        | _ -> (
            match Unix.read fd buf 0 (Bytes.length buf) with
            | 0 -> Alcotest.fail "daemon closed before answering"
            | n -> F.Splitter.feed split (Bytes.sub_string buf 0 n)));
        next_line ()
  in
  (match Pr.response_of_json (Json.of_string (next_line ())) with
  | Ok (Pr.Result { id = "drain-me"; payload }) ->
      Alcotest.(check string) "drained result byte-identical"
        (Json.to_string (P.exec_job job))
        (Json.to_string payload)
  | Ok r ->
      Alcotest.failf "unexpected response: %s"
        (Json.to_string (Pr.response_to_json r))
  | Error e -> Alcotest.failf "bad response: %s" e);
  Unix.close fd;
  Alcotest.(check int) "daemon exits 0 after draining" 0 (wait_exit pid);
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists socket);
  assert_no_orphans pid;
  rm_rf dir

(* ---- exit codes for usage errors, through the real binary ---- *)

let test_usage_exit_codes () =
  let run ?log argv =
    let pid = spawn ?log (Array.of_list (cli :: argv)) in
    wait_exit pid
  in
  Alcotest.(check int) "unknown app is exit 2 (simulate)" 2
    (run [ "simulate"; "no-such-app" ]);
  Alcotest.(check int) "unknown app is exit 2 (sweep)" 2
    (run [ "sweep"; "--apps"; "no-such-app"; "--out"; "-" ]);
  Alcotest.(check int) "sweep --resume is an unknown option: exit 124" 124
    (run [ "sweep"; "--resume"; "--no-cache"; "--out"; "-" ]);
  Alcotest.(check int) "submit with no daemon is exit 5" 5
    (run [ "submit"; "--socket"; "/nonexistent/nowhere.sock"; "--health" ]);
  Alcotest.(check int) "unknown experiment is exit 2" 2
    (run [ "experiment"; "nosuch" ]);
  (* a negative --cap is refused when arguments are parsed *)
  List.iter
    (fun argv ->
      Alcotest.(check int)
        (String.concat " " argv ^ " is exit 124")
        124
        (run (argv @ [ "--scale"; "small"; "--cap=-1" ])))
    [ [ "simulate"; "bfs" ]; [ "trace"; "bfs" ];
      [ "sweep"; "--apps"; "2mm"; "--no-cache"; "--out"; "-" ];
      [ "experiment"; "fig3" ] ];
  (* an --out into a missing directory is an argument error, caught
     before any job runs *)
  let dir = fresh_dir () in
  let missing = Filename.concat dir "missing" in
  let out = Filename.concat missing "x.json" in
  Alcotest.(check int) "sweep --out into a missing directory is exit 124"
    124
    (run [ "sweep"; "--apps"; "2mm"; "--scale"; "small"; "--no-cache";
           "--out"; out ]);
  let log = Filename.concat dir "verify.log" in
  Alcotest.(check int) "verify --out into a missing directory is exit 124"
    124
    (run ~log [ "verify"; "--scale"; "small"; "--out"; out ]);
  (* each verified app prints "warp insts"; none may have run *)
  Alcotest.(check bool) "verify ran no job" false
    (List.exists
       (String.ends_with ~suffix:"warp insts")
       (String.split_on_char '\n' (read_file log)));
  rm_rf dir

let () =
  Alcotest.run "shutdown"
    [
      ( "sweep",
        [
          Alcotest.test_case "SIGTERM + cached rerun" `Slow
            (test_sweep_interrupt Sys.sigterm);
          Alcotest.test_case "SIGINT + cached rerun" `Slow
            (test_sweep_interrupt Sys.sigint);
          Alcotest.test_case "SIGINT while probing" `Slow
            test_sweep_interrupt_probing;
        ] );
      ("serve", [ Alcotest.test_case "SIGTERM drains" `Slow test_serve_sigterm ]);
      ( "exit-codes",
        [ Alcotest.test_case "usage errors" `Quick test_usage_exit_codes ] );
    ]
