(* Integration tests of the fork-based sweep runner: parallel results
   equal sequential and in-process results, killed/hung workers are
   retried without corrupting the result set, deterministic failures
   are reported without a futile retry, an interrupted sweep resumes
   from the cache, and both result flavors round-trip through their
   JSON summaries. *)

module P = Critload.Parsweep
module Json = Gsim.Stats_io.Json

let cfg = Gsim.Config.default |> Gsim.Config.with_caps ~max_warp_insts:6_000 ()
let apps4 = [ "2mm"; "gaus"; "bfs"; "spmv" ]

let mk_jobs apps =
  List.map (fun a -> P.job ~cfg ~warmup:false a) apps

let payload_exn name = function
  | P.Completed v -> v
  | P.Failed msg -> Alcotest.failf "%s failed: %s" name msg

(* jobs 4 and jobs 1 produce the same per-app stats, which also match
   direct in-process execution — the acceptance criterion *)
let test_parallel_equals_sequential () =
  let jobs = mk_jobs apps4 in
  let par = P.run ~workers:4 ~timeout:300. jobs in
  let seq = P.run ~workers:1 ~timeout:300. jobs in
  List.iteri
    (fun i j ->
      let name = j.P.sj_app in
      let p = Json.to_string (payload_exn name par.(i)) in
      let s = Json.to_string (payload_exn name seq.(i)) in
      Alcotest.(check string) (name ^ ": jobs 4 = jobs 1") s p;
      let direct = Json.to_string (P.exec_job j) in
      Alcotest.(check string) (name ^ ": pool = in-process") direct p;
      (* parse-back validation: the payload is a well-formed timing
         summary and re-serializes identically *)
      let t = P.timing_summary_of_json (payload_exn name par.(i)) in
      Alcotest.(check string)
        (name ^ ": timing summary round-trip")
        p
        (Json.to_string (P.timing_summary_to_json t));
      Alcotest.(check bool)
        (name ^ ": simulated cycles present")
        true
        (t.P.tm_stats.Gsim.Stats.cycles > 0))
    jobs

(* a worker killed mid-job is retried once and the result set matches a
   clean run slot-for-slot *)
let test_killed_worker_retried () =
  let jobs = mk_jobs [ "2mm"; "gaus" ] in
  let retries = ref [] in
  let chaos ~job_index ~attempt =
    if job_index = 0 && attempt = 0 then
      Unix.kill (Unix.getpid ()) Sys.sigkill
  in
  let on_event = function
    | P.Retried (j, _) -> retries := j.P.sj_app :: !retries
    | _ -> ()
  in
  let chaotic = P.run ~workers:2 ~timeout:300. ~on_event ~chaos jobs in
  let clean = P.run ~workers:2 ~timeout:300. jobs in
  Alcotest.(check (list string)) "exactly the killed job retried" [ "2mm" ]
    !retries;
  List.iteri
    (fun i j ->
      let name = j.P.sj_app in
      Alcotest.(check string)
        (name ^ ": retried run matches clean run")
        (Json.to_string (payload_exn name clean.(i)))
        (Json.to_string (payload_exn name chaotic.(i))))
    jobs

(* a hung worker hits the wall-clock timeout, is killed and retried *)
let test_hung_worker_timed_out () =
  let jobs = mk_jobs [ "2mm" ] in
  let reasons = ref [] in
  let chaos ~job_index ~attempt =
    if job_index = 0 && attempt = 0 then Unix.sleepf 30.
  in
  let on_event = function
    | P.Retried (_, reason) -> reasons := reason :: !reasons
    | _ -> ()
  in
  let out = P.run ~workers:1 ~timeout:0.5 ~on_event ~chaos jobs in
  (match !reasons with
  | [ reason ] ->
      Alcotest.(check bool) "retry reason mentions the timeout" true
        (String.length reason >= 7 && String.sub reason 0 7 = "timeout")
  | l -> Alcotest.failf "expected one retry, saw %d" (List.length l));
  match out.(0) with
  | P.Completed _ -> ()
  | P.Failed msg -> Alcotest.failf "retry did not recover: %s" msg

(* a worker that ships corrupted bytes instead of a result envelope is
   indistinguishable from a crash: retried once, then identical to a
   clean run *)
let test_garbled_worker_retried () =
  let jobs = mk_jobs [ "2mm"; "gaus" ] in
  let retries = ref [] in
  let chaos ~job_index ~attempt =
    if job_index = 1 && attempt = 0 then raise P.Garble
  in
  let on_event = function
    | P.Retried (j, _) -> retries := j.P.sj_app :: !retries
    | _ -> ()
  in
  let chaotic = P.run ~workers:2 ~timeout:300. ~on_event ~chaos jobs in
  let clean = P.run ~workers:2 ~timeout:300. jobs in
  Alcotest.(check (list string)) "exactly the garbled job retried" [ "gaus" ]
    !retries;
  List.iteri
    (fun i j ->
      let name = j.P.sj_app in
      Alcotest.(check string)
        (name ^ ": garbled run matches clean run")
        (Json.to_string (payload_exn name clean.(i)))
        (Json.to_string (payload_exn name chaotic.(i))))
    jobs

(* a sweep interrupted mid-run (Sys.Break raised from a progress hook,
   as ctrl-C raises it) has stored every job that finished; the same
   sweep run again serves exactly those from the cache, simulates the
   rest and rebuilds the uninterrupted document byte-for-byte *)
let test_abort_resume_byte_identical () =
  let jobs = mk_jobs apps4 in
  let dir = Filename.temp_dir "critload-resume" "" in
  let finished = ref 0 in
  let on_event = function
    | P.Finished _ ->
        incr finished;
        if !finished = 2 then raise Sys.Break
    | _ -> ()
  in
  (match P.run ~workers:2 ~timeout:300. ~on_event ~cache_dir:dir jobs with
  | _ -> Alcotest.fail "Sys.Break did not propagate"
  | exception Sys.Break -> ());
  Alcotest.(check int) "the store holds exactly the finished jobs" 2
    (Array.length (Sys.readdir dir));
  let cached = ref 0 and started = ref 0 in
  let on_event = function
    | P.Cached _ -> incr cached
    | P.Started _ -> incr started
    | _ -> ()
  in
  let resumed = P.run ~workers:2 ~timeout:300. ~on_event ~cache_dir:dir jobs in
  Alcotest.(check int) "both finished jobs served from the cache" 2 !cached;
  Alcotest.(check int) "only the unfinished jobs simulate" 2 !started;
  let clean = P.run ~workers:1 ~timeout:300. jobs in
  Alcotest.(check string)
    "resumed document byte-identical to an uninterrupted jobs-1 run"
    (Json.to_string (P.sweep_to_json ~jobs ~outcomes:clean))
    (Json.to_string (P.sweep_to_json ~jobs ~outcomes:resumed));
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

(* an in-job exception is a deterministic failure: reported, not
   retried *)
let test_deterministic_failure_not_retried () =
  let jobs = [ P.job ~cfg "no-such-app" ] in
  let retried = ref false in
  let on_event = function P.Retried _ -> retried := true | _ -> () in
  let out = P.run ~workers:1 ~timeout:300. ~on_event jobs in
  Alcotest.(check bool) "no retry for a deterministic error" false !retried;
  match out.(0) with
  | P.Failed msg ->
      Alcotest.(check bool) "error names the unknown app" true
        (let rec contains i =
           i + 11 <= String.length msg
           && (String.sub msg i 11 = "no-such-app" || contains (i + 1))
         in
         contains 0)
  | P.Completed _ -> Alcotest.fail "expected failure"

(* functional-mode jobs cross the boundary too, with the host check *)
let test_func_mode_roundtrip () =
  let jobs = [ P.job ~cfg:Gsim.Config.default ~mode:P.Func "2mm" ] in
  let out = P.run ~workers:2 ~timeout:300. jobs in
  let payload = payload_exn "2mm" out.(0) in
  let f = P.func_summary_of_json payload in
  Alcotest.(check bool) "host check passed" true f.P.fu_check;
  Alcotest.(check (pair int int)) "static counts" (2, 0)
    (f.P.fu_static_d, f.P.fu_static_n);
  Alcotest.(check string) "func summary round-trip"
    (Json.to_string payload)
    (Json.to_string (P.func_summary_to_json f))

(* the whole-sweep document parses back: envelopes keyed by app with ok
   status and parseable stats *)
let test_sweep_document () =
  let jobs = mk_jobs [ "2mm"; "gaus" ] in
  let outcomes = P.run ~workers:2 ~timeout:300. jobs in
  let doc = P.sweep_to_json ~jobs ~outcomes in
  let doc = Json.of_string (Json.to_string doc) in
  Alcotest.(check string) "schema tag" "critload-sweep-v1"
    (Json.str_field "schema" doc);
  let results = Json.get_list (Json.member "results" doc) in
  Alcotest.(check int) "one envelope per job" 2 (List.length results);
  List.iter2
    (fun j env ->
      Alcotest.(check string) "app" j.P.sj_app (Json.str_field "app" env);
      Alcotest.(check string) "status" "ok" (Json.str_field "status" env);
      ignore (P.timing_summary_of_json (Json.member "result" env)))
    jobs results

(* ---- the CLI's two sweep encodings ---- *)

(* The CLI sits beside this test's directory in the build tree, so the
   test runs from any working directory. *)
let cli =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat Filename.parent_dir_name "bin/critload_cli.exe")

let run_cli args =
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process cli (Array.of_list (cli :: args)) Unix.stdin null null
  in
  Unix.close null;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> Alcotest.failf "critload %s failed" (String.concat " " args)

(* `sweep --format jsonl` writes one line per job: the envelope the json
   document lists at the same index of [results], byte for byte. *)
let test_jsonl_lines_match_json () =
  let sweep format =
    let out = Filename.temp_file "critload-sweep" ("." ^ format) in
    Fun.protect
      ~finally:(fun () -> Sys.remove out)
      (fun () ->
        run_cli
          [ "sweep"; "--no-cache"; "--apps"; "2mm,bfs"; "--scale"; "small";
            "--cap"; "6000"; "--no-warmup"; "--profile"; "--jobs"; "1";
            "--format"; format; "--out"; out ];
        In_channel.with_open_bin out In_channel.input_all)
  in
  let results =
    Json.get_list (Json.member "results" (Json.of_string (sweep "json")))
  in
  Alcotest.(check int) "one envelope per job" 2 (List.length results);
  Alcotest.(check string) "each line is its envelope, in order"
    (String.concat "" (List.map (fun r -> Json.to_string r ^ "\n") results))
    (sweep "jsonl")

(* ---- pool lifecycle ---- *)

(* workers are persistent: with one worker, every job runs in the same
   process, observed through the pids a chaos hook records *)
let test_one_worker_runs_every_job () =
  let pids = Filename.temp_file "critload-pids" ".txt" in
  let chaos ~job_index:_ ~attempt:_ =
    let oc = open_out_gen [ Open_append; Open_wronly ] 0o644 pids in
    Printf.fprintf oc "%d\n" (Unix.getpid ());
    close_out oc
  in
  let out = P.run ~workers:1 ~timeout:300. ~chaos (mk_jobs apps4) in
  List.iteri (fun i app -> ignore (payload_exn app out.(i))) apps4;
  let ic = open_in pids in
  let rec lines acc =
    match input_line ic with
    | l -> lines (l :: acc)
    | exception End_of_file -> acc
  in
  let seen = lines [] in
  close_in ic;
  Sys.remove pids;
  Alcotest.(check int) "the hook ran once per job" 4 (List.length seen);
  Alcotest.(check (list string)) "one worker process ran them all"
    [ List.hd seen ]
    (List.sort_uniq compare seen);
  Alcotest.(check bool) "that worker is not this process" true
    (List.hd seen <> string_of_int (Unix.getpid ()))

(* no worker outlives [run]: after a normal return and after Sys.Break
   raised from a progress hook *)
let assert_no_children what =
  match Unix.waitpid [ Unix.WNOHANG ] (-1) with
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  | 0, _ -> Alcotest.failf "%s: a worker is still running" what
  | pid, _ -> Alcotest.failf "%s: worker %d was left unreaped" what pid

let test_no_orphan_workers () =
  let jobs = mk_jobs apps4 in
  ignore (P.run ~workers:2 ~timeout:300. jobs);
  assert_no_children "normal return";
  let on_event = function P.Finished _ -> raise Sys.Break | _ -> () in
  (match P.run ~workers:2 ~timeout:300. ~on_event jobs with
  | _ -> Alcotest.fail "Sys.Break did not propagate"
  | exception Sys.Break -> ());
  assert_no_children "Sys.Break from on_event"

let () =
  Alcotest.run "parsweep"
    [ ( "parsweep",
        [ Alcotest.test_case "parallel = sequential = in-process" `Quick
            test_parallel_equals_sequential;
          Alcotest.test_case "killed worker retried" `Quick
            test_killed_worker_retried;
          Alcotest.test_case "hung worker timed out + retried" `Quick
            test_hung_worker_timed_out;
          Alcotest.test_case "garbled worker retried" `Quick
            test_garbled_worker_retried;
          Alcotest.test_case "abort + resume byte-identical" `Quick
            test_abort_resume_byte_identical;
          Alcotest.test_case "deterministic failure not retried" `Quick
            test_deterministic_failure_not_retried;
          Alcotest.test_case "func mode round-trip" `Quick
            test_func_mode_roundtrip;
          Alcotest.test_case "jsonl lines match the json document" `Quick
            test_jsonl_lines_match_json;
          Alcotest.test_case "sweep document parses back" `Quick
            test_sweep_document;
          Alcotest.test_case "one worker runs every job" `Quick
            test_one_worker_runs_every_job;
          Alcotest.test_case "no orphan workers" `Quick
            test_no_orphan_workers ] ) ]
