(* Integration tests of the fork-based sweep runner: parallel results
   equal sequential and in-process results, killed/hung workers are
   retried without corrupting the result set, deterministic failures
   are reported without a futile retry, and both result flavors
   round-trip through their JSON summaries. *)

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

(* a sweep aborted mid-run leaves a checkpoint from which a resumed
   sweep reconstructs the uninterrupted document byte-for-byte — even
   with a trailing checkpoint line cut short by the "crash" *)
let test_abort_resume_byte_identical () =
  let jobs = mk_jobs apps4 in
  let ckpt = Filename.temp_file "critload-ckpt" ".partial" in
  let oc = open_out ckpt in
  let on_result _i j o =
    output_string oc (P.checkpoint_line j o);
    output_char oc '\n';
    flush oc
  in
  let partial =
    P.run ~workers:2 ~timeout:300. ~on_result ~abort_after:2 jobs
  in
  let settled =
    Array.to_list partial
    |> List.filter (function P.Completed _ -> true | P.Failed _ -> false)
    |> List.length
  in
  Alcotest.(check bool) "abort stopped the sweep early" true
    (settled >= 2 && settled < List.length jobs);
  (* the write the crash interrupted *)
  output_string oc "{\"key\": \"half-a-rec";
  close_out oc;
  let corrupt = ref [] in
  let prefilled =
    P.read_checkpoint
      ~on_corrupt:(fun ~line ~reason -> corrupt := (line, reason) :: !corrupt)
      ckpt
    |> List.filter (fun (_, o) ->
           match o with P.Completed _ -> true | P.Failed _ -> false)
  in
  Alcotest.(check int) "checkpoint holds exactly the settled jobs" settled
    (List.length prefilled);
  (* exactly the torn trailing line is reported, at its line number *)
  (match !corrupt with
  | [ (line, _) ] ->
      Alcotest.(check int) "torn line reported at the right line number"
        (settled + 1) line
  | l -> Alcotest.failf "expected 1 corrupt line, got %d" (List.length l));
  let skipped = ref 0 in
  let on_event = function P.Skipped _ -> incr skipped | _ -> () in
  let resumed = P.run ~workers:2 ~timeout:300. ~prefilled ~on_event jobs in
  Alcotest.(check int) "every checkpointed job was skipped" settled !skipped;
  let clean = P.run ~workers:1 ~timeout:300. jobs in
  Alcotest.(check string)
    "resumed document byte-identical to an uninterrupted jobs-1 run"
    (Json.to_string (P.sweep_to_json ~jobs ~outcomes:clean))
    (Json.to_string (P.sweep_to_json ~jobs ~outcomes:resumed));
  Sys.remove ckpt

(* corrupt checkpoint lines are classified and reported line by line:
   unparseable JSON and well-formed-but-wrong-shape records are both
   dropped with a callback; blank lines are not corruption *)
let test_checkpoint_corrupt_lines () =
  let j = P.job ~cfg "2mm" in
  let ckpt = Filename.temp_file "critload-ckpt" ".partial" in
  let oc = open_out ckpt in
  output_string oc (P.checkpoint_line j (P.Failed "boom"));
  output_string oc "\n\n";
  output_string oc "{\"not\": \"a checkpoint record\"}\n";
  output_string oc "garbage that is not JSON\n";
  output_string oc (P.checkpoint_line j (P.Failed "boom2"));
  output_char oc '\n';
  close_out oc;
  let corrupt = ref [] in
  let entries =
    P.read_checkpoint
      ~on_corrupt:(fun ~line ~reason -> corrupt := (line, reason) :: !corrupt)
      ckpt
  in
  Alcotest.(check int) "both valid records survive" 2 (List.length entries);
  Alcotest.(check (list int)) "corrupt lines reported with line numbers"
    [ 3; 4 ]
    (List.rev_map fst !corrupt);
  (* silent by default: omitting the callback still parses *)
  Alcotest.(check int) "default reader drops them silently" 2
    (List.length (P.read_checkpoint ckpt));
  Sys.remove ckpt

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

(* no worker outlives [run]: after a normal return, after an abort, and
   after Sys.Break raised from a progress hook *)
let assert_no_children what =
  match Unix.waitpid [ Unix.WNOHANG ] (-1) with
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  | 0, _ -> Alcotest.failf "%s: a worker is still running" what
  | pid, _ -> Alcotest.failf "%s: worker %d was left unreaped" what pid

let test_no_orphan_workers () =
  let jobs = mk_jobs apps4 in
  ignore (P.run ~workers:2 ~timeout:300. jobs);
  assert_no_children "normal return";
  ignore (P.run ~workers:2 ~timeout:300. ~abort_after:1 jobs);
  assert_no_children "abort_after";
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
          Alcotest.test_case "corrupt checkpoint lines reported" `Quick
            test_checkpoint_corrupt_lines;
          Alcotest.test_case "deterministic failure not retried" `Quick
            test_deterministic_failure_not_retried;
          Alcotest.test_case "func mode round-trip" `Quick
            test_func_mode_roundtrip;
          Alcotest.test_case "sweep document parses back" `Quick
            test_sweep_document;
          Alcotest.test_case "one worker runs every job" `Quick
            test_one_worker_runs_every_job;
          Alcotest.test_case "no orphan workers" `Quick
            test_no_orphan_workers ] ) ]
