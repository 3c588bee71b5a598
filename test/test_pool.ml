(* The worker pool on its own, with toy handlers instead of
   simulations: every verdict (done, failed, lost to a crash, garbage
   or a malformed envelope, timed out), the crash/restart counters,
   spawning no more workers than asked, descriptor hygiene in forked
   workers, and shutdown leaving no child behind. *)

module Pool = Critload.Pool
module Json = Gsim.Stats_io.Json

(* The toy task language: a string naming what the worker should do. *)
let handler task =
  match Json.get_str task with
  | "ok" -> Json.Int (Unix.getpid ())
  | "raise" -> failwith "boom"
  | "garble" -> raise Pool.Garble
  | "null" -> Json.Null
  | "crash" -> raise Pool.Crash
  | "hang" ->
      Unix.sleepf 30.;
      Json.Null
  | other -> invalid_arg other

let create ?(workers = 1) ?(timeout = 30.) ?(inherited = fun () -> [])
    on_verdict =
  Pool.create ~workers ~timeout ~backoff_base:0.01 ~backoff_cap:0.05
    ~log:ignore ~inherited ~on_verdict handler

(* Drive the pool until every task has its verdict, the way both real
   drivers do: spawn for the outstanding work, assign, wait. *)
let run_all ?workers ?timeout tasks =
  let verdicts = Hashtbl.create 8 in
  let pool = create ?workers ?timeout (Hashtbl.replace verdicts) in
  let pending = Queue.create () in
  List.iteri (fun i t -> Queue.add (i, Json.Str t) pending) tasks;
  while Hashtbl.length verdicts < List.length tasks do
    Pool.spawn_due pool
      ~want:(Queue.length pending + List.length (Pool.in_flight pool));
    while Pool.has_idle pool && not (Queue.is_empty pending) do
      let i, t = Queue.peek pending in
      if Pool.assign pool i t then ignore (Queue.pop pending)
    done;
    ignore (Pool.wait pool ~reads:[] ~writes:[])
  done;
  (pool, List.init (List.length tasks) (Hashtbl.find verdicts))

let assert_no_children what =
  match Unix.waitpid [ Unix.WNOHANG ] (-1) with
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  | 0, _ -> Alcotest.failf "%s: a worker is still running" what
  | pid, _ -> Alcotest.failf "%s: worker %d was left unreaped" what pid

let describe = function
  | Pool.Done v -> "done " ^ Json.to_string v
  | Pool.Failed m -> "failed " ^ m
  | Pool.Lost r -> "lost " ^ r
  | Pool.Timed_out -> "timed out"

let test_verdicts () =
  let tasks =
    [ "ok"; "raise"; "ok"; "garble"; "ok"; "null"; "crash"; "ok"; "hang"; "ok" ]
  in
  let pool, verdicts = run_all ~timeout:1.0 tasks in
  let got = List.map describe verdicts in
  List.iteri
    (fun i (task, v) ->
      let expect prefix =
        Alcotest.(check bool)
          (Printf.sprintf "task %d (%s): %s" i task v)
          true
          (String.length v >= String.length prefix
          && String.sub v 0 (String.length prefix) = prefix)
      in
      match task with
      | "ok" -> expect "done "
      | "raise" -> expect "failed Failure(\"boom\")"
      | "garble" -> expect "lost shipped garbage"
      | "null" -> expect "lost malformed envelope"
      | "crash" -> expect "lost worker closed the pipe"
      | "hang" -> expect "timed out"
      | _ -> assert false)
    (List.combine tasks got);
  (* a failed task leaves its worker in service; the three losses and
     the deadline kill each cost one *)
  let pids =
    List.filter_map
      (function Pool.Done (Json.Int p) -> Some p | _ -> None)
      verdicts
  in
  Alcotest.(check int) "a failed task keeps its worker" (List.nth pids 0)
    (List.nth pids 1);
  Alcotest.(check int) "every loss is a distinct new worker" 4
    (List.length (List.sort_uniq compare pids));
  Alcotest.(check int) "losses counted as crashes" 3 (Pool.crashes pool);
  Alcotest.(check int) "crashed slots respawned" 3 (Pool.restarts pool);
  Pool.shutdown pool ~kill:false;
  assert_no_children "after the verdict run"

(* [want] bounds forking; nothing is forked before it is wanted *)
let test_spawn_on_demand () =
  let pool = create ~workers:4 (fun _ _ -> ()) in
  Pool.spawn_due pool ~want:0;
  Alcotest.(check int) "nothing wanted, nothing forked" 0 (Pool.alive pool);
  assert_no_children "before any spawn";
  Pool.spawn_due pool ~want:1;
  Alcotest.(check int) "one wanted, one forked" 1 (Pool.alive pool);
  Pool.spawn_due pool ~want:9;
  Alcotest.(check int) "never more than the slots" 4 (Pool.alive pool);
  Pool.shutdown pool ~kill:false;
  Alcotest.(check int) "none alive after shutdown" 0 (Pool.alive pool);
  assert_no_children "after shutdown"

(* A worker closes the driver's descriptors, so EOF on a driver pipe
   still means the driver closed it; closing the task pipes retires
   every worker at once instead of after the kill grace period. *)
let test_descriptor_hygiene () =
  let rd, wr = Unix.pipe () in
  let pool = create ~workers:3 ~inherited:(fun () -> [ wr ]) (fun _ _ -> ()) in
  Pool.spawn_due pool ~want:3;
  Unix.close wr;
  (match Unix.select [ rd ] [] [] 5. with
  | [ _ ], _, _ ->
      Alcotest.(check int) "driver pipe reads EOF" 0
        (Unix.read rd (Bytes.create 1) 0 1)
  | _ -> Alcotest.fail "a worker kept the driver's pipe open");
  Unix.close rd;
  let t0 = Unix.gettimeofday () in
  Pool.shutdown pool ~kill:false;
  Alcotest.(check bool) "EOF retires every worker promptly" true
    (Unix.gettimeofday () -. t0 < 1.5);
  assert_no_children "after hygiene"

(* A forced shutdown kills a busy worker at once; its assignment gets
   no verdict. *)
let test_kill_busy () =
  let verdicts = ref 0 in
  let pool = create (fun _ _ -> incr verdicts) in
  Pool.spawn_due pool ~want:1;
  Alcotest.(check bool) "assigned" true (Pool.assign pool 0 (Json.Str "hang"));
  Alcotest.(check (list int)) "in flight" [ 0 ] (Pool.in_flight pool);
  ignore (Pool.wait pool ~reads:[] ~writes:[]);
  let t0 = Unix.gettimeofday () in
  Pool.shutdown pool ~kill:true;
  Alcotest.(check bool) "killed without the grace period" true
    (Unix.gettimeofday () -. t0 < 1.5);
  Alcotest.(check int) "no verdict for the killed task" 0 !verdicts;
  assert_no_children "after a forced shutdown"

let () =
  Alcotest.run "pool"
    [
      ( "pool",
        [
          Alcotest.test_case "verdicts and counters" `Quick test_verdicts;
          Alcotest.test_case "spawn on demand" `Quick test_spawn_on_demand;
          Alcotest.test_case "descriptor hygiene" `Quick
            test_descriptor_hygiene;
          Alcotest.test_case "forced shutdown" `Quick test_kill_busy;
        ] );
    ]
