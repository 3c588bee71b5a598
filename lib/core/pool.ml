(* A supervised pool of persistent forked workers.

   Everything the parent knows about a worker it learns from two
   kernel-visible facts: its result pipe (EOF = the process died) and
   waitpid.  There is no in-band heartbeat to desynchronize.  Every
   state change is made before [on_verdict] runs, so a driver callback
   that raises (Sys.Break from a progress hook) leaves a pool that
   [shutdown] can still retire. *)

module Json = Gsim.Stats_io.Json
module Framing = Gsim.Stats_io.Framing

type verdict = Done of Json.t | Failed of string | Lost of string | Timed_out

exception Garble
exception Crash

type proc = {
  pid : int;
  task_wr : Unix.file_descr;  (** task lines in *)
  result_rd : Unix.file_descr;  (** envelope lines out *)
  split : Framing.Splitter.t;
  mutable streak : int;
      (** consecutive crashes on this slot before this process; reset
          by the first envelope it delivers *)
}

type 'a slot =
  | Idle of proc
  | Busy of proc * 'a * float  (** deadline *)
  | Down of { until : float; crashes : int }

type 'a t = {
  slots : 'a slot array;
  timeout : float;
  backoff_base : float;
  backoff_cap : float;
  log : string -> unit;
  inherited : unit -> Unix.file_descr list;
  on_verdict : 'a -> verdict -> unit;
  handler : Json.t -> Json.t;
  chunk : Bytes.t;
  mutable crashes : int;
  mutable restarts : int;
  prev_sigpipe : Sys.signal_behavior;
}

let close_noerr fd = try Unix.close fd with Unix.Unix_error _ -> ()
let kill_noerr pid = try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()
let waitpid_noerr pid =
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let write_all fd s =
  let off = ref 0 in
  while !off < String.length s do
    off := !off + Unix.write_substring fd s !off (String.length s - !off)
  done

(* ---- the worker process ---- *)

(* One line in, one envelope line out, until EOF.  The parent owns
   every signal decision, so the driver's handlers (the sweep turns
   SIGTERM into Sys.Break) are reset here. *)
let worker_main handler task_rd result_wr =
  Sys.set_signal Sys.sigterm Sys.Signal_default;
  Sys.set_signal Sys.sigint Sys.Signal_default;
  Sys.set_signal Sys.sigpipe Sys.Signal_default;
  let split = Framing.Splitter.create () in
  let chunk = Bytes.create 65536 in
  let answer line =
    match handler (Json.of_string line) with
    | payload ->
        Framing.frame
          (Json.Obj [ ("status", Json.Str "ok"); ("result", payload) ])
    | exception Garble -> "{\"status\": \"ok\", \"result\": tr\n"
    | exception Crash ->
        Unix.kill (Unix.getpid ()) Sys.sigkill;
        ""
    | exception e ->
        Framing.frame
          (Json.Obj
             [ ("status", Json.Str "error");
               ("message", Json.Str (Printexc.to_string e)) ])
  in
  let rec loop () =
    match Framing.Splitter.pop split with
    | Some line ->
        if String.trim line <> "" then write_all result_wr (answer line);
        loop ()
    | None -> (
        match Unix.read task_rd chunk 0 (Bytes.length chunk) with
        | 0 -> () (* the parent closed the pipe: clean exit *)
        | n ->
            Framing.Splitter.feed split (Bytes.sub_string chunk 0 n);
            loop ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ())
  in
  (try loop () with _ -> ());
  Unix._exit 0

(* ---- lifecycle ---- *)

let create ~workers ~timeout ~backoff_base ~backoff_cap ~log ~inherited
    ~on_verdict handler =
  {
    slots = Array.make (max 1 workers) (Down { until = 0.; crashes = 0 });
    timeout;
    backoff_base;
    backoff_cap;
    log;
    inherited;
    on_verdict;
    handler;
    chunk = Bytes.create 65536;
    crashes = 0;
    restarts = 0;
    prev_sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore;
  }

let procs t =
  Array.fold_left
    (fun acc -> function Idle w | Busy (w, _, _) -> w :: acc | Down _ -> acc)
    [] t.slots

(* A forked child inherits every parent descriptor.  It drops the
   driver's, so EOF on a client socket still means the client left, and
   its siblings' pipes, so a sibling's EOF never waits on this process.
   The child must not replay the parent's buffered output nor run its
   at_exit handlers, hence the flushes and [_exit]. *)
let spawn t streak =
  let task_rd, task_wr = Unix.pipe () in
  let result_rd, result_wr = Unix.pipe () in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      List.iter close_noerr (t.inherited ());
      List.iter
        (fun w ->
          close_noerr w.task_wr;
          close_noerr w.result_rd)
        (procs t);
      close_noerr task_wr;
      close_noerr result_rd;
      worker_main t.handler task_rd result_wr
  | pid ->
      close_noerr task_rd;
      close_noerr result_wr;
      { pid; task_wr; result_rd; split = Framing.Splitter.create (); streak }

let alive t = List.length (procs t)
let pids t = List.map (fun w -> w.pid) (procs t)

let spawn_due t ~want =
  let now = Unix.gettimeofday () in
  let live = ref (alive t) in
  Array.iteri
    (fun i -> function
      | Down { until; crashes } when now >= until && !live < want ->
          t.slots.(i) <- Idle (spawn t crashes);
          incr live;
          if crashes > 0 then begin
            t.restarts <- t.restarts + 1;
            t.log
              (Printf.sprintf "slot %d: respawned after %d crash(es)" i crashes)
          end
      | _ -> ())
    t.slots

let reap w =
  kill_noerr w.pid;
  close_noerr w.task_wr;
  close_noerr w.result_rd;
  waitpid_noerr w.pid

(* A worker died or can no longer be trusted: reap it, back the slot
   off, and lose whatever it was running. *)
let crashed t i reason =
  match t.slots.(i) with
  | Down _ -> ()
  | (Idle w | Busy (w, _, _)) as prev -> (
      t.crashes <- t.crashes + 1;
      let streak = w.streak + 1 in
      let delay =
        min t.backoff_cap (t.backoff_base *. (2. ** float_of_int (streak - 1)))
      in
      t.log
        (Printf.sprintf "slot %d (worker %d): %s; backoff %.2fs (streak %d)"
           i w.pid reason delay streak);
      reap w;
      t.slots.(i) <-
        Down { until = Unix.gettimeofday () +. delay; crashes = streak };
      match prev with
      | Busy (_, tag, _) -> t.on_verdict tag (Lost reason)
      | _ -> ())

(* ---- assignments ---- *)

let assign t tag task =
  let line = Framing.frame task in
  let rec go i =
    if i >= Array.length t.slots then false
    else
      match t.slots.(i) with
      | Idle w -> (
          match write_all w.task_wr line with
          | () ->
              t.slots.(i) <- Busy (w, tag, Unix.gettimeofday () +. t.timeout);
              true
          | exception Unix.Unix_error _ ->
              crashed t i "died before accepting a task";
              go (i + 1))
      | _ -> go (i + 1)
  in
  go 0

let has_idle t = Array.exists (function Idle _ -> true | _ -> false) t.slots

let in_flight t =
  Array.fold_left
    (fun acc -> function Busy (_, tag, _) -> tag :: acc | _ -> acc)
    [] t.slots

(* An envelope the worker is trusted to have meant; [Error] is a
   reason to recycle it. *)
let verdict_of_line line =
  match Json.of_string line with
  | exception Json.Parse_error _ -> Error "shipped garbage"
  | v -> (
      match (Json.member "status" v, Json.member "result" v) with
      | Json.Str "ok", payload when payload <> Json.Null -> Ok (Done payload)
      | Json.Str "error", _ ->
          Ok
            (Failed
               (match Json.member "message" v with
               | Json.Str m -> m
               | _ -> "worker reported an error"))
      | _ -> Error "malformed envelope"
      | exception Json.Parse_error _ -> Error "malformed envelope")

let readable t i =
  match t.slots.(i) with
  | Down _ -> ()
  | (Idle w | Busy (w, _, _)) as state -> (
      match Unix.read w.result_rd t.chunk 0 (Bytes.length t.chunk) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error _ -> crashed t i "result pipe error"
      | 0 -> crashed t i "worker closed the pipe"
      | n -> (
          Framing.Splitter.feed w.split (Bytes.sub_string t.chunk 0 n);
          match Framing.Splitter.pop w.split with
          | None -> ()
          | Some line -> (
              match (state, verdict_of_line line) with
              | Busy (_, tag, _), Ok v ->
                  w.streak <- 0;
                  t.slots.(i) <- Idle w;
                  t.on_verdict tag v
              | Busy _, Error reason -> crashed t i reason
              | _ ->
                  (* an envelope with no assignment: the slot is out of
                     sync; recycle it *)
                  crashed t i "unexpected output while idle")))

let check_deadlines t now =
  Array.iteri
    (fun i -> function
      | Busy (w, tag, deadline) when now > deadline ->
          reap w;
          t.slots.(i) <- Down { until = now; crashes = w.streak };
          t.on_verdict tag Timed_out
      | _ -> ())
    t.slots

let wait t ~reads ~writes =
  let now = Unix.gettimeofday () in
  let horizon =
    Array.fold_left
      (fun acc -> function
        | Busy (_, _, deadline) -> min acc deadline
        | Down { until; _ } when until > now -> min acc until
        | _ -> acc)
      (now +. 0.25) t.slots
  in
  let mine = List.map (fun w -> w.result_rd) (procs t) in
  let ready, writable, _ =
    try Unix.select (mine @ reads) writes [] (max 0.01 (horizon -. now))
    with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
  in
  Array.iteri
    (fun i -> function
      | (Idle w | Busy (w, _, _)) when List.mem w.result_rd ready -> readable t i
      | _ -> ())
    t.slots;
  check_deadlines t (Unix.gettimeofday ());
  (List.filter (fun fd -> not (List.mem fd mine)) ready, writable)

let crashes t = t.crashes
let restarts t = t.restarts

(* Idle workers exit on EOF; a worker still running (or wedged) is
   killed once the grace period is over — no orphans either way. *)
let shutdown t ~kill =
  let live = procs t in
  List.iter
    (fun w ->
      if kill then kill_noerr w.pid;
      close_noerr w.task_wr)
    live;
  let deadline = Unix.gettimeofday () +. 2.0 in
  List.iter
    (fun w ->
      let rec wait () =
        match Unix.waitpid [ Unix.WNOHANG ] w.pid with
        | 0, _ ->
            if Unix.gettimeofday () > deadline then begin
              kill_noerr w.pid;
              waitpid_noerr w.pid
            end
            else begin
              Unix.sleepf 0.01;
              wait ()
            end
        | _ -> ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
        | exception Unix.Unix_error _ -> ()
      in
      wait ();
      close_noerr w.result_rd)
    live;
  Array.fill t.slots 0 (Array.length t.slots)
    (Down { until = 0.; crashes = 0 });
  Sys.set_signal Sys.sigpipe t.prev_sigpipe
