(* One memory partition: a slice of the unified L2 cache plus its DRAM
   channel.

   Each cycle the partition (a) completes DRAM transactions whose data
   is ready, filling the L2 and releasing MSHR waiters, (b) completes
   pending L2 hits after the ROP latency, (c) accepts newly arrived
   interconnect requests into a finite input queue, and (d) processes
   the queue head: stores write-allocate and stream to DRAM
   (fire-and-forget), loads probe the L2 with hit / hit-reserved /
   miss / reservation-fail outcomes mirroring the L1 model. *)

type dram_txn = { d_line : int; d_ready : int }

type pending_hit = { h_req : Request.t; h_ready : int }

type t = {
  id : int;
  cfg : Config.t;
  stats : Stats.t;
  trace : Trace.t;
  cache : Cache.t;
  input : Request.t Queue.t;
  dram : dram_txn Queue.t;
  hits : pending_hit Queue.t;
  resp : Request.t Queue.t;
  mutable dram_next_free : int;
}

let create ?(trace = Trace.null ()) (cfg : Config.t) ~id ~stats =
  {
    id;
    cfg;
    stats;
    trace;
    cache =
      Cache.create ~sets:cfg.Config.l2_sets ~ways:cfg.Config.l2_ways
        ~line_size:cfg.Config.line_size
        ~mshr_entries:cfg.Config.l2_mshr_entries
        ~mshr_max_merge:cfg.Config.l1_mshr_max_merge;
    input = Queue.create ();
    dram = Queue.create ();
    hits = Queue.create ();
    resp = Queue.create ();
    dram_next_free = 0;
  }

let respond t ~(level : Request.level) (req : Request.t) =
  req.Request.level <- Request.deeper req.Request.level level;
  Queue.push req t.resp

(* Schedule a DRAM transaction; returns its completion time.  The
   channel issues one burst every [dram_interval] cycles. *)
let schedule_dram t ~start ~line ~write =
  let begin_at = max start t.dram_next_free in
  t.dram_next_free <- begin_at + t.cfg.Config.dram_interval;
  if Trace.enabled t.trace then
    Trace.emit t.trace
      (Trace.Ev_dram_enq { cycle = begin_at; part = t.id; line; write });
  let ready = begin_at + t.cfg.Config.dram_latency in
  if not write then Queue.push { d_line = line; d_ready = ready } t.dram;
  ready

let dram_has_space t = Queue.length t.dram < t.cfg.Config.dram_queue_size

let cycle t ~now ~icnt =
  let cfg = t.cfg in
  (* (a) DRAM completions: fill L2, release waiters *)
  let continue_ = ref true in
  while !continue_ && not (Queue.is_empty t.dram) do
    let txn = Queue.peek t.dram in
    if txn.d_ready <= now then begin
      ignore (Queue.pop t.dram);
      let waiters = Cache.fill t.cache ~line_addr:txn.d_line in
      if Trace.enabled t.trace then begin
        Trace.emit t.trace
          (Trace.Ev_dram_deq { cycle = now; part = t.id; line = txn.d_line });
        Trace.emit t.trace
          (Trace.Ev_mshr_free
             { cycle = now; where = Trace.S_l2 t.id; line = txn.d_line;
               waiters = List.length waiters })
      end;
      List.iter (fun req -> respond t ~level:Request.Lvl_dram req) waiters
    end
    else continue_ := false
  done;
  (* (b) L2 hits whose ROP latency elapsed *)
  let continue_ = ref true in
  while !continue_ && not (Queue.is_empty t.hits) do
    let h = Queue.peek t.hits in
    if h.h_ready <= now then begin
      ignore (Queue.pop t.hits);
      respond t ~level:Request.Lvl_l2 h.h_req
    end
    else continue_ := false
  done;
  (* (c) accept arrived interconnect requests into the input queue *)
  let continue_ = ref true in
  while !continue_ && Queue.length t.input < cfg.Config.l2_input_queue_size do
    match Icnt.pop_request icnt ~now ~part:t.id with
    | Some req -> Queue.push req t.input
    | None -> continue_ := false
  done;
  (* (d) process the input-queue head *)
  (if not (Queue.is_empty t.input) then begin
     let req = Queue.peek t.input in
      if req.Request.t_l2_start < 0 then req.Request.t_l2_start <- now;
      match req.Request.kind with
      | Request.Store ->
          if Cache.write_allocate t.cache ~line_addr:req.Request.line_addr
          then begin
            ignore (Queue.pop t.input);
            if Trace.enabled t.trace then
              Trace.emit t.trace
                (Trace.Ev_access
                   { cycle = now; where = Trace.S_l2 t.id;
                     line = req.Request.line_addr; src = Trace.A_store;
                     outcome = Cache.Miss });
            (* write-through to DRAM, no response expected *)
            ignore
              (schedule_dram t ~start:(now + cfg.Config.l2_latency)
                 ~line:req.Request.line_addr ~write:true)
          end
          else begin
            t.stats.Stats.l2_rsrv_fails <- t.stats.Stats.l2_rsrv_fails + 1;
            if Trace.enabled t.trace then
              Trace.emit t.trace
                (Trace.Ev_access
                   { cycle = now; where = Trace.S_l2 t.id;
                     line = req.Request.line_addr; src = Trace.A_store;
                     outcome = Cache.Rsrv_fail Cache.Fail_tags })
          end
      | Request.Load | Request.Atomic -> (
          let outcome =
            Cache.access_load t.cache ~req ~icnt_ok:(dram_has_space t)
          in
          if Trace.enabled t.trace then begin
            let src =
              if req.Request.wl = None && req.Request.cta < 0 then
                Trace.A_prefetch
              else Trace.A_load req.Request.cls
            in
            Trace.probe t.trace t.cache ~cycle:now ~where:(Trace.S_l2 t.id)
              ~line:req.Request.line_addr ~src ~cta:req.Request.cta outcome
          end;
          match outcome with
          | Cache.Hit ->
              ignore (Queue.pop t.input);
              Stats.record_l2_access t.stats req.Request.cls ~miss:false;
              Queue.push
                { h_req = req; h_ready = now + cfg.Config.l2_latency }
                t.hits
          | Cache.Hit_reserved ->
              ignore (Queue.pop t.input);
              Stats.record_l2_access t.stats req.Request.cls ~miss:false
          | Cache.Miss ->
              ignore (Queue.pop t.input);
              Stats.record_l2_access t.stats req.Request.cls ~miss:true;
              ignore
                (schedule_dram t ~start:(now + cfg.Config.l2_latency)
                   ~line:req.Request.line_addr ~write:false)
          | Cache.Rsrv_fail _ ->
              t.stats.Stats.l2_rsrv_fails <- t.stats.Stats.l2_rsrv_fails + 1)
   end);
  (* (e) inject one response back towards its SM *)
  match Queue.take_opt t.resp with
  | Some req -> Icnt.inject_response icnt ~now req
  | None -> ()

let idle t =
  Queue.is_empty t.input && Queue.is_empty t.dram && Queue.is_empty t.hits
  && Queue.is_empty t.resp

(* Fast-forward contract: earliest cycle at which the partition can
   make progress on its own — [max_int] when nothing is pending, any
   value [<= now] means it is active this cycle.  A non-empty input
   queue is active every cycle (the head is retried, mutating
   reservation-fail stats on failure), as is a pending response
   injection.  The DRAM and ROP-hit queues are FIFO in ready time —
   DRAM ready times are [begin_at + dram_latency] with [begin_at]
   monotone by construction of [schedule_dram], hit ready times are a
   constant past a monotone enqueue clock — so only their heads need
   inspecting; the probe is allocation-free. *)
let next_wake t ~now =
  if not (Queue.is_empty t.input) || not (Queue.is_empty t.resp) then now
  else begin
    let horizon = ref max_int in
    if not (Queue.is_empty t.dram) then begin
      let c = (Queue.peek t.dram).d_ready in
      if c < !horizon then horizon := c
    end;
    if not (Queue.is_empty t.hits) then begin
      let c = (Queue.peek t.hits).h_ready in
      if c < !horizon then horizon := c
    end;
    !horizon
  end
