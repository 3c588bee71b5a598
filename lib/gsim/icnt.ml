(* Interconnection network between the SMs and the memory partitions.

   Request path: each SM owns a finite injection buffer
   ([icnt_buffer_size] credits).  The L1 checks [can_inject] before
   declaring a miss — a full buffer is the paper's "reservation fail by
   interconnection".  Requests arrive at their partition after
   [icnt_latency] cycles and are consumed by the partition's input
   queue; a credit returns to the SM when its request is consumed.

   Response path: modelled with the same latency but unlimited
   buffering (fills are drained at a fixed rate by the SMs). *)

type t = {
  cfg : Config.t;
  trace : Trace.t;
  to_part : Request.t Queue.t array; (* per partition, FIFO by arrival *)
  to_sm : Request.t Queue.t array; (* per SM, FIFO by arrival *)
  sm_inflight : int array; (* outstanding credits used per SM *)
}

let create ?(trace = Trace.null ()) (cfg : Config.t) =
  {
    cfg;
    trace;
    to_part = Array.init cfg.Config.n_mem_partitions (fun _ -> Queue.create ());
    to_sm = Array.init cfg.Config.n_sms (fun _ -> Queue.create ());
    sm_inflight = Array.make cfg.Config.n_sms 0;
  }

(* Memory partition servicing a line address.  Under the Section X.C
   semi-global-L2 ablation each cluster of SMs owns a private subset of
   the partitions, so the partition depends on the requesting SM too. *)
let partition_of (cfg : Config.t) ~sm line_addr =
  let n = cfg.Config.n_mem_partitions in
  let line = line_addr / cfg.Config.line_size in
  if cfg.Config.l2_cluster <= 0 then line mod n
  else begin
    let n_clusters =
      (cfg.Config.n_sms + cfg.Config.l2_cluster - 1) / cfg.Config.l2_cluster
    in
    let parts_per_cluster = max 1 (n / n_clusters) in
    let cluster = sm / cfg.Config.l2_cluster in
    let base = cluster * parts_per_cluster mod n in
    base + (line mod parts_per_cluster)
  end

let can_inject t ~sm = t.sm_inflight.(sm) < t.cfg.Config.icnt_buffer_size

let emit_xfer t ~cycle ~dir ~enq (req : Request.t) ~part =
  if Trace.enabled t.trace then begin
    let sm = req.Request.sm_id and line = req.Request.line_addr in
    Trace.emit t.trace
      (if enq then Trace.Ev_icnt_enq { cycle; dir; sm; part; line }
       else Trace.Ev_icnt_deq { cycle; dir; sm; part; line })
  end

let inject_request t ~now (req : Request.t) =
  let part = partition_of t.cfg ~sm:req.Request.sm_id req.Request.line_addr in
  req.Request.t_icnt <- now;
  req.Request.t_arrive <- now + t.cfg.Config.icnt_latency;
  t.sm_inflight.(req.Request.sm_id) <- t.sm_inflight.(req.Request.sm_id) + 1;
  emit_xfer t ~cycle:now ~dir:Trace.Dir_req ~enq:true req ~part;
  Queue.push req t.to_part.(part)

(* Head request for the partition if it has arrived; consuming it
   returns the credit to its SM. *)
let pop_request t ~now ~part =
  let q = t.to_part.(part) in
  if Queue.is_empty q then None
  else begin
    let req = Queue.peek q in
    if req.Request.t_arrive <= now then begin
      ignore (Queue.pop q);
      t.sm_inflight.(req.Request.sm_id) <-
        t.sm_inflight.(req.Request.sm_id) - 1;
      emit_xfer t ~cycle:now ~dir:Trace.Dir_req ~enq:false req ~part;
      Some req
    end
    else None
  end

let inject_response t ~now (req : Request.t) =
  req.Request.t_resp_arrive <- now + t.cfg.Config.icnt_latency;
  emit_xfer t ~cycle:now ~dir:Trace.Dir_resp ~enq:true req
    ~part:(partition_of t.cfg ~sm:req.Request.sm_id req.Request.line_addr);
  Queue.push req t.to_sm.(req.Request.sm_id)

let pop_response t ~now ~sm =
  let q = t.to_sm.(sm) in
  if Queue.is_empty q then None
  else begin
    let req = Queue.peek q in
    if req.Request.t_resp_arrive <= now then begin
      ignore (Queue.pop q);
      emit_xfer t ~cycle:now ~dir:Trace.Dir_resp ~enq:false req
        ~part:
          (partition_of t.cfg ~sm:req.Request.sm_id req.Request.line_addr);
      Some req
    end
    else None
  end

(* Allocation-free per-cycle probe: has the head response for [sm]
   arrived?  Lets the SM skip its return-processing phase entirely on
   the (common) cycles with nothing to drain. *)
let response_arrived t ~now ~sm =
  let q = t.to_sm.(sm) in
  (not (Queue.is_empty q)) && (Queue.peek q).Request.t_resp_arrive <= now

(* Fast-forward contract: earliest cycle at which an in-flight transfer
   matures — [max_int] when nothing is in flight, any value [<= now]
   means a head has already arrived and its consumer must run.  Both
   queue families are FIFO in arrival time (the latency is a constant
   added to a monotone enqueue clock), so only the heads need
   inspecting; the scan is allocation-free. *)
let next_wake t ~now:_ =
  let horizon = ref max_int in
  Array.iter
    (fun q ->
      if not (Queue.is_empty q) then begin
        let c = (Queue.peek q).Request.t_arrive in
        if c < !horizon then horizon := c
      end)
    t.to_part;
  Array.iter
    (fun q ->
      if not (Queue.is_empty q) then begin
        let c = (Queue.peek q).Request.t_resp_arrive in
        if c < !horizon then horizon := c
      end)
    t.to_sm;
  !horizon
