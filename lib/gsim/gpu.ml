(* Top-level cycle simulator: SMs + interconnect + memory partitions,
   plus the per-launch CTA work distributor.

   The machine persists across the kernel launches of one application,
   so L1/L2 contents survive kernel boundaries as they do on hardware;
   only the warp slots are reconfigured per launch.

   CTA scheduling (Section X.B): the hardware default assigns CTAs to
   SMs in round-robin order as slots free up; the clustered policy
   sends groups of [k] consecutive CTAs to the same SM to exploit
   neighbour-CTA data locality in the private L1s. *)

type t = {
  cfg : Config.t;
  stats : Stats.t;
  trace : Trace.t;
  icnt : Icnt.t;
  parts : L2part.t array;
  sms : Sm.t array;
  mutable cycle : int;
}

(* The per-cycle hot path allocates short-lived records (requests,
   warp-load records, memory-operation results, coalesced line lists;
   register values are unboxed); under the default 256k-word minor
   heap a long simulation spends a measurable fraction of its time in
   minor collections.  Grow the minor heap once per process —
   GC parameters are pure runtime tuning and cannot affect simulation
   results.  Never shrinks a user-configured larger heap. *)
let gc_tuned = ref false

let tune_gc () =
  if not !gc_tuned then begin
    gc_tuned := true;
    let g = Gc.get () in
    let minor = 16 * 1024 * 1024 (* words *) in
    if g.Gc.minor_heap_size < minor then
      Gc.set
        { g with
          Gc.minor_heap_size = minor;
          space_overhead = max g.Gc.space_overhead 200 }
  end

let create_machine ?(cfg = Config.default) ?(trace = Trace.null ()) () =
  tune_gc ();
  let stats = Stats.create () in
  {
    cfg;
    stats;
    trace;
    icnt = Icnt.create ~trace cfg;
    parts =
      Array.init cfg.Config.n_mem_partitions (fun id ->
          L2part.create ~trace cfg ~id ~stats);
    sms =
      Array.init cfg.Config.n_sms (fun id ->
          Sm.create ~trace cfg ~id ~stats ~warp_slots:0);
    cycle = 0;
  }

(* Per-launch distributor state. *)
type dist = {
  launch : Launch.t;
  n_ctas_target : int;
  mutable next_cta : int;
  cta_queues : int Queue.t array;
}

let make_dist t launch =
  let n_ctas_target = Launch.n_ctas launch in
  let cta_queues = Array.init t.cfg.Config.n_sms (fun _ -> Queue.create ()) in
  (match t.cfg.Config.cta_sched with
  | Config.Round_robin -> ()
  | Config.Clustered _ ->
      for cta = 0 to n_ctas_target - 1 do
        Queue.push cta cta_queues.(Config.home_sm t.cfg cta)
      done);
  { launch; n_ctas_target; next_cta = 0; cta_queues }

(* Hand out CTAs to SMs with free slots. *)
let distribute t d =
  match t.cfg.Config.cta_sched with
  | Config.Round_robin ->
      let progress = ref true in
      while !progress && d.next_cta < d.n_ctas_target do
        progress := false;
        Array.iter
          (fun sm ->
            if
              d.next_cta < d.n_ctas_target
              && Sm.free_slots sm > 0
              && Sm.try_launch sm d.launch ~cta_lin:d.next_cta
            then begin
              d.next_cta <- d.next_cta + 1;
              progress := true
            end)
          t.sms
      done
  | Config.Clustered _ ->
      Array.iteri
        (fun i sm ->
          let q = d.cta_queues.(i) in
          let progress = ref true in
          while !progress && not (Queue.is_empty q) do
            progress := false;
            let cta = Queue.peek q in
            if Sm.free_slots sm > 0 && Sm.try_launch sm d.launch ~cta_lin:cta
            then begin
              ignore (Queue.pop q);
              progress := true
            end
          done)
        t.sms

let work_remaining t d =
  let pending_ctas =
    match t.cfg.Config.cta_sched with
    | Config.Round_robin -> d.next_cta < d.n_ctas_target
    | Config.Clustered _ ->
        Array.exists (fun q -> not (Queue.is_empty q)) d.cta_queues
  in
  pending_ctas
  || Array.exists (fun sm -> not (Sm.idle sm)) t.sms
  || Array.exists (fun p -> not (L2part.idle p)) t.parts

(* Occupancy timelines are sampled sparsely — every 256th cycle — so
   tracing a long run stays linear in events, not cycles * SMs. *)
let occupancy_interval_mask = 255

let step t d =
  distribute t d;
  let now = t.cycle in
  for i = 0 to Array.length t.sms - 1 do
    Sm.cycle t.sms.(i) ~now ~icnt:t.icnt
  done;
  for i = 0 to Array.length t.parts - 1 do
    L2part.cycle t.parts.(i) ~now ~icnt:t.icnt
  done;
  if Trace.enabled t.trace && now land occupancy_interval_mask = 0 then
    Array.iteri
      (fun id sm ->
        let mshr, ldst_q = Sm.occupancy_sample sm in
        Trace.emit t.trace
          (Trace.Ev_occupancy { cycle = now; sm = id; mshr; ldst_q }))
      t.sms;
  t.cycle <- t.cycle + 1

(* The stall watchdog fires after this many cycles with no change in
   the activity fingerprint.  Inspecting the SMs then tells a barrier
   deadlock (some warp parked at bar.sync forever) from a livelock. *)
let watchdog_cycles = 200_000

let diagnose_stall t (launch : Launch.t) =
  let kernel = launch.Launch.kernel.Ptx.Kernel.kname in
  let waiters =
    Array.to_list t.sms |> List.concat_map (fun sm -> Sm.barrier_waiters sm)
  in
  match waiters with
  | (cta, warp, pc) :: rest ->
      Sim_error.error ~kernel ~pc ~cta ~warp ~cycle:t.cycle
        Sim_error.Barrier_deadlock
        "warp stuck at a barrier for %d cycles (%d more warp(s) waiting); \
         the rest of the CTA never arrives — likely a barrier under \
         divergent control flow"
        watchdog_cycles (List.length rest)
  | [] ->
      Sim_error.error ~kernel ~cycle:t.cycle Sim_error.No_progress
        "no forward progress for %d cycles: no instruction retired, no \
         memory request advanced, and no warp is at a barrier"
        watchdog_cycles

(* ---- event-driven fast-forward ----

   When every component is quiescent — no SM can issue or retry, no
   interconnect transfer has arrived, no DRAM burst or ROP hit has
   matured, and no pending CTA could be placed — nothing in the model
   mutates until the earliest "next wake" among them, except the
   per-cycle unit-occupancy samples, which [Sm.account_idle] restores
   in batch.  The clock can therefore jump to that horizon instead of
   idling cycle-by-cycle; [run_launch ~fast_forward:true] is
   byte-identical in [Stats.t] and trace stream to the naive loop (the
   equivalence test cross-checks all 15 apps).

   Returns [None] when some component is active at [t.cycle] (step
   normally) and [Some h] with the quiescent horizon otherwise —
   [max_int] when nothing is pending at all, in which case the caller's
   watchdog cap turns the jump into the same stall diagnosis the naive
   loop reaches. *)
let quiescent_horizon t d =
  let dist_active =
    (* CTA placement is slot-driven, not time-driven: if any pending
       CTA might fit now, stay on the naive path.  Slots only free
       during SM activity, so this cannot become true inside a
       quiescent window. *)
    match t.cfg.Config.cta_sched with
    | Config.Round_robin ->
        d.next_cta < d.n_ctas_target
        && Array.exists (fun sm -> Sm.free_slots sm > 0) t.sms
    | Config.Clustered _ ->
        let n = Array.length t.sms in
        let rec any i =
          i < n
          && ((not (Queue.is_empty d.cta_queues.(i)))
              && Sm.free_slots t.sms.(i) > 0
             || any (i + 1))
        in
        any 0
  in
  if dist_active then None
  else begin
    let now = t.cycle in
    let active = ref false in
    let horizon = ref max_int in
    let consider c =
      if c <= now then active := true else if c < !horizon then horizon := c
    in
    let nsm = Array.length t.sms in
    let i = ref 0 in
    while (not !active) && !i < nsm do
      consider (Sm.next_wake t.sms.(!i) ~now);
      incr i
    done;
    if not !active then consider (Icnt.next_wake t.icnt ~now);
    let nparts = Array.length t.parts in
    let i = ref 0 in
    while (not !active) && !i < nparts do
      consider (L2part.next_wake t.parts.(!i) ~now);
      incr i
    done;
    if !active then None else Some !horizon
  end

(* Run one kernel launch to completion (or to the caps), keeping cache
   state from prior launches.  Returns false when an instruction/cycle
   cap stopped the launch early (also recorded as [stats.truncated]).
   With [fast_forward] (default false) quiescent windows are jumped
   instead of stepped — same observable behaviour, fewer iterations.
   @raise Sim_error.Error on barrier deadlock or livelock — a guard
   against malformed kernels and simulator bugs, not an expected
   outcome. *)
let run_launch t ?(fast_forward = false) (launch : Launch.t) =
  let threads_per_cta = Launch.threads_per_cta launch in
  let ctas_per_sm =
    Config.ctas_per_sm t.cfg ~threads_per_cta
      ~smem_bytes:launch.Launch.kernel.Ptx.Kernel.smem_bytes
  in
  let warps_per_cta =
    Launch.warps_per_cta launch ~warp_size:t.cfg.Config.warp_size
  in
  Array.iter
    (fun sm ->
      Sm.reconfigure sm ~warp_slots:(ctas_per_sm * warps_per_cta)
        ~warps_per_cta)
    t.sms;
  let d = make_dist t launch in
  let last_activity = ref t.cycle in
  let last_fingerprint = ref (-1) in
  let fingerprint () =
    t.stats.Stats.warp_insts + t.stats.Stats.l1_probe_cycles
    + t.stats.Stats.completed_ctas
  in
  let cap_hit () =
    (t.cfg.Config.max_warp_insts > 0
     && t.stats.Stats.warp_insts >= t.cfg.Config.max_warp_insts)
    || t.cycle >= t.cfg.Config.max_cycles
  in
  while work_remaining t d && not (cap_hit ()) do
    (if fast_forward then
       match quiescent_horizon t d with
       | None -> ()
       | Some h ->
           (* Never jump past an observable boundary: the watchdog
              deadline (the stall must be diagnosed at the same cycle),
              the cycle cap, or — when tracing — the next sparse
              occupancy sample, which the naive loop emits in [step]. *)
           let h = min h (!last_activity + watchdog_cycles) in
           let h = min h t.cfg.Config.max_cycles in
           let h =
             if Trace.enabled t.trace then
               if t.cycle land occupancy_interval_mask = 0 then t.cycle
               else
                 min h
                   ((t.cycle lor occupancy_interval_mask) + 1)
             else h
           in
           if h > t.cycle then begin
             Array.iter
               (fun sm -> Sm.account_idle sm ~now:t.cycle ~until:h)
               t.sms;
             t.cycle <- h
           end);
    if not (cap_hit ()) then begin
      step t d;
      let fp = fingerprint () in
      if fp <> !last_fingerprint then begin
        last_fingerprint := fp;
        last_activity := t.cycle
      end
      else if t.cycle - !last_activity > watchdog_cycles then
        diagnose_stall t launch
    end
  done;
  t.stats.Stats.cycles <- t.cycle;
  if cap_hit () then begin
    t.stats.Stats.truncated <- true;
    false
  end
  else true

(* Convenience: one launch on a fresh machine. *)
let run ?cfg ?trace ?fast_forward (launch : Launch.t) =
  let t = create_machine ?cfg ?trace () in
  ignore (run_launch t ?fast_forward launch);
  t
