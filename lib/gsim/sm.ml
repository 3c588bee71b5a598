(* Streaming multiprocessor timing model.

   Per cycle (driven by [Gpu]):
     1. fills returning from the interconnect and local L1-hit
        completions wake waiting warps;
     2. the LD/ST unit issues at most one coalesced request per cycle
        into the L1, recording hit / hit-reserved / miss /
        reservation-fail outcomes (Fig 3) — trailing requests of a
        multi-request warp load wait, which is the paper's "rsrv fail
        by a current warp";
     3. the issue stage picks one ready warp (loose round-robin) whose
        required functional unit is free and executes its next
        instruction.

   Occupancy of each unit's first pipeline stage is sampled every cycle
   for Fig 4.

   Warp-slot state lives in flat int arrays ([states], [blocked_until])
   rather than a per-slot variant record: the issue scan, the
   fast-forward [next_wake] probe and the barrier/retire sweeps all
   walk every slot, and an unboxed compare-and-branch per slot keeps
   those walks allocation-free and cache-friendly. *)

type cls = Dataflow.Classify.load_class

(* Slot state codes (values of [states]). *)
let st_empty = 0

let st_ready = 1

let st_blocked = 2 (* wakes at [blocked_until] *)

let st_waiting_mem = 3

let st_barrier = 4

let st_done = 5

type resident = {
  rc_cta : Cta.t;
  rc_base : int; (* first slot index *)
  rc_nwarps : int;
}

(* One warp-level memory instruction being pushed into the L1, line by
   line.  [pm_groups] holds the remaining sub-warp groups of the
   Section X.A warp-splitting ablation. *)
type pending_mem = {
  pm_wl : Request.warp_load option; (* None for stores *)
  mutable pm_lines : int list;
  mutable pm_groups : int list list;
  pm_kind : Request.kind;
  pm_cls : cls;
  pm_cta : int; (* issuing CTA, for MSHR locality attribution *)
  pm_prefetch : bool; (* next-line prefetch on miss *)
  pm_bypass : bool; (* skip the L1 *)
  pm_protect : bool; (* pin the touched L1 lines (holistic N loads) *)
}

type hit_completion = { hc_ready : int; hc_req : Request.t }

(* [slot_unit] codes: the three [Exec.unit_class]es plus "not peeked
   yet". *)
let unit_unknown = -1

let unit_code = function Exec.SP -> 0 | Exec.SFU -> 1 | Exec.LDST -> 2

type t = {
  id : int;
  cfg : Config.t;
  stats : Stats.t;
  trace : Trace.t;
  l1 : Cache.t;
  pol : Mempolicy.t; (* per-SM memory-system policy state *)
  mutable warps : Warp.t option array; (* per slot *)
  mutable states : int array; (* per slot, [st_*] codes *)
  mutable blocked_until : int array; (* meaningful when [st_blocked] *)
  (* Cached [Warp.peek_unit] per slot, [unit_unknown] when not yet
     peeked.  A warp's next instruction is fixed between steps, so the
     cache is invalidated only when the slot's warp steps (or the slot
     is re-assigned); the issue scan then skips the peek on warps it
     already knows are stalled on a busy unit. *)
  mutable slot_unit : int array;
  mutable slot_rc : resident option array; (* owning CTA per slot *)
  mutable n_empty : int; (* |{ i | states.(i) = st_empty }| *)
  mutable n_ready : int; (* |{ i | states.(i) = st_ready }| *)
  (* Ready slots bucketed by cached unit: index [slot_unit + 1], so
     bucket 0 counts ready slots not yet peeked.  Lets the issue stage
     skip the scan when every ready warp waits on a known-busy unit. *)
  n_ready_u : int array;
  mutable n_blocked : int; (* |{ i | states.(i) = st_blocked }| *)
  (* Lower bound on min blocked_until over blocked slots (max_int when
     none).  Never raised eagerly when a blocked slot wakes, so it can
     go stale low — [refresh_blocked_min] recomputes it exactly before
     it is used to skip work.  A stale-low bound only costs a scan,
     never correctness. *)
  mutable blocked_min : int;
  mutable residents : resident list;
  ldst_q : pending_mem Queue.t;
  hit_pending : hit_completion Queue.t;
  mutable sp_busy_until : int;
  mutable sfu_busy_until : int;
  mutable ldst_busy_until : int; (* shared/const ops occupy LD/ST too *)
  mutable last_issued : int;
}

let create ?(trace = Trace.null ()) (cfg : Config.t) ~id ~stats ~warp_slots =
  {
    id;
    cfg;
    stats;
    trace;
    l1 =
      Cache.create ~sets:cfg.Config.l1_sets ~ways:cfg.Config.l1_ways
        ~line_size:cfg.Config.line_size
        ~mshr_entries:cfg.Config.l1_mshr_entries
        ~mshr_max_merge:cfg.Config.l1_mshr_max_merge;
    pol = Mempolicy.create cfg;
    warps = Array.make warp_slots None;
    states = Array.make warp_slots st_empty;
    blocked_until = Array.make warp_slots 0;
    slot_unit = Array.make warp_slots unit_unknown;
    slot_rc = Array.make warp_slots None;
    n_empty = warp_slots;
    n_ready = 0;
    n_ready_u = Array.make 4 0;
    n_blocked = 0;
    blocked_min = max_int;
    residents = [];
    ldst_q = Queue.create ();
    hit_pending = Queue.create ();
    sp_busy_until = 0;
    sfu_busy_until = 0;
    ldst_busy_until = 0;
    last_issued = 0;
  }

(* Resize the warp-slot table for a new launch; caches persist across
   kernel boundaries.  Only legal when no CTAs are resident. *)
let reconfigure t ~warp_slots ~warps_per_cta =
  Mempolicy.reconfigure t.pol ~warp_slots ~warps_per_cta;
  if t.residents <> [] then
    Sim_error.error Sim_error.Internal
      "SM %d reconfigured with %d CTAs still resident" t.id
      (List.length t.residents);
  if Array.length t.states <> warp_slots then begin
    t.warps <- Array.make warp_slots None;
    t.states <- Array.make warp_slots st_empty;
    t.blocked_until <- Array.make warp_slots 0;
    t.slot_unit <- Array.make warp_slots unit_unknown;
    t.slot_rc <- Array.make warp_slots None
  end;
  t.n_empty <- warp_slots;
  t.n_ready <- 0;
  Array.fill t.n_ready_u 0 4 0;
  t.n_blocked <- 0;
  t.blocked_min <- max_int;
  t.last_issued <- 0

let free_slots t = t.n_empty

(* All slot-state writes go through here so the O(1) occupancy counters
   stay consistent with [states]. *)
let set_state t i st =
  let old = t.states.(i) in
  if old <> st then begin
    if old = st_empty then t.n_empty <- t.n_empty - 1
    else if old = st_ready then begin
      t.n_ready <- t.n_ready - 1;
      let b = t.slot_unit.(i) + 1 in
      t.n_ready_u.(b) <- t.n_ready_u.(b) - 1
    end
    else if old = st_blocked then begin
      t.n_blocked <- t.n_blocked - 1;
      if t.n_blocked = 0 then t.blocked_min <- max_int
    end;
    if st = st_empty then t.n_empty <- t.n_empty + 1
    else if st = st_ready then begin
      t.n_ready <- t.n_ready + 1;
      let b = t.slot_unit.(i) + 1 in
      t.n_ready_u.(b) <- t.n_ready_u.(b) + 1
    end
    else if st = st_blocked then t.n_blocked <- t.n_blocked + 1;
    t.states.(i) <- st
  end

(* All [slot_unit] writes on live slots go through here so the
   [n_ready_u] buckets track ready slots exactly. *)
let set_slot_unit t i c =
  let old = t.slot_unit.(i) in
  if old <> c then begin
    if t.states.(i) = st_ready then begin
      t.n_ready_u.(old + 1) <- t.n_ready_u.(old + 1) - 1;
      t.n_ready_u.(c + 1) <- t.n_ready_u.(c + 1) + 1
    end;
    t.slot_unit.(i) <- c
  end

let set_blocked t i ~until =
  set_state t i st_blocked;
  t.blocked_until.(i) <- until;
  if until < t.blocked_min then t.blocked_min <- until

(* Recompute [blocked_min] exactly; call only when the stale bound is
   about to trigger a slot scan. *)
let refresh_blocked_min t =
  let m = ref max_int in
  let bu = t.blocked_until and sts = t.states in
  for i = 0 to Array.length sts - 1 do
    if sts.(i) = st_blocked && bu.(i) < !m then m := bu.(i)
  done;
  t.blocked_min <- !m

(* True iff some slot would pass [slot_ready] this cycle — the issue
   scan (and its stack-mutating [Warp.peek_unit] calls) runs only on
   such slots, so skipping it entirely when this is false is
   behaviourally identical. *)
let any_issuable t ~now =
  t.n_ready > 0
  || t.n_blocked > 0
     && t.blocked_min <= now
     && begin
          refresh_blocked_min t;
          t.blocked_min <= now
        end

(* Stronger gate for the issue stage only: beyond [any_issuable], a
   scan is also pointless when every ready slot's cached unit is busy
   (bucket 0 holds the not-yet-peeked slots, which must be scanned to
   learn their unit).  An expired blocked slot always forces the scan —
   the scan promotes it to [st_ready] so the buckets take over from the
   next cycle on.  NOT used by [next_wake]: busy units are not wake
   sources there, so the weaker [any_issuable] keeps its contract. *)
let scan_worthwhile t ~now =
  (t.n_blocked > 0
   && t.blocked_min <= now
   && begin
        refresh_blocked_min t;
        t.blocked_min <= now
      end)
  || t.n_ready_u.(0) > 0
  || (t.n_ready_u.(1) > 0 && t.sp_busy_until <= now)
  || (t.n_ready_u.(2) > 0 && t.sfu_busy_until <= now)
  || t.n_ready_u.(3) > 0
     && Queue.is_empty t.ldst_q
     && t.ldst_busy_until <= now

(* Place a CTA in contiguous free slots; false when it does not fit. *)
let try_launch t (launch : Launch.t) ~cta_lin =
  let nwarps = Launch.warps_per_cta launch ~warp_size:t.cfg.Config.warp_size in
  let n = Array.length t.states in
  let rec find_base base =
    if base + nwarps > n then None
    else begin
      let free = ref true in
      for i = base to base + nwarps - 1 do
        if t.states.(i) <> st_empty then free := false
      done;
      if !free then Some base else find_base (base + nwarps)
    end
  in
  match find_base 0 with
  | None -> false
  | Some base ->
      let cta = Cta.create launch ~warp_size:t.cfg.Config.warp_size ~cta_lin in
      let rc = { rc_cta = cta; rc_base = base; rc_nwarps = Cta.n_warps cta } in
      Array.iteri
        (fun i w ->
          t.warps.(base + i) <- Some w;
          t.slot_unit.(base + i) <- unit_unknown; (* while still empty *)
          set_state t (base + i) st_ready;
          t.slot_rc.(base + i) <- Some rc)
        cta.Cta.warps;
      t.residents <- rc :: t.residents;
      true

let resident_of_slot t slot =
  match t.slot_rc.(slot) with
  | Some rc -> rc
  | None ->
      Sim_error.error Sim_error.Internal
        "SM %d: warp slot %d belongs to no resident CTA" t.id slot

(* Barrier release: when every live warp of the CTA is at the barrier,
   set them all ready. *)
let check_barrier t rc =
  let all_there = ref true in
  for i = rc.rc_base to rc.rc_base + rc.rc_nwarps - 1 do
    let st = t.states.(i) in
    if st <> st_barrier && st <> st_done then all_there := false
  done;
  if !all_there then
    for i = rc.rc_base to rc.rc_base + rc.rc_nwarps - 1 do
      if t.states.(i) = st_barrier then set_state t i st_ready
    done

(* CTA retirement: free its slots. *)
let check_cta_done t rc =
  let all_done = ref true in
  for i = rc.rc_base to rc.rc_base + rc.rc_nwarps - 1 do
    if t.states.(i) <> st_done then all_done := false
  done;
  if !all_done then begin
    for i = rc.rc_base to rc.rc_base + rc.rc_nwarps - 1 do
      t.warps.(i) <- None;
      set_state t i st_empty;
      t.slot_unit.(i) <- unit_unknown;
      t.slot_rc.(i) <- None
    done;
    t.residents <- List.filter (fun r -> r != rc) t.residents;
    t.stats.Stats.completed_ctas <- t.stats.Stats.completed_ctas + 1
  end

(* ---- memory completion path ---- *)

let complete_request t ~now (req : Request.t) =
  match req.Request.wl with
  | None -> ()
  | Some wl ->
      if wl.Request.wl_t_first_return < 0 then
        wl.Request.wl_t_first_return <- now;
      wl.Request.wl_t_last_return <- now;
      wl.Request.wl_deepest <-
        Request.deeper wl.Request.wl_deepest req.Request.level;
      if req.Request.t_l2_start >= 0 && req.Request.t_icnt >= 0 then
        wl.Request.wl_sum_icnt_wait <-
          wl.Request.wl_sum_icnt_wait
          + max 0
              (req.Request.t_l2_start - req.Request.t_icnt
             - t.cfg.Config.icnt_latency);
      wl.Request.wl_outstanding <- wl.Request.wl_outstanding - 1;
      if wl.Request.wl_outstanding = 0 then begin
        Stats.record_warp_load_done t.stats t.cfg wl;
        if Trace.enabled t.trace then
          Trace.emit t.trace
            (Trace.Ev_load_return
               { cycle = now; sm = t.id; cta = wl.Request.wl_cta;
                 kernel = wl.Request.wl_kernel; pc = wl.Request.wl_pc;
                 cls = wl.Request.wl_cls; nreq = wl.Request.wl_nreq;
                 turnaround = now - wl.Request.wl_t_issue;
                 level = wl.Request.wl_deepest });
        let slot = wl.Request.wl_warp_slot in
        if t.states.(slot) = st_waiting_mem then set_state t slot st_ready
      end

let process_returns t ~now ~icnt =
  (* responses from the memory side: fill the L1 and release both the
     primary request and any merged (hit-reserved) waiters *)
  let budget = ref 2 in
  let continue_ = ref true in
  while !continue_ && !budget > 0 do
    match Icnt.pop_response icnt ~now ~sm:t.id with
    | Some req ->
        decr budget;
        let waiters =
          if req.Request.no_fill then []
          else begin
            let ws = Cache.fill t.l1 ~line_addr:req.Request.line_addr in
            if Trace.enabled t.trace then
              Trace.emit t.trace
                (Trace.Ev_mshr_free
                   { cycle = now; where = Trace.S_l1 t.id;
                     line = req.Request.line_addr;
                     waiters = List.length ws });
            ws
          end
        in
        complete_request t ~now req;
        List.iter
          (fun w ->
            if w != req then begin
              w.Request.level <- Request.deeper w.Request.level req.Request.level;
              complete_request t ~now w
            end)
          waiters
    | None -> continue_ := false
  done;
  (* local L1-hit completions *)
  let continue_ = ref true in
  while !continue_ && not (Queue.is_empty t.hit_pending) do
    let hc = Queue.peek t.hit_pending in
    if hc.hc_ready <= now then begin
      ignore (Queue.take t.hit_pending);
      complete_request t ~now hc.hc_req
    end
    else continue_ := false
  done

(* ---- LD/ST unit: one L1 access attempt per cycle ---- *)

(* A line request of a warp-level memory instruction. *)
let line_request t ~cta ~line ~kind ~cls wl =
  Request.make ~cta ~line_addr:line ~sm_id:t.id ~kind ~cls ~wl

(* The L1 took [req] this cycle. *)
let accept ~now (req : Request.t) =
  match req.Request.wl with
  | None -> ()
  | Some wl ->
      if wl.Request.wl_t_first_accept < 0 then
        wl.Request.wl_t_first_accept <- now;
      wl.Request.wl_t_last_accept <- now

(* Act on a completed probe: a hit completes locally after the hit
   latency, a merge waits on its MSHR entry, a miss goes downstream. *)
let dispatch t ~now ~icnt (req : Request.t) (outcome : Cache.outcome) =
  accept ~now req;
  match outcome with
  | Cache.Hit ->
      Queue.push
        { hc_ready = now + t.cfg.Config.l1_hit_latency; hc_req = req }
        t.hit_pending
  | Cache.Miss -> Icnt.inject_request icnt ~now req
  | Cache.Hit_reserved | Cache.Rsrv_fail _ -> ()

(* Feed a demand-load probe outcome back to the policy (streaming
   detection, reservation-fail throttle window).  Constant-time no-op
   under Baseline. *)
let policy_outcome t (wl : Request.warp_load option) cls outcome =
  match wl with
  | Some wl ->
      Mempolicy.on_outcome t.pol ~kernel:wl.Request.wl_kernel
        ~pc:wl.Request.wl_pc cls outcome
  | None -> ()

(* The one recorder of an L1 load probe.  A demand load (of warp load
   [wl]) counts in the Fig 3 statistics and feeds the policy; a
   next-line prefetch ([wl = None]) is traced only. *)
let record_l1 t ~now ~line ~cta ~cls wl outcome =
  (match wl with
  | Some _ ->
      Stats.record_l1_event t.stats outcome cls;
      policy_outcome t wl cls outcome
  | None -> ());
  if Trace.enabled t.trace then
    Trace.probe t.trace t.l1 ~cycle:now ~where:(Trace.S_l1 t.id) ~line ~cta
      ~src:(match wl with Some _ -> Trace.A_load cls | None -> Trace.A_prefetch)
      outcome

(* Section X.A: next-line prefetch after an N-load miss, only when
   every resource is free (never displaces demand traffic at
   reservation time). *)
let prefetch_next_line t ~now ~icnt ~line ~cls =
  let pline = line + t.cfg.Config.line_size in
  if Icnt.can_inject icnt ~sm:t.id && Cache.probe t.l1 ~line_addr:pline = `Absent
  then begin
    let preq =
      Request.make ~cta:(-1) ~line_addr:pline ~sm_id:t.id ~kind:Request.Load
        ~cls ~wl:None
    in
    let outcome = Cache.access_load t.l1 ~req:preq ~icnt_ok:true in
    record_l1 t ~now ~line:pline ~cta:(-1) ~cls None outcome;
    match outcome with
    | Cache.Miss ->
        Icnt.inject_request icnt ~now preq;
        t.stats.Stats.prefetches_issued <- t.stats.Stats.prefetches_issued + 1
    | Cache.Hit | Cache.Hit_reserved | Cache.Rsrv_fail _ -> ()
  end

(* Drain the in-order LD/ST queue: one L1 access attempt per cycle. *)
let fifo_cycle t ~now ~icnt =
  if not (Queue.is_empty t.ldst_q) then begin
    let pm = Queue.peek t.ldst_q in
      match pm.pm_lines with
      | [] -> (
          ignore (Queue.take t.ldst_q);
          (* next sub-warp group goes to the back of the queue so other
             warps can interleave (Section X.A) *)
          match pm.pm_groups with
          | g :: rest ->
              pm.pm_lines <- g;
              pm.pm_groups <- rest;
              Queue.push pm t.ldst_q
          | [] -> ())
      | line :: rest -> (
          match pm.pm_kind with
          | Request.Store ->
              let outcome =
                if Icnt.can_inject icnt ~sm:t.id then begin
                  Cache.invalidate t.l1 ~line_addr:line;
                  let req =
                    line_request t ~cta:pm.pm_cta ~line
                      ~kind:Request.Store ~cls:pm.pm_cls None
                  in
                  accept ~now req;
                  Icnt.inject_request icnt ~now req;
                  t.stats.Stats.global_stores <- t.stats.Stats.global_stores + 1;
                  pm.pm_lines <- rest;
                  Cache.Miss
                end
                else Cache.Rsrv_fail Cache.Fail_icnt
              in
              (* a store reserves no MSHR: a bare access event *)
              Stats.record_l1_store_event t.stats outcome;
              if Trace.enabled t.trace then
                Trace.emit t.trace
                  (Trace.Ev_access
                     { cycle = now; where = Trace.S_l1 t.id; line;
                       src = Trace.A_store; outcome })
          | Request.Load | Request.Atomic when pm.pm_bypass ->
              (* instruction-aware L1 bypass: the request goes straight
                 to the L2, no tag or MSHR is reserved and the response
                 will not fill the L1 *)
              if Icnt.can_inject icnt ~sm:t.id then begin
                let req =
                  line_request t ~cta:pm.pm_cta ~line ~kind:pm.pm_kind
                    ~cls:pm.pm_cls pm.pm_wl
                in
                req.Request.no_fill <- true;
                accept ~now req;
                Icnt.inject_request icnt ~now req;
                (* a bypass injection is a successful attempt of the
                   L1 pipe: feed the throttle window as a miss *)
                policy_outcome t pm.pm_wl pm.pm_cls Cache.Miss;
                pm.pm_lines <- rest
              end
              else
                (* a stalled bypass load is a load-side icnt
                   reservation failure, recorded with its D/N class *)
                record_l1 t ~now ~line ~cta:pm.pm_cta ~cls:pm.pm_cls pm.pm_wl
                  (Cache.Rsrv_fail Cache.Fail_icnt)
          | Request.Load | Request.Atomic -> (
              let req =
                line_request t ~cta:pm.pm_cta ~line ~kind:pm.pm_kind
                  ~cls:pm.pm_cls pm.pm_wl
              in
              let outcome =
                Cache.access_load_protect t.l1 ~protect:pm.pm_protect ~req
                  ~icnt_ok:(Icnt.can_inject icnt ~sm:t.id)
              in
              record_l1 t ~now ~line ~cta:pm.pm_cta ~cls:pm.pm_cls pm.pm_wl
                outcome;
              match outcome with
              | Cache.Rsrv_fail _ -> ()
              | Cache.Hit | Cache.Hit_reserved | Cache.Miss ->
                  dispatch t ~now ~icnt req outcome;
                  pm.pm_lines <- rest;
                  if pm.pm_prefetch && outcome = Cache.Miss then
                    prefetch_next_line t ~now ~icnt ~line ~cls:pm.pm_cls))
  end

(* Issue one IAR line batch: every buffered entry for [line] shares a
   single L1 probe.  The oldest entry is the primary; on Miss or
   Hit_reserved the secondaries attach to the primary's MSHR entry
   without consuming merge capacity (they were combined upstream of
   the cache), on Hit each gets its own local completion, and on a
   reservation failure the whole batch stays buffered for a later
   cycle — the reorder unit will often pick a different line then,
   which is where the reduction in per-retry fail cycles comes from. *)
let iar_issue t ~now ~icnt ~line =
  match Mempolicy.iar_batch t.pol ~line with
  | [] -> () (* unreachable: select only returns buffered lines *)
  | prim :: secs -> (
      let request (e : Mempolicy.iar_entry) =
        line_request t ~cta:e.Mempolicy.ie_cta ~line
          ~kind:e.Mempolicy.ie_kind ~cls:e.Mempolicy.ie_cls e.Mempolicy.ie_wl
      in
      let req = request prim in
      let outcome =
        Cache.access_load t.l1 ~req ~icnt_ok:(Icnt.can_inject icnt ~sm:t.id)
      in
      record_l1 t ~now ~line ~cta:prim.Mempolicy.ie_cta
        ~cls:prim.Mempolicy.ie_cls prim.Mempolicy.ie_wl outcome;
      match outcome with
      | Cache.Rsrv_fail _ -> Mempolicy.iar_defer t.pol ~now
      | Cache.Hit | Cache.Hit_reserved | Cache.Miss ->
          dispatch t ~now ~icnt req outcome;
          List.iter
            (fun e ->
              let r = request e in
              if outcome = Cache.Hit then dispatch t ~now ~icnt r outcome
              else begin
                accept ~now r;
                ignore (Cache.mshr_attach t.l1 ~line_addr:line ~req:r)
              end)
            secs;
          Mempolicy.iar_remove_line t.pol ~line)

(* LD/ST arbitration: the reorder buffer may claim this cycle's single
   L1 access (aged entries first, else when the in-order queue is
   empty); otherwise the queue drains as on stock hardware.  Under
   Baseline [iar_select] is a constant [None]. *)
let ldst_cycle t ~now ~icnt =
  match
    Mempolicy.iar_select t.pol ~now
      ~fifo_nonempty:(not (Queue.is_empty t.ldst_q))
  with
  | Some line -> iar_issue t ~now ~icnt ~line
  | None -> fifo_cycle t ~now ~icnt

(* ---- issue stage ---- *)

let slot_ready t i ~now =
  let st = t.states.(i) in
  st = st_ready || (st = st_blocked && t.blocked_until.(i) <= now)

(* Issue one memory instruction: consult the memory-system policy,
   coalesce, build the warp-load record, route into the LD/ST unit
   (in-order queue or IAR reorder buffer), block the warp if it must
   wait. *)
let issue_mem t ~now ~slot_idx (w : Warp.t) (m : Warp.mem_op) =
  let cfg = t.cfg in
  match (m.Warp.m_space, m.Warp.m_kind) with
  | Ptx.Types.Global, (Warp.Load | Warp.Atomic) ->
      let launch = (resident_of_slot t slot_idx).rc_cta.Cta.launch in
      let kernel = launch.Launch.kernel.Ptx.Kernel.kname in
      let cls = Launch.load_class launch m.Warp.m_pc in
      let d = Mempolicy.decide t.pol ~kernel ~pc:m.Warp.m_pc cls in
      let pol = d.Mempolicy.d_flags in
      let groups =
        Coalesce.split_lines ~line_size:cfg.Config.line_size
          ~width:pol.Config.lp_split ~mask:m.Warp.m_mask ~addrs:m.Warp.m_addrs
      in
      let total = List.fold_left (fun a g -> a + List.length g) 0 groups in
      let cta = w.Warp.cta_lin in
      let wl =
        Request.make_warp_load ~cta ~warp_slot:slot_idx ~kernel
          ~pc:m.Warp.m_pc ~cls ~active:(Warp.popcount m.Warp.m_mask) ~now
      in
      wl.Request.wl_nreq <- total;
      wl.Request.wl_outstanding <- total;
      (match groups with
      | [] -> set_blocked t slot_idx ~until:(now + 1)
      | g :: rest ->
          if Trace.enabled t.trace then
            Trace.emit t.trace
              (Trace.Ev_load_issue
                 { cycle = now; sm = t.id; cta; warp_slot = slot_idx;
                   kernel; pc = m.Warp.m_pc; cls;
                   active = Warp.popcount m.Warp.m_mask; nreq = total });
          (* Reorder-buffer routing: plain (unsplit) loads only —
             atomics and sub-warp groups keep program order.  When the
             buffer lacks room the load falls back to the in-order
             queue, which bounds buffered state by construction. *)
          let buffered =
            d.Mempolicy.d_buffer
            && m.Warp.m_kind = Warp.Load
            && rest = []
            && Mempolicy.iar_room t.pol ~n:(List.length g)
          in
          if buffered then
            List.iter
              (fun line ->
                Mempolicy.iar_add t.pol
                  { Mempolicy.ie_line = line; ie_born = now; ie_wl = Some wl;
                    ie_kind = Request.Load; ie_cls = cls; ie_cta = cta })
              (Coalesce.sort_lines g)
          else
            Queue.push
              { pm_wl = Some wl; pm_lines = g; pm_groups = rest;
                pm_kind =
                  (if m.Warp.m_kind = Warp.Atomic then Request.Atomic
                   else Request.Load);
                pm_cls = cls;
                pm_cta = cta;
                pm_prefetch = pol.Config.lp_prefetch;
                pm_bypass = pol.Config.lp_bypass;
                pm_protect = d.Mempolicy.d_protect }
              t.ldst_q;
          set_state t slot_idx st_waiting_mem)
  | Ptx.Types.Global, Warp.Store ->
      let lines =
        Coalesce.lines ~line_size:cfg.Config.line_size ~mask:m.Warp.m_mask
          ~addrs:m.Warp.m_addrs
      in
      Queue.push
        { pm_wl = None; pm_lines = lines; pm_groups = [];
          pm_kind = Request.Store; pm_cls = Dataflow.Classify.Deterministic;
          pm_cta = w.Warp.cta_lin;
          pm_prefetch = false; pm_bypass = false; pm_protect = false }
        t.ldst_q;
      (* stores are fire-and-forget: the warp continues *)
      set_blocked t slot_idx ~until:(now + 1)
  | (Ptx.Types.Shared | Ptx.Types.Local), _ ->
      if m.Warp.m_kind = Warp.Load then
        t.stats.Stats.shared_loads <- t.stats.Stats.shared_loads + 1;
      (* bank conflicts serialize the access: the warp pays one extra
         trip per additional lane hitting the same 4-byte bank *)
      let conflicts =
        if cfg.Config.shared_banks <= 0 then 1
        else begin
          let counts = Array.make cfg.Config.shared_banks 0 in
          Warp.iter_active m.Warp.m_mask (fun lane ->
              let bank = m.Warp.m_addrs.(lane) / 4 mod cfg.Config.shared_banks in
              counts.(bank) <- counts.(bank) + 1);
          Array.fold_left max 1 counts
        end
      in
      t.ldst_busy_until <- now + 1 + conflicts;
      set_blocked t slot_idx
        ~until:(now + cfg.Config.shared_latency + (2 * (conflicts - 1)))
  | (Ptx.Types.Const | Ptx.Types.Tex | Ptx.Types.Param), _ ->
      t.ldst_busy_until <- now + 2;
      set_blocked t slot_idx ~until:(now + cfg.Config.l1_hit_latency)

(* CTA-granular warp-throttle boundary: when the policy caps resident
   CTAs at [allowed], only slots below the base of the (allowed+1)-th
   lowest-based resident CTA may issue.  CTAs occupy contiguous slot
   ranges, so "slot < bound" admits exactly the [allowed] lowest CTAs
   — always whole CTAs (barriers stay safe) and always including the
   lowest-based one (forward progress is guaranteed: it retires, its
   slots free up, and the next CTA slides under the bound). *)
let throttle_bound t =
  let allowed = Mempolicy.allowed_ctas t.pol in
  if allowed = max_int then max_int
  else begin
    let nres = List.length t.residents in
    if nres <= allowed then max_int
    else
      let bases =
        List.sort compare (List.map (fun r -> r.rc_base) t.residents)
      in
      List.nth bases allowed
  end

let issue_cycle t ~now =
  let n = Array.length t.states in
  if n > 0 && scan_worthwhile t ~now then begin
    let bound = throttle_bound t in
    let issued = ref false in
    let tried = ref 0 in
    (* LRR rotates from the last issuer; GTO stays greedy on the same
       warp and falls back to the oldest (lowest slot).  The candidate
       sequence is generated by increment-and-wrap — no division in
       this per-cycle loop.  LRR visits last+1, last+2, ... (mod n);
       GTO visits last, 0, 1, ..., skipping last. *)
    let lrr = t.cfg.Config.warp_sched = Config.Lrr in
    let last = t.last_issued in
    let cur = ref (if lrr then (if last + 1 >= n then 0 else last + 1) else last)
    in
    while (not !issued) && !tried < n do
      let i = !cur in
      incr tried;
      if lrr then begin
        incr cur;
        if !cur >= n then cur := 0
      end
      else if !tried = 1 then cur := (if last = 0 then 1 else 0)
      else begin
        incr cur;
        if !cur = last then incr cur
      end;
      if i < bound && slot_ready t i ~now then begin
        match t.warps.(i) with
        | None -> ()
        | Some w ->
            (* An expired block and ready are indistinguishable to the
               issue stage; normalizing to ready here keeps this slot in
               the [n_ready_u] buckets so [scan_worthwhile] can gate on
               its unit from now on. *)
            if t.states.(i) = st_blocked then set_state t i st_ready;
            (* A warp's next instruction is fixed between steps: peek
               it once and reuse the cached unit on later scans (the
               repeat [Warp.peek_unit] calls were idempotent). *)
            let uc =
              let c = t.slot_unit.(i) in
              if c <> unit_unknown then c
              else begin
                let c = unit_code (Warp.peek_unit w) in
                set_slot_unit t i c;
                c
              end
            in
            let free =
              if uc = 0 then t.sp_busy_until <= now
              else if uc = 1 then t.sfu_busy_until <= now
              else Queue.is_empty t.ldst_q && t.ldst_busy_until <= now
            in
            if free then begin
              issued := true;
              t.last_issued <- i;
              set_slot_unit t i unit_unknown;
              t.stats.Stats.warp_insts <- t.stats.Stats.warp_insts + 1;
              t.stats.Stats.thread_insts <-
                t.stats.Stats.thread_insts + Warp.popcount (Warp.active_mask w);
              if uc = 0 then t.sp_busy_until <- now + 1
              else if uc = 1 then
                t.sfu_busy_until <- now + t.cfg.Config.sfu_initiation;
              match Warp.step w with
              | Warp.S_alu Exec.SP ->
                  set_blocked t i ~until:(now + t.cfg.Config.sp_latency)
              | Warp.S_alu Exec.SFU ->
                  set_blocked t i ~until:(now + t.cfg.Config.sfu_latency)
              | Warp.S_alu Exec.LDST ->
                  Sim_error.error Sim_error.Internal
                    "SM %d slot %d: ALU step reported the LD/ST unit" t.id i
              | Warp.S_mem m -> issue_mem t ~now ~slot_idx:i w m
              | Warp.S_barrier ->
                  set_state t i st_barrier;
                  check_barrier t (resident_of_slot t i)
              | Warp.S_exit_partial -> set_blocked t i ~until:(now + 1)
              | Warp.S_exit_warp ->
                  set_state t i st_done;
                  let rc = resident_of_slot t i in
                  check_barrier t rc;
                  check_cta_done t rc
            end
      end
    done
  end

(* Sample unit occupancy (Fig 4) — call after the cycle's work. *)
let sample_occupancy t ~now =
  if t.sp_busy_until > now then Stats.record_unit_busy t.stats Exec.SP;
  if t.sfu_busy_until > now then Stats.record_unit_busy t.stats Exec.SFU;
  if
    (not (Queue.is_empty t.ldst_q))
    || Mempolicy.iar_pending t.pol > 0
    || t.ldst_busy_until > now
  then Stats.record_unit_busy t.stats Exec.LDST

(* The phases [cycle] skips are provably no-ops: [process_returns] only
   acts on an arrived response or a matured local hit, and [ldst_cycle] only on
   a non-empty queue ([issue_cycle] gates itself on the occupancy
   counters).  The gates keep the common all-idle SM-cycle down to a
   handful of reads. *)
let cycle t ~now ~icnt =
  if
    Icnt.response_arrived icnt ~now ~sm:t.id
    || not (Queue.is_empty t.hit_pending)
  then process_returns t ~now ~icnt;
  if not (Queue.is_empty t.ldst_q) || Mempolicy.iar_pending t.pol > 0 then
    ldst_cycle t ~now ~icnt;
  issue_cycle t ~now;
  sample_occupancy t ~now

(* Called per step by [Gpu.work_remaining]: the residents check must be
   a constructor match, not a polymorphic [= []]. *)
let idle t =
  (match t.residents with [] -> true | _ :: _ -> false)
  && Queue.is_empty t.ldst_q
  && Queue.is_empty t.hit_pending
  && Mempolicy.iar_pending t.pol = 0

(* ---- fast-forward contract (see DESIGN) ----

   [next_wake t ~now] is the earliest cycle at which this SM can make
   progress without an external stimulus (an interconnect response is
   the interconnect's wake, not ours):
     - a value [<= now] — the SM is active this cycle: a pending LD/ST
       queue entry (retried every cycle, mutating reservation-fail
       stats), a ready warp, an expired block, or a matured local hit
       completion;
     - [now < c < max_int] — quiescent until [c]: the earliest of the
       pending block expiries and the L1-hit completion at the queue
       head (FIFO with a constant latency, so the head is minimal);
     - [max_int] — nothing pending at all; only a response can wake
       this SM.
   The probe is O(1) and allocation-free — it reads the occupancy
   counters, not the slot table.  Busy functional units are
   deliberately NOT wake sources: a unit freeing up with no ready warp
   changes nothing, and its per-cycle occupancy samples are
   reconstructed in batch by [account_idle]. *)
let next_wake t ~now =
  if
    (not (Queue.is_empty t.ldst_q))
    || Mempolicy.iar_pending t.pol > 0
    || any_issuable t ~now
  then now
  else begin
    (* any_issuable refreshed blocked_min if it was <= now, so it is
       now exact: the earliest pending block expiry (max_int when
       none). *)
    let horizon = ref (if t.n_blocked > 0 then t.blocked_min else max_int) in
    if not (Queue.is_empty t.hit_pending) then begin
      let hc = Queue.peek t.hit_pending in
      if hc.hc_ready < !horizon then horizon := hc.hc_ready
    end;
    !horizon
  end

(* Reconstruct the per-cycle [sample_occupancy] contributions for the
   skipped range [now, until): while the SM is quiescent its LD/ST
   queue is empty and no state mutates, so the only samples the naive
   loop would have taken are the busy-until tails of the three units. *)
let account_idle t ~now ~until =
  let span busy_until = max 0 (min busy_until until - now) in
  let sp = span t.sp_busy_until in
  if sp > 0 then Stats.record_unit_busy_span t.stats Exec.SP sp;
  let sfu = span t.sfu_busy_until in
  if sfu > 0 then Stats.record_unit_busy_span t.stats Exec.SFU sfu;
  let ld = span t.ldst_busy_until in
  if ld > 0 then Stats.record_unit_busy_span t.stats Exec.LDST ld

(* (in-flight L1 MSHR entries, LD/ST queue depth incl. reorder-buffer
   entries) — the per-SM occupancy timeline the trace layer samples. *)
let occupancy_sample t =
  (Cache.mshr_in_use t.l1, Queue.length t.ldst_q + Mempolicy.iar_pending t.pol)

(* (cta, warp id, pc) of every warp parked at a barrier — the stall
   watchdog uses this to tell a barrier deadlock from a livelock. *)
let barrier_waiters t =
  let acc = ref [] in
  for i = 0 to Array.length t.states - 1 do
    if t.states.(i) = st_barrier then
      match t.warps.(i) with
      | Some w ->
          acc := (w.Warp.cta_lin, w.Warp.warp_id, Warp.pc w) :: !acc
      | None -> ()
  done;
  List.rev !acc
