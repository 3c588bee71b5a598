(* Timing-simulation statistics: everything Figs 2–8 need, separated by
   load class (D / N) and, for Figs 6–7, by load pc and request count. *)

type cls = Dataflow.Classify.load_class

let cls_index = function
  | Dataflow.Classify.Deterministic -> 0
  | Dataflow.Classify.Nondeterministic -> 1

(* Fig 3 outcome slots. *)
let n_l1_events = 6

let l1_event_index (o : Cache.outcome) =
  match o with
  | Cache.Hit -> 0
  | Cache.Hit_reserved -> 1
  | Cache.Miss -> 2
  | Cache.Rsrv_fail Cache.Fail_tags -> 3
  | Cache.Rsrv_fail Cache.Fail_mshr -> 4
  | Cache.Rsrv_fail Cache.Fail_icnt -> 5

type class_stats = {
  mutable cs_warps : int; (* completed warp-level global loads *)
  mutable cs_requests : int;
  mutable cs_active_threads : int;
  mutable cs_turnaround : int;
  mutable cs_unloaded : int;
  mutable cs_rsrv_prev : int; (* waiting for the first acceptance *)
  mutable cs_rsrv_cur : int; (* first-to-last acceptance spread *)
  mutable cs_wasted_mem : int; (* L2/DRAM/icnt imbalance *)
  mutable cs_l1_access : int;
  mutable cs_l1_miss : int;
  mutable cs_l2_access : int;
  mutable cs_l2_miss : int;
}

let empty_class_stats () =
  {
    cs_warps = 0;
    cs_requests = 0;
    cs_active_threads = 0;
    cs_turnaround = 0;
    cs_unloaded = 0;
    cs_rsrv_prev = 0;
    cs_rsrv_cur = 0;
    cs_wasted_mem = 0;
    cs_l1_access = 0;
    cs_l1_miss = 0;
    cs_l2_access = 0;
    cs_l2_miss = 0;
  }

(* Fig 6/7 bucket: warp loads of one pc that generated [n] requests. *)
type nreq_bucket = {
  mutable nb_count : int;
  mutable nb_turnaround : int;
  mutable nb_common : int;
  mutable nb_gap_l1d : int;
  mutable nb_gap_icnt_l2 : int;
  mutable nb_gap_l2_icnt : int;
}

type pc_stats = {
  ps_kernel : string;
  ps_pc : int;
  ps_cls : cls;
  mutable ps_warps : int;
  mutable ps_requests : int;
  ps_by_nreq : (int, nreq_bucket) Hashtbl.t;
}

type t = {
  mutable cycles : int;
  mutable warp_insts : int;
  mutable thread_insts : int;
  l1_events : int array;
  mutable l1_probe_cycles : int;
  unit_busy : int array; (* SP / SFU / LDST first-stage busy cycles *)
  mutable shared_loads : int;
  mutable global_stores : int;
  per_class : class_stats array;
  per_pc : (string * int, pc_stats) Hashtbl.t;
  mutable completed_ctas : int;
  mutable l2_rsrv_fails : int;
  mutable prefetches_issued : int;
  mutable truncated : bool; (* a cycle/instruction cap cut the run short *)
}

let create () =
  {
    cycles = 0;
    warp_insts = 0;
    thread_insts = 0;
    l1_events = Array.make n_l1_events 0;
    l1_probe_cycles = 0;
    unit_busy = Array.make 3 0;
    shared_loads = 0;
    global_stores = 0;
    per_class = [| empty_class_stats (); empty_class_stats () |];
    per_pc = Hashtbl.create 64;
    completed_ctas = 0;
    l2_rsrv_fails = 0;
    prefetches_issued = 0;
    truncated = false;
  }

let unit_index = function Exec.SP -> 0 | Exec.SFU -> 1 | Exec.LDST -> 2

let record_unit_busy t u = t.unit_busy.(unit_index u) <- t.unit_busy.(unit_index u) + 1

(* Batch form for the fast-forward path: [n] skipped cycles in which
   the unit's first stage would have sampled busy. *)
let record_unit_busy_span t u n =
  if n > 0 then t.unit_busy.(unit_index u) <- t.unit_busy.(unit_index u) + n

let record_l1_event t outcome cls =
  let i = l1_event_index outcome in
  t.l1_events.(i) <- t.l1_events.(i) + 1;
  t.l1_probe_cycles <- t.l1_probe_cycles + 1;
  let c = t.per_class.(cls_index cls) in
  match outcome with
  | Cache.Hit | Cache.Hit_reserved ->
      c.cs_l1_access <- c.cs_l1_access + 1
  | Cache.Miss ->
      c.cs_l1_access <- c.cs_l1_access + 1;
      c.cs_l1_miss <- c.cs_l1_miss + 1
  | Cache.Rsrv_fail _ -> ()

(* Stores occupy L1 cycles (write-evict probe + downstream injection)
   but are not classified loads: count the cycle, not the class. *)
let record_l1_store_event t outcome =
  let i = l1_event_index outcome in
  t.l1_events.(i) <- t.l1_events.(i) + 1;
  t.l1_probe_cycles <- t.l1_probe_cycles + 1

let record_l2_access t cls ~miss =
  let c = t.per_class.(cls_index cls) in
  c.cs_l2_access <- c.cs_l2_access + 1;
  if miss then c.cs_l2_miss <- c.cs_l2_miss + 1

let pc_stats t kernel pc cls =
  match Hashtbl.find_opt t.per_pc (kernel, pc) with
  | Some ps -> ps
  | None ->
      let ps =
        { ps_kernel = kernel; ps_pc = pc; ps_cls = cls; ps_warps = 0;
          ps_requests = 0; ps_by_nreq = Hashtbl.create 8 }
      in
      Hashtbl.add t.per_pc (kernel, pc) ps;
      ps

let bucket ps n =
  match Hashtbl.find_opt ps.ps_by_nreq n with
  | Some b -> b
  | None ->
      let b =
        { nb_count = 0; nb_turnaround = 0; nb_common = 0; nb_gap_l1d = 0;
          nb_gap_icnt_l2 = 0; nb_gap_l2_icnt = 0 }
      in
      Hashtbl.add ps.ps_by_nreq n b;
      b

(* Called when the last request of a warp-level load returns. *)
let record_warp_load_done t (cfg : Config.t) (wl : Request.warp_load) =
  let turnaround = wl.Request.wl_t_last_return - wl.Request.wl_t_issue in
  (* MSHR-merged loads can return faster than the nominal unloaded
     path; cap the baseline so the stacked breakdown sums to the
     turnaround *)
  let unloaded =
    min turnaround (Request.unloaded_latency cfg wl.Request.wl_deepest)
  in
  let rsrv_prev = max 0 (wl.Request.wl_t_first_accept - wl.Request.wl_t_issue) in
  let rsrv_prev = min rsrv_prev (max 0 (turnaround - unloaded)) in
  let rsrv_cur =
    max 0 (wl.Request.wl_t_last_accept - wl.Request.wl_t_first_accept)
  in
  let rsrv_cur = min rsrv_cur (max 0 (turnaround - unloaded - rsrv_prev)) in
  let wasted = max 0 (turnaround - unloaded - rsrv_prev - rsrv_cur) in
  let c = t.per_class.(cls_index wl.Request.wl_cls) in
  c.cs_warps <- c.cs_warps + 1;
  c.cs_requests <- c.cs_requests + wl.Request.wl_nreq;
  c.cs_active_threads <- c.cs_active_threads + wl.Request.wl_active;
  c.cs_turnaround <- c.cs_turnaround + turnaround;
  c.cs_unloaded <- c.cs_unloaded + unloaded;
  c.cs_rsrv_prev <- c.cs_rsrv_prev + rsrv_prev;
  c.cs_rsrv_cur <- c.cs_rsrv_cur + rsrv_cur;
  c.cs_wasted_mem <- c.cs_wasted_mem + wasted;
  let ps = pc_stats t wl.Request.wl_kernel wl.Request.wl_pc wl.Request.wl_cls in
  ps.ps_warps <- ps.ps_warps + 1;
  ps.ps_requests <- ps.ps_requests + wl.Request.wl_nreq;
  let b = bucket ps wl.Request.wl_nreq in
  b.nb_count <- b.nb_count + 1;
  b.nb_turnaround <- b.nb_turnaround + turnaround;
  b.nb_common <- b.nb_common + unloaded;
  b.nb_gap_l1d <-
    b.nb_gap_l1d + max 0 (wl.Request.wl_t_last_accept - wl.Request.wl_t_issue);
  b.nb_gap_icnt_l2 <-
    b.nb_gap_icnt_l2
    + (if wl.Request.wl_nreq = 0 then 0
       else wl.Request.wl_sum_icnt_wait / wl.Request.wl_nreq);
  b.nb_gap_l2_icnt <-
    b.nb_gap_l2_icnt
    + max 0 (wl.Request.wl_t_last_return - wl.Request.wl_t_first_return)

(* Derived figures. *)

let requests_per_warp t cls =
  let c = t.per_class.(cls_index cls) in
  if c.cs_warps = 0 then 0.0
  else float_of_int c.cs_requests /. float_of_int c.cs_warps

let requests_per_active_thread t cls =
  let c = t.per_class.(cls_index cls) in
  if c.cs_active_threads = 0 then 0.0
  else float_of_int c.cs_requests /. float_of_int c.cs_active_threads

let avg_turnaround t cls =
  let c = t.per_class.(cls_index cls) in
  if c.cs_warps = 0 then 0.0
  else float_of_int c.cs_turnaround /. float_of_int c.cs_warps

(* (unloaded, rsrv_prev, rsrv_cur, wasted) averages. *)
let turnaround_breakdown t cls =
  let c = t.per_class.(cls_index cls) in
  if c.cs_warps = 0 then (0.0, 0.0, 0.0, 0.0)
  else
    let f x = float_of_int x /. float_of_int c.cs_warps in
    (f c.cs_unloaded, f c.cs_rsrv_prev, f c.cs_rsrv_cur, f c.cs_wasted_mem)

let l1_miss_ratio t cls =
  let c = t.per_class.(cls_index cls) in
  if c.cs_l1_access = 0 then 0.0
  else float_of_int c.cs_l1_miss /. float_of_int c.cs_l1_access

let l2_miss_ratio t cls =
  let c = t.per_class.(cls_index cls) in
  if c.cs_l2_access = 0 then 0.0
  else float_of_int c.cs_l2_miss /. float_of_int c.cs_l2_access

(* Fig 3: fractions of L1 probe cycles per outcome. *)
let l1_cycle_breakdown t =
  let total = max 1 t.l1_probe_cycles in
  Array.map (fun e -> float_of_int e /. float_of_int total) t.l1_events

(* Fig 4: busy fraction of each unit's first pipeline stage.  Busy
   cycles are summed across SMs, so normalize by cycles * n_sms. *)
let unit_busy_fraction t ~n_sms u =
  if t.cycles = 0 then 0.0
  else
    float_of_int t.unit_busy.(unit_index u)
    /. float_of_int (t.cycles * n_sms)
