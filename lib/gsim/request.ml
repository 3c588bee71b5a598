(* Memory requests and per-warp-load tracking records.

   A warp-level load that cannot fully coalesce fans out into several
   [Request.t]s, one per distinct cache line.  Each request carries
   timestamps at every pipeline boundary so the turnaround breakdowns
   of Figs 5 and 7 can be reconstructed:

     t_issue   warp issued to the LD/ST unit
     t_accept  accepted by the L1 (hit, merge, or miss reservation)
     t_icnt    injected into the interconnect towards L2
     t_serviced  data produced at the memory partition (L2 or DRAM)
     t_return  fill arrived back at the SM

   [level] records the deepest level that serviced the request, which
   determines its unloaded (contention-free) latency. *)

type kind = Load | Store | Atomic

type level = Lvl_l1 | Lvl_l2 | Lvl_dram

(* Tracking record for one warp-level global load instruction. *)
type warp_load = {
  wl_sm : int;
  wl_warp_slot : int; (* index into the SM warp table, for wake-up *)
  wl_cta : int; (* linear CTA id, -1 when not attributable *)
  wl_kernel : string;
  wl_pc : int;
  wl_cls : Dataflow.Classify.load_class;
  wl_active : int; (* active threads in the warp *)
  wl_t_issue : int;
  mutable wl_nreq : int; (* coalesced requests generated *)
  mutable wl_outstanding : int;
  mutable wl_t_first_accept : int;
  mutable wl_t_last_accept : int;
  mutable wl_t_first_return : int;
  mutable wl_t_last_return : int;
  mutable wl_deepest : level;
  mutable wl_sum_icnt_wait : int; (* queueing between L1 accept and L2 *)
}

type t = {
  line_addr : int;
  sm_id : int;
  cta : int; (* requesting CTA, -1 when not attributable (prefetch) *)
  kind : kind;
  cls : Dataflow.Classify.load_class;
  wl : warp_load option; (* None for stores *)
  mutable t_issue : int;
  mutable t_accept : int;
  mutable t_icnt : int;
  mutable t_arrive : int; (* when it lands at the partition input *)
  mutable t_l2_start : int;
  mutable t_serviced : int;
  mutable t_return : int;
  mutable t_resp_arrive : int; (* when the response lands back at the SM *)
  mutable level : level;
  mutable no_fill : bool; (* bypassed loads do not allocate in the L1 *)
}

let make ~cta ~line_addr ~sm_id ~kind ~cls ~wl ~now =
  {
    line_addr;
    sm_id;
    cta;
    kind;
    cls;
    wl;
    t_issue = now;
    t_accept = -1;
    t_icnt = -1;
    t_arrive = -1;
    t_l2_start = -1;
    t_serviced = -1;
    t_return = -1;
    t_resp_arrive = -1;
    level = Lvl_l1;
    no_fill = false;
  }

let make_warp_load ~cta ~sm ~warp_slot ~kernel ~pc ~cls ~active ~now =
  {
    wl_sm = sm;
    wl_warp_slot = warp_slot;
    wl_cta = cta;
    wl_kernel = kernel;
    wl_pc = pc;
    wl_cls = cls;
    wl_active = active;
    wl_t_issue = now;
    wl_nreq = 0;
    wl_outstanding = 0;
    wl_t_first_accept = -1;
    wl_t_last_accept = -1;
    wl_t_first_return = -1;
    wl_t_last_return = -1;
    wl_deepest = Lvl_l1;
    wl_sum_icnt_wait = 0;
  }

let deeper a b =
  match (a, b) with
  | Lvl_dram, _ | _, Lvl_dram -> Lvl_dram
  | Lvl_l2, _ | _, Lvl_l2 -> Lvl_l2
  | Lvl_l1, Lvl_l1 -> Lvl_l1

(* Contention-free latency of a request serviced at [level]. *)
let unloaded_latency (c : Config.t) = function
  | Lvl_l1 -> c.Config.l1_hit_latency
  | Lvl_l2 -> Config.unloaded_l2_latency c
  | Lvl_dram -> Config.unloaded_dram_latency c
