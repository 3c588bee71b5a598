(* Memory requests and per-warp-load tracking records.

   A warp-level load that cannot fully coalesce fans out into several
   [Request.t]s, one per distinct cache line.  The turnaround
   breakdowns of Figs 5 and 7 are read from the warp-load record: its
   issue cycle, its first and last L1 acceptance and its first and
   last fill back at the SM.  A request carries the cycles the memory
   system schedules it by:

     t_icnt         injected into the interconnect towards L2
     t_arrive       lands at the partition input
     t_l2_start     first cycle at the head of the partition input
     t_resp_arrive  the response lands back at the SM

   (t_l2_start - t_icnt, less the icnt latency, is the queueing the
   warp load's [wl_sum_icnt_wait] adds up.)  [level] records the
   deepest level that serviced the request, which determines its
   unloaded (contention-free) latency. *)

type kind = Load | Store | Atomic

type level = Lvl_l1 | Lvl_l2 | Lvl_dram

(* Tracking record for one warp-level global load instruction. *)
type warp_load = {
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
  mutable t_icnt : int;
  mutable t_arrive : int; (* when it lands at the partition input *)
  mutable t_l2_start : int;
  mutable t_resp_arrive : int; (* when the response lands back at the SM *)
  mutable level : level;
  mutable no_fill : bool; (* bypassed loads do not allocate in the L1 *)
}

let make ~cta ~line_addr ~sm_id ~kind ~cls ~wl =
  {
    line_addr;
    sm_id;
    cta;
    kind;
    cls;
    wl;
    t_icnt = -1;
    t_arrive = -1;
    t_l2_start = -1;
    t_resp_arrive = -1;
    level = Lvl_l1;
    no_fill = false;
  }

let make_warp_load ~cta ~warp_slot ~kernel ~pc ~cls ~active ~now =
  {
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
