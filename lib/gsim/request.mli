(** Memory requests and per-warp-load tracking records.

    A warp-level load that does not fully coalesce fans out into
    several requests, one per distinct cache line.  Each request
    carries timestamps at every pipeline boundary so the turnaround
    breakdowns of the paper's Figs 5 and 7 can be reconstructed. *)

type kind = Load | Store | Atomic

(** Deepest level that serviced a request (determines its unloaded,
    contention-free latency). *)
type level = Lvl_l1 | Lvl_l2 | Lvl_dram

(** Tracking record for one warp-level global load instruction. *)
type warp_load = {
  wl_sm : int;
  wl_warp_slot : int;  (** SM warp-table index, for wake-up *)
  wl_cta : int;  (** linear CTA id, [-1] when not attributable *)
  wl_kernel : string;
  wl_pc : int;
  wl_cls : Dataflow.Classify.load_class;
  wl_active : int;  (** active threads in the warp *)
  wl_t_issue : int;
  mutable wl_nreq : int;  (** coalesced requests generated *)
  mutable wl_outstanding : int;
  mutable wl_t_first_accept : int;
  mutable wl_t_last_accept : int;
  mutable wl_t_first_return : int;
  mutable wl_t_last_return : int;
  mutable wl_deepest : level;
  mutable wl_sum_icnt_wait : int;
      (** queueing delay between L1 acceptance and L2 service *)
}

type t = {
  line_addr : int;
  sm_id : int;
  cta : int;  (** requesting CTA, [-1] when not attributable (prefetch) *)
  kind : kind;
  cls : Dataflow.Classify.load_class;
  wl : warp_load option;  (** [None] for stores *)
  mutable t_issue : int;  (** warp issued to the LD/ST unit *)
  mutable t_accept : int;  (** accepted by the L1 *)
  mutable t_icnt : int;  (** injected towards L2 *)
  mutable t_arrive : int;  (** landed at the partition input *)
  mutable t_l2_start : int;
  mutable t_serviced : int;  (** data produced at the partition *)
  mutable t_return : int;  (** fill back at the SM *)
  mutable t_resp_arrive : int;
  mutable level : level;
  mutable no_fill : bool;  (** bypassed loads do not allocate in the L1 *)
}

val make :
  cta:int ->
  line_addr:int ->
  sm_id:int ->
  kind:kind ->
  cls:Dataflow.Classify.load_class ->
  wl:warp_load option ->
  now:int ->
  t

val make_warp_load :
  cta:int ->
  sm:int ->
  warp_slot:int ->
  kernel:string ->
  pc:int ->
  cls:Dataflow.Classify.load_class ->
  active:int ->
  now:int ->
  warp_load

val deeper : level -> level -> level

val unloaded_latency : Config.t -> level -> int
(** Contention-free latency of a request serviced at the given level. *)
