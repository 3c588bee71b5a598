(** Timing-simulation statistics: everything the paper's Figs 2-8
    need, separated by load class (D/N) and, for Figs 6-7, by load pc
    and request count. *)

type cls = Dataflow.Classify.load_class

val cls_index : cls -> int
(** 0 = deterministic, 1 = non-deterministic. *)

val n_l1_events : int
val l1_event_index : Cache.outcome -> int

(** Aggregates for one load class. *)
type class_stats = {
  mutable cs_warps : int;  (** completed warp-level global loads *)
  mutable cs_requests : int;
  mutable cs_active_threads : int;
  mutable cs_turnaround : int;
  mutable cs_unloaded : int;
  mutable cs_rsrv_prev : int;  (** waiting for the first acceptance *)
  mutable cs_rsrv_cur : int;  (** first-to-last acceptance spread *)
  mutable cs_wasted_mem : int;  (** L2/DRAM/icnt imbalance *)
  mutable cs_l1_access : int;
  mutable cs_l1_miss : int;
  mutable cs_l2_access : int;
  mutable cs_l2_miss : int;
}

val empty_class_stats : unit -> class_stats

(** Fig 6/7 bucket: warp loads of one pc that generated [n] requests. *)
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
  unit_busy : int array;  (** SP / SFU / LDST first-stage busy cycles *)
  mutable shared_loads : int;
  mutable global_stores : int;
  per_class : class_stats array;
  per_pc : (string * int, pc_stats) Hashtbl.t;
  mutable completed_ctas : int;
  mutable l2_rsrv_fails : int;
  mutable prefetches_issued : int;
  mutable truncated : bool;
      (** a cycle/instruction cap cut the run short; the counters cover
          only the simulated prefix *)
}

val create : unit -> t
val record_unit_busy : t -> Exec.unit_class -> unit

val record_unit_busy_span : t -> Exec.unit_class -> int -> unit
(** Batch form for the fast-forward path: [n] skipped cycles in which
    the unit's first stage would have sampled busy. *)

val record_l1_event : t -> Cache.outcome -> cls -> unit

val record_l1_store_event : t -> Cache.outcome -> unit
(** Stores occupy L1 cycles but are not classified loads. *)

val record_l2_access : t -> cls -> miss:bool -> unit
val pc_stats : t -> string -> int -> cls -> pc_stats
val record_warp_load_done : t -> Config.t -> Request.warp_load -> unit

(** {1 Derived figures} *)

val requests_per_warp : t -> cls -> float
val requests_per_active_thread : t -> cls -> float
val avg_turnaround : t -> cls -> float

val turnaround_breakdown : t -> cls -> float * float * float * float
(** (unloaded, rsrv-fail-by-previous, rsrv-fail-by-current, wasted)
    averages per warp load — the paper's Fig 5 stack. *)

val l1_miss_ratio : t -> cls -> float
val l2_miss_ratio : t -> cls -> float

val l1_cycle_breakdown : t -> float array
(** Fig 3: fraction of L1 probe cycles per outcome, indexed by
    [l1_event_index]. *)

val unit_busy_fraction : t -> n_sms:int -> Exec.unit_class -> float
(** Fig 4: busy fraction of a unit's first pipeline stage (busy cycles
    summed across SMs, normalized by [cycles * n_sms]). *)
