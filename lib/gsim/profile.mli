(** Profile reducer: folds the {!Trace} event stream into the per-PC
    and per-category derived metrics the paper's figures plot —
    turnaround histograms in log-2 buckets (Figs 5-6), reservation-fail
    attribution by load category (Fig 3), MSHR-merge inter- vs
    intra-CTA locality (Figs 8-9), and per-SM MSHR / LD-ST queue
    occupancy timelines.

    A profile is a commutative-monoid accumulator: profiles built from
    disjoint event streams {!merge} in any order to identical
    summaries.  A parallel sweep does not merge: each job's profile
    rides in its own result document as JSON. *)

type cls = Dataflow.Classify.load_class

(** {1 Log-2 latency histogram} *)

val n_buckets : int

val bucket_of_latency : int -> int
(** Bucket 0 holds latency [<= 0]; bucket [i >= 1] holds
    [\[2^(i-1), 2^i)]; the last bucket absorbs everything above. *)

val bucket_lo : int -> int
(** Inclusive lower bound of a bucket. *)

(** {1 Accumulators} *)

type class_profile = {
  mutable cp_issues : int;  (** warp-level loads issued *)
  mutable cp_returns : int;  (** warp-level loads completed *)
  mutable cp_sum_turnaround : int;
  mutable cp_max_turnaround : int;
  cp_hist : int array;  (** {!n_buckets} turnaround buckets *)
  mutable cp_l1_hit : int;
  mutable cp_l1_merge : int;
  mutable cp_l1_miss : int;
  cp_l1_fail : int array;  (** tags / mshr / icnt *)
  mutable cp_l2_access : int;
  mutable cp_l2_miss : int;
  cp_l2_fail : int array;
}

type pc_profile = {
  pp_kernel : string;
  pp_pc : int;
  pp_cls : cls;
  mutable pp_issues : int;
  mutable pp_returns : int;
  mutable pp_sum_turnaround : int;
  pp_hist : int array;
}

type occ_sample = { oc_sm : int; oc_cycle : int; oc_mshr : int; oc_ldst : int }

type t = {
  per_class : class_profile array;  (** D, N — {!Stats.cls_index} order *)
  per_pc : (string * int, pc_profile) Hashtbl.t;
  mutable store_ok : int;
  st_fail : int array;
  mutable l2_store_fail : int;
  mutable prefetch_probes : int;
  mutable prefetch_misses : int;
  mutable l1_merge_intra : int;
  mutable l1_merge_inter : int;
  mutable l2_merge_intra : int;
  mutable l2_merge_inter : int;
  mutable dram_reads : int;
  mutable dram_writes : int;
  mutable icnt_req_enq : int;
  mutable icnt_req_deq : int;
  mutable icnt_resp_enq : int;
  mutable icnt_resp_deq : int;
  mutable occ : occ_sample list;  (** reverse emission order *)
}

val create : unit -> t
val add : t -> Trace.event -> unit

val sink : t -> Trace.t
(** A trace handle whose stream sink feeds this profile. *)

val merge : dst:t -> src:t -> unit
(** Fold [src] into [dst]; associative and commutative over disjoint
    event streams. *)

(** {1 Derived metrics} *)

val l1_loads : t -> cls -> int
(** Completed L1 load probes: hit + merge + miss (fails excluded),
    matching [Stats.cs_l1_access]. *)

(** {1 Serialization} *)

val to_json : t -> Stats_io.Json.t
(** Deterministic: per-PC rows sorted by (kernel, pc), occupancy by
    (cycle, sm). *)

val of_json : Stats_io.Json.t -> t
(** @raise Stats_io.Json.Parse_error on schema mismatch. *)

val summary_to_string : t -> string
(** The [critload trace APP --format summary] report: per-category
    turnaround histograms, reservation-fail attribution, MSHR-merge
    locality, occupancy digest, hottest loads. *)
