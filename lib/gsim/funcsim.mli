(** Functional (trace-based) simulator.

    Executes launches without timing, in one of three roles, picked by
    the function the caller calls:

    - the full model ({!run_into}, {!run}) records the event counts the
      paper measured with the CUDA profiler (Tables I/III, Figs 1 and
      9) and the address-trace locality metrics (Figs 10-12):
      per-128B-block access counts, the set of CTAs touching each
      block, and the derived cold-miss / inter-CTA-sharing /
      CTA-distance statistics;
    - count-only ({!count_requests}) returns a launch's coalesced
      global-load requests by class, modelling no cache;
    - execute-only ({!execute}) runs a launch for its memory effects
      alone.

    The full model runs each CTA on its {!Config.home_sm} and probes
    that SM's L1, then the L2, with {!Cache.touch}: the timing model's
    tag arrays and LRU, with no MSHRs, so a miss fills at once.

    All three run the same CTA loop, so they execute a launch in the
    same order and leave the same memory image.  An iterative
    application picks its next launch from that image, so walking it
    with any role yields the same launch sequence. *)

type cls = Dataflow.Classify.load_class

(** Per-128B-block record; [bl_ctas] is the sorted list of distinct
    linearized CTA ids that touched the block. *)
type block_info = {
  mutable bl_count : int;
  mutable bl_ctas : int list;
  mutable bl_nctas : int;
}

type t = {
  cfg : Config.t;
  mutable warp_insts : int;
  mutable thread_insts : int;
  gld_warps : int array;  (** warp-level global loads, by class (D/N) *)
  gld_requests : int array;  (** coalesced requests, by class *)
  gld_active_threads : int array;
  gld_warps_by_pc : (string * int, int) Hashtbl.t;
      (** (kernel, pc) -> executed warp-level loads *)
  gld_requests_by_pc : (string * int, int) Hashtbl.t;
  mutable shared_load_warps : int;
  mutable global_store_warps : int;
  mutable atom_warps : int;
  blocks : (int, block_info) Hashtbl.t;
  mutable block_accesses : int;
  l1s : Cache.t array;  (** one per SM, touched by its CTAs' loads *)
  l2 : Cache.t;  (** every partition's sets in one tag array *)
  mutable l2_queries : int;  (** line-granularity L2 queries *)
  mutable l2_sector_queries : int;  (** 32B-sector granularity *)
  mutable l2_hits : int;
  mutable ctas_run : int;
  mutable capped : bool;  (** stopped at the instruction cap *)
}

val create : Config.t -> t

val run_into : t -> ?max_warp_insts:int -> Launch.t -> unit
(** Run one launch, accumulating into [t] (multi-kernel applications
    share one stats object across launches). *)

val run : ?cfg:Config.t -> ?max_warp_insts:int -> Launch.t -> t

val count_requests : Config.t -> Launch.t -> int * int
(** [count_requests cfg launch] runs every CTA of [launch] and returns
    its coalesced requests of global loads and atomics as [(d, n)], by
    load class: exactly what {!run_into} adds to [gld_requests]. *)

val execute : Config.t -> Launch.t -> unit
(** Run every CTA of the launch for its memory effects only. *)

(** {1 Derived metrics} *)

val total_gld_warps : t -> int

val requests_per_warp_of_pc : t -> kernel:string -> pc:int -> float option
(** Measured requests per warp of one load instruction, when it
    executed. *)

val deterministic_fraction : t -> float
(** Fig 1: fraction of executed global-load warps classified
    deterministic. *)

val requests_per_warp : t -> cls -> float
val requests_per_active_thread : t -> cls -> float

val shared_per_global : t -> float
(** Fig 9: shared-memory loads per global load. *)

val cold_miss_ratio : t -> float
(** Fig 10: first touches of distinct 128B blocks / total block
    accesses. *)

val avg_accesses_per_block : t -> float

(** Fig 11 metrics. *)
type sharing = {
  sh_block_ratio : float;  (** blocks touched by >= 2 CTAs / all blocks *)
  sh_access_ratio : float;  (** accesses to such blocks / all accesses *)
  sh_avg_ctas : float;  (** avg #CTAs per multi-CTA block *)
}

val sharing : t -> sharing

val cta_distance_histogram : t -> (int * float) list
(** Fig 12: distance between consecutive distinct CTA ids (sorted) over
    shared blocks, as (distance, fraction) pairs sorted by distance. *)

(** Table III style profiler counters.  Each coalesced request of a
    global load or atomic is one L1 access; an L1 miss is one L2
    query. *)
type counters = {
  gld_request : int;
  shared_load : int;
  l1_global_load_hit : int;
  l1_global_load_miss : int;
  l2_read_hits : int;
  l2_read_queries : int;
  l2_read_sector_queries : int;  (** profiler-style 32B sector counts *)
}

val counters : t -> counters
