(** Simulator configuration.  Defaults follow the paper's Table II
    (GPGPU-Sim v3.2.2, NVIDIA Tesla C2050): 14 SMs, 32-wide SIMT,
    16KB/128B/4-way L1D with 64 MSHRs, 768KB 8-way L2, ROP latency 120,
    DRAM latency 100. *)

(** CTA-to-SM assignment policy (paper Section X.B). *)
type cta_sched_policy =
  | Round_robin  (** hardware default: CTAs round-robin over SMs *)
  | Clustered of int
      (** groups of [k] consecutive CTAs on the same SM, exploiting
          neighbour-CTA locality in the private L1 *)

(** Static per-load flags — the paper's Section X.A
    "instruction-feature-aware mechanisms selectively applied to load
    instructions".  The leaf of the {!policy} tree: class-wide for
    non-deterministic loads ({!Ndet_flags}) or per (kernel, pc)
    ({!Per_pc}). *)
type load_policy = {
  lp_split : int;  (** sub-warp width, 0 = no split *)
  lp_prefetch : bool;
  lp_bypass : bool;
}

val no_policy : load_policy

(** {1 Memory-system policies}

    One composable value selects the memory-system intervention a run
    evaluates; [Mempolicy] interprets it per SM.  {!Baseline} is
    observationally identical to a simulator with no policy code at
    all — the perf-lock goldens pin that byte-for-byte. *)

(** Irregular Accesses Reorder unit (arXiv 2007.07131): a bounded
    per-SM buffer that holds non-deterministic loads and issues them
    line-batched, recovering inter-warp coalescing. *)
type iar_params = {
  iar_entries : int;  (** buffer capacity (line requests) *)
  iar_max_wait : int;  (** cycles before an entry bypasses batching *)
}

val default_iar : iar_params

(** Holistic warp-level memory management (arXiv 1804.11038):
    classifier-driven bypass for streaming deterministic loads, line
    protection for non-deterministic loads, CTA-granular warp
    throttling on reservation-fail spikes.  Integer thresholds keep
    the canonical config JSON, and so its digest
    ({!Stats_io.config_digest}), exact. *)
type holistic_params = {
  hp_bypass_sample : int;  (** D-load probes per pc before judging it *)
  hp_bypass_hit_pct : int;  (** mark streaming when hit% <= this *)
  hp_protect_ndet : bool;
  hp_throttle_window : int;  (** probes per throttle window *)
  hp_throttle_high_pct : int;  (** fail% >= this: throttle one CTA *)
  hp_throttle_low_pct : int;  (** fail% <= this: release one CTA *)
}

val default_holistic : holistic_params

type policy =
  | Baseline  (** stock hardware; byte-identical to the locked goldens *)
  | Ndet_flags of load_policy
      (** class-wide split/prefetch/bypass for every non-deterministic
          load (the former [warp_split_width] / [prefetch_ndet] /
          [bypass_ndet] knobs) *)
  | Iar of iar_params
  | Holistic of holistic_params
  | Per_pc of ((string * int) * load_policy) list * policy
      (** per-(kernel, pc) overrides wrapping any inner policy *)

val policy_name : policy -> string
(** Short label for tables and sweep job names. *)

val named_policies : policy list
(** The policies a CLI name selects: [Baseline], and [Iar] and
    [Holistic] with their default parameters. *)

val policy_of_string : string -> (policy, string) result
(** Parse a CLI policy name ([baseline] / [iar] / [holistic]): the
    inverse of {!policy_name} over {!named_policies}. *)

(** Warp issue policy within an SM. *)
type warp_sched_policy =
  | Lrr  (** loose round robin, the paper-era GPGPU-Sim default *)
  | Gto  (** greedy-then-oldest: stay on one warp until it stalls *)

val warp_sched_name : warp_sched_policy -> string
(** ["lrr"] / ["gto"]: the config JSON's spelling. *)

val warp_scheds : warp_sched_policy list

type t = {
  n_sms : int;
  warp_size : int;
  max_threads_per_sm : int;
  max_ctas_per_sm : int;
  shared_mem_per_sm : int;
  l1_sets : int;
  l1_ways : int;
  line_size : int;
  l1_mshr_entries : int;
  l1_mshr_max_merge : int;
  l1_hit_latency : int;
  n_mem_partitions : int;
  l2_sets : int;  (** per partition *)
  l2_ways : int;
  l2_mshr_entries : int;
  l2_latency : int;  (** ROP latency *)
  icnt_latency : int;
  icnt_buffer_size : int;  (** per-SM injection credits *)
  l2_input_queue_size : int;
  dram_latency : int;
  dram_interval : int;  (** min cycles between DRAM bursts *)
  dram_queue_size : int;
  sp_latency : int;
  sfu_latency : int;
  sfu_initiation : int;
  shared_latency : int;
  shared_banks : int;  (** 4-byte banks; conflicts serialize; 0 = off *)
  max_warp_insts : int;  (** stop after this many issued warp instrs; 0 = off *)
  max_cycles : int;
  cta_sched : cta_sched_policy;
  warp_sched : warp_sched_policy;
  l2_cluster : int;
      (** Section X.C ablation: SM-cluster size owning a private L2
          slice (0 = globally shared L2) *)
  policy : policy;  (** the memory-system policy this run evaluates *)
}

val default : t

(** {1 Builder}

    Pipeline-style combinators over {!default} for the knobs programs
    vary; each takes the config last, so call sites read
    [Config.default |> Config.with_policy p |> Config.with_caps
     ~max_warp_insts:5_000 ()].  Any other field is a record update. *)

val with_caps : ?max_warp_insts:int -> ?max_cycles:int -> unit -> t -> t
(** Simulation stop caps; [0] for [max_warp_insts] disables that cap. *)

val with_cta_sched : cta_sched_policy -> t -> t
val with_warp_sched : warp_sched_policy -> t -> t
val with_l2_cluster : int -> t -> t

val with_policy : policy -> t -> t
(** Select the memory-system policy (see {!policy}). *)

val unloaded_dram_latency : t -> int
(** Contention-free latency of a load serviced by DRAM. *)

val unloaded_l2_latency : t -> int
(** Contention-free latency of a load serviced by the L2. *)

val ctas_per_sm : t -> threads_per_cta:int -> smem_bytes:int -> int
(** Concurrent CTAs per SM given the thread and shared-memory limits. *)

val home_sm : t -> int -> int
(** The SM a CTA is first placed on under [cta_sched]: round-robin
    deals CTAs out in order; [Clustered k] gives each SM [k]
    consecutive CTAs.  The functional simulator runs every CTA there;
    the timing model queues clustered CTAs on it (round-robin CTAs go
    wherever a slot frees, starting from this order). *)

val pp : Format.formatter -> t -> unit
