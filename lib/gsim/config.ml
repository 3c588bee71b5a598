(* Simulator configuration.  Defaults follow Table II of the paper
   (GPGPU-Sim v3.2.2, NVIDIA Tesla C2050 configuration): 14 SMs at
   1.15 GHz, 32-wide SIMT, 16KB/128B-line/4-way L1D with 64 MSHRs,
   768KB 8-way unified L2 with 32 MSHRs per partition, ROP (L2) latency
   120 cycles, DRAM latency 100 cycles. *)

type cta_sched_policy =
  | Round_robin (* CTA i -> SM (i mod n_sms), the hardware default *)
  | Clustered of int
      (* groups of k consecutive CTAs go to the same SM — the Section
         X.B proposal exploiting neighbour-CTA data locality *)

(* Static per-load flags: the paper's Section X.A suggestion of
   "instruction-feature-aware mechanisms that can be selectively
   applied to load instructions".  Used as the leaf of the policy
   tree below: either class-wide for non-deterministic loads
   ([Ndet_flags]) or per (kernel, pc) ([Per_pc]). *)
type load_policy = {
  lp_split : int; (* sub-warp width, 0 = no split *)
  lp_prefetch : bool; (* next-line prefetch on miss *)
  lp_bypass : bool; (* skip the L1 *)
}

let no_policy = { lp_split = 0; lp_prefetch = false; lp_bypass = false }

(* ---- memory-system policies ----

   One composable value selects the memory-system intervention a run
   evaluates; [Mempolicy] interprets it per SM.  [Baseline] must be
   observationally identical to a simulator with no policy code at all
   — the perf-lock goldens pin that equivalence byte-for-byte. *)

(* Irregular Accesses Reorder unit (arXiv 2007.07131): a bounded
   per-SM buffer that holds non-deterministic loads and issues them
   line-batched, recovering inter-warp coalescing the hardware
   coalescer cannot see. *)
type iar_params = {
  iar_entries : int; (* buffer capacity (line requests) *)
  iar_max_wait : int; (* cycles before an entry bypasses batching *)
}

let default_iar = { iar_entries = 48; iar_max_wait = 64 }

(* Holistic warp-level memory-hierarchy management (arXiv 1804.11038):
   classifier-driven L1 bypass for streaming deterministic loads, line
   protection for non-deterministic loads, and CTA-granular warp
   throttling when the reservation-fail rate spikes.  All thresholds
   are integers (percent / counts) so the canonical config JSON, and
   so its digest, stays exact. *)
type holistic_params = {
  hp_bypass_sample : int; (* D-load probes per pc before judging it *)
  hp_bypass_hit_pct : int; (* mark streaming when hit% <= this *)
  hp_protect_ndet : bool; (* protect N-load lines from eviction *)
  hp_throttle_window : int; (* probes per throttle evaluation window *)
  hp_throttle_high_pct : int; (* fail% >= this: throttle one CTA *)
  hp_throttle_low_pct : int; (* fail% <= this: release one CTA *)
}

let default_holistic =
  {
    hp_bypass_sample = 256;
    hp_bypass_hit_pct = 20;
    hp_protect_ndet = true;
    hp_throttle_window = 2048;
    hp_throttle_high_pct = 40;
    hp_throttle_low_pct = 10;
  }

type policy =
  | Baseline (* stock hardware; byte-identical to the locked goldens *)
  | Ndet_flags of load_policy
      (* class-wide split/prefetch/bypass applied to every
         non-deterministic load (the former warp_split_width /
         prefetch_ndet / bypass_ndet knobs) *)
  | Iar of iar_params
  | Holistic of holistic_params
  | Per_pc of ((string * int) * load_policy) list * policy
      (* per-(kernel, pc) overrides wrapping any inner policy; an entry
         replaces the inner policy's static flags for that load *)

(* Warp issue policy within an SM. *)
type warp_sched_policy =
  | Lrr (* loose round robin, the paper-era GPGPU-Sim default *)
  | Gto (* greedy-then-oldest: stay on one warp until it stalls *)

let warp_sched_name = function Lrr -> "lrr" | Gto -> "gto"
let warp_scheds = [ Lrr; Gto ]

type t = {
  n_sms : int;
  warp_size : int;
  max_threads_per_sm : int;
  max_ctas_per_sm : int;
  shared_mem_per_sm : int;
  (* L1 data cache *)
  l1_sets : int;
  l1_ways : int;
  line_size : int;
  l1_mshr_entries : int;
  l1_mshr_max_merge : int;
  l1_hit_latency : int;
  (* L2 *)
  n_mem_partitions : int;
  l2_sets : int; (* per partition *)
  l2_ways : int;
  l2_mshr_entries : int;
  l2_latency : int; (* ROP latency *)
  (* interconnect *)
  icnt_latency : int;
  icnt_buffer_size : int; (* per SM injection buffer (requests) *)
  l2_input_queue_size : int; (* per partition *)
  (* DRAM *)
  dram_latency : int;
  dram_interval : int; (* min cycles between DRAM data bursts *)
  dram_queue_size : int;
  (* execution latencies *)
  sp_latency : int;
  sfu_latency : int;
  sfu_initiation : int; (* SFU first-stage busy cycles per warp op *)
  shared_latency : int;
  shared_banks : int; (* bank-conflict serialization, 0 disables *)
  (* simulation control *)
  max_warp_insts : int; (* stop after this many issued warp instrs; 0 = no cap *)
  max_cycles : int;
  cta_sched : cta_sched_policy;
  warp_sched : warp_sched_policy;
  (* Section X.C ablation: SMs grouped into clusters of this size, each
     cluster owning a private slice of L2 (0 = global L2).  Modelled by
     scaling each partition's capacity by cluster/n_sms and routing a
     cluster's traffic to its own partition set. *)
  l2_cluster : int;
  (* the memory-system policy this run evaluates (see [Mempolicy]) *)
  policy : policy;
}

(* Tesla C2050 / Table II defaults. *)
let default =
  {
    n_sms = 14;
    warp_size = 32;
    max_threads_per_sm = 1536;
    max_ctas_per_sm = 8;
    shared_mem_per_sm = 48 * 1024;
    l1_sets = 32;
    (* 16KB / 128B / 4-way *)
    l1_ways = 4;
    line_size = 128;
    l1_mshr_entries = 64;
    l1_mshr_max_merge = 8;
    l1_hit_latency = 28;
    n_mem_partitions = 6;
    l2_sets = 128;
    (* 768KB / 6 partitions / 128B / 8-way = 128 sets *)
    l2_ways = 8;
    l2_mshr_entries = 32;
    l2_latency = 120;
    icnt_latency = 8;
    icnt_buffer_size = 64;
    l2_input_queue_size = 32;
    dram_latency = 100;
    dram_interval = 4;
    dram_queue_size = 32;
    sp_latency = 4;
    sfu_latency = 16;
    sfu_initiation = 8;
    shared_latency = 24;
    shared_banks = 32;
    max_warp_insts = 300_000;
    max_cycles = 3_000_000;
    cta_sched = Round_robin;
    warp_sched = Lrr;
    l2_cluster = 0;
    policy = Baseline;
  }

(* ---- builder ----

   Pipeline-style combinators over [default] for the knobs programs
   vary; each takes the config last so call sites read
     Config.default |> Config.with_policy p |> Config.with_caps
       ~max_warp_insts:5_000 ()
   Optional arguments leave the corresponding field untouched.  Any
   other field is a record update. *)

let opt v = function Some x -> x | None -> v

let with_caps ?max_warp_insts ?max_cycles () c =
  {
    c with
    max_warp_insts = opt c.max_warp_insts max_warp_insts;
    max_cycles = opt c.max_cycles max_cycles;
  }

let with_cta_sched p c = { c with cta_sched = p }
let with_warp_sched p c = { c with warp_sched = p }
let with_l2_cluster k c = { c with l2_cluster = k }
let with_policy p c = { c with policy = p }

let policy_name = function
  | Baseline -> "baseline"
  | Ndet_flags _ -> "ndet-flags"
  | Iar _ -> "iar"
  | Holistic _ -> "holistic"
  | Per_pc _ -> "per-pc"

let named_policies = [ Baseline; Iar default_iar; Holistic default_holistic ]

let policy_of_string s =
  match List.find_opt (fun p -> String.equal (policy_name p) s) named_policies
  with
  | Some p -> Ok p
  | None ->
      let rec alternatives = function
        | [ a; b ] -> a ^ " or " ^ b
        | a :: rest -> a ^ ", " ^ alternatives rest
        | [] -> ""
      in
      Error
        (Printf.sprintf "unknown policy %S (expected %s)" s
           (alternatives (List.map policy_name named_policies)))

(* Latency of a load that misses everywhere, with empty queues: request
   over icnt, L2 access, DRAM, and the return trip.  The L1 probe that
   detects the miss is a single cycle in this model, accounted in the
   acceptance timestamps rather than here. *)
let unloaded_dram_latency c =
  c.icnt_latency + c.l2_latency + c.dram_latency + c.icnt_latency

let unloaded_l2_latency c = c.icnt_latency + c.l2_latency + c.icnt_latency

(* How many CTAs of [threads_per_cta] threads and [smem] bytes of static
   shared memory fit on one SM. *)
let ctas_per_sm c ~threads_per_cta ~smem_bytes =
  let by_threads =
    if threads_per_cta = 0 then c.max_ctas_per_sm
    else c.max_threads_per_sm / threads_per_cta
  in
  let by_smem =
    if smem_bytes = 0 then c.max_ctas_per_sm
    else c.shared_mem_per_sm / smem_bytes
  in
  max 1 (min c.max_ctas_per_sm (min by_threads by_smem))

(* The SM a CTA starts on: both simulators place CTAs by this rule. *)
let home_sm c cta =
  match c.cta_sched with
  | Round_robin -> cta mod c.n_sms
  | Clustered k -> cta / max 1 k mod c.n_sms

let pp ppf c =
  Format.fprintf ppf
    "@[<v>Core: %d SMs, %d-wide SIMT, %d threads/SM max@,\
     L1D: %dKB, %dB line, %d-way, %d MSHR entries@,\
     L2: unified %dKB, %d partitions, %d-way, %d MSHR entries@,\
     Latencies: L1 %d, ROP %d, DRAM %d, icnt %d@]"
    c.n_sms c.warp_size c.max_threads_per_sm
    (c.l1_sets * c.l1_ways * c.line_size / 1024)
    c.line_size c.l1_ways c.l1_mshr_entries
    (c.l2_sets * c.l2_ways * c.line_size * c.n_mem_partitions / 1024)
    c.n_mem_partitions c.l2_ways c.l2_mshr_entries c.l1_hit_latency
    c.l2_latency c.dram_latency c.icnt_latency
