(** One function per paper table/figure: structured rows for tests,
    and a text renderer for [critload experiment], reached by id
    through {!all}.  EXPERIMENTS.md records the shapes to compare
    against the paper. *)

open Dataflow.Classify

val set_timing_cap : int -> unit
(** Override the per-app warp-instruction cap of the timing runs
    ([critload experiment --cap]; default 120k, 0 = none). *)

val timing_cfg : unit -> Gsim.Config.t
(** {!Gsim.Config.default} under the current timing cap. *)

val all_apps : Workloads.App.t list

val func_result : Workloads.App.scale -> Workloads.App.t -> Runner.func_result
(** Cached functional run (several figures share them). *)

val timing_report :
  ?cfg:Gsim.Config.t -> Workloads.App.scale -> Workloads.App.t ->
  Runner.Report.t
(** The harness's one path to a timing run, memoized by app, scale and
    the full [cfg] (default {!timing_cfg}[ ()]): every figure and
    ablation row at the same configuration shares one run. *)

(** {1 Table I — application characteristics} *)

type table1_row = {
  t1_name : string;
  t1_category : string;
  t1_ctas : int;
  t1_threads_per_cta : int;
  t1_total_insts : int;
  t1_gld_insts : int;
  t1_gld_fraction : float;
}

val table1 : Workloads.App.scale -> table1_row list

(** {1 Fig 1 — load classification} *)

type fig1_row = {
  f1_name : string;
  f1_static_d : int;
  f1_static_n : int;
  f1_dyn_d_fraction : float;
}

val fig1 : Workloads.App.scale -> fig1_row list

(** {1 Fig 2 — requests per warp / active thread} *)

type fig2_row = {
  f2_name : string;
  f2_req_per_warp : load_class -> float;
  f2_req_per_thread : load_class -> float;
}

val fig2 : Workloads.App.scale -> fig2_row list

(** {1 Fig 3 / Fig 4} *)

val fig3 : Workloads.App.scale -> Workloads.App.t -> float array
(** L1 cycle-outcome fractions, indexed by [Stats.l1_event_index]. *)

val fig4 : Workloads.App.scale -> Workloads.App.t -> float * float * float
(** (SP, SFU, LD/ST) first-stage busy fractions. *)

(** {1 Fig 5 — turnaround breakdown} *)

val fig5 :
  Workloads.App.scale ->
  Workloads.App.t ->
  (float * float * float * float) * (float * float * float * float)
(** ((N breakdown), (D breakdown)) — each (unloaded, rsrv_prev,
    rsrv_cur, wasted). *)

(** {1 Fig 6 / Fig 7 — per-pc turnaround vs request count} *)

type fig6_series = {
  f6_app : string;
  f6_kernel : string;
  f6_pc : int;
  f6_cls : load_class;
  f6_points : (int * float) list;
}

val fig6 : Workloads.App.scale -> fig6_series list

type fig7_row = {
  f7_nreq : int;
  f7_count : int;
  f7_common : float;
  f7_gap_l1d : float;
  f7_gap_icnt_l2 : float;
  f7_gap_l2_icnt : float;
}

val fig7 : Workloads.App.scale -> (string * int) * fig7_row list

(** {1 Fig 8 — miss ratios} *)

val fig8 :
  Workloads.App.scale ->
  Workloads.App.t ->
  (float * float) * (float * float)
(** ((L1 N, L2 N), (L1 D, L2 D)). *)

(** {1 Figs 9-12 — functional-side metrics} *)

val fig9 : Workloads.App.scale -> Workloads.App.t -> float
val fig10 : Workloads.App.scale -> Workloads.App.t -> float * float
val fig11 : Workloads.App.scale -> Workloads.App.t -> Gsim.Funcsim.sharing
val fig12 : Workloads.App.scale -> Workloads.App.t -> (int * float) list

(** {1 Input-size sensitivity} *)

type sensitivity_row = {
  sn_app : string;
  sn_scale : string;
  sn_dyn_d_fraction : float;
  sn_req_per_thread_n : float;
}

val sensitivity : string list -> sensitivity_row list
(** Classification metrics across dataset scales (cf. Burtscher et al.:
    irregularity is largely input-size independent). *)

(** {1 Section X ablations} *)

type ablation_row = {
  ab_app : string;
  ab_variant : string;
  ab_cycles : int;
  ab_l1_miss_n : float;
  ab_turnaround_n : float;
  ab_fail_frac : float;
}

val ablation_run :
  Workloads.App.scale -> Workloads.App.t -> Gsim.Config.t -> string ->
  ablation_row

val ablate_l2 :
  Workloads.App.scale -> (string * string * int * float * float) list

(** {1 The experiment table} *)

val all : (string * (Workloads.App.scale -> string)) list
(** Every renderer by id, in the order [critload experiment] runs
    them: [table1]..[table3], [fig1]..[fig12], the Section X ablations
    and [sensitivity] ([table2] and [sensitivity] ignore the scale).
    Five ablations ([ablate-split], [ablate-cta], [ablate-prefetch],
    [ablate-bypass], [ablate-warpsched]) render {!ablation_run} rows
    from one table of named config edits.  The policy comparison
    below is not listed: it takes a worker count and a policy list. *)

(** {1 Memory-system policy sweep}

    Every app under every first-class {!Gsim.Config.policy}, run
    through the cached parallel sweep runner ({!Parsweep}) with
    profiling on.  Speedup is baseline cycles over the policy's
    cycles; the D/N reservation-fail columns count L1 probe cycles
    lost to reservation failures per load class (the profile
    reducer's [cp_l1_fail] totals), with the N-class change relative
    to baseline. *)

type policy_row = {
  po_app : string;
  po_category : string;
  po_policy : string;
  po_cycles : int;
  po_speedup : float;
  po_fail_d : int;
  po_fail_n : int;
  po_fail_n_delta : float;
}

val policy_sweep :
  ?policies:Gsim.Config.policy list ->
  ?workers:int ->
  Workloads.App.scale ->
  policy_row list
(** [policies] defaults to {!Gsim.Config.named_policies}.  Rows
    ordered app-major then policy; jobs that failed in the pool
    are dropped (speedup falls back to 1.0 when an app's baseline row
    is missing). *)

val render_policy_rows : policy_row list -> string
(** Table rendering of already-computed rows ([critload experiment
    policies] runs the sweep once and feeds both the table and its
    JSON export). *)

val policy_rows_to_json :
  Workloads.App.scale -> policy_row list -> Gsim.Stats_io.Json.t
(** The [critload-bench-policies-v1] document: the scale and one
    object per row. *)
