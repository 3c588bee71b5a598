(** Induction-variable and sequential-walk detection.

    Recognizes non-deterministic loads whose address has a
    data-dependent base but advances by a fixed byte step per loop
    iteration (edge-array walks) — the target of the indirect
    prefetching discussed in the paper's Section X.A. *)

type walk = { w_pc : int; w_step : int }

val walking_loads : Depgraph.t -> walk list
(** Every global load of the analyzed kernel that walks sequentially. *)
