(** Backward liveness of register nodes (general + predicate).

    Complements reaching definitions and supports register-pressure
    style analyses (e.g. the spare-register prefetching the paper's
    Section X discusses). *)

type t

val compute : Depgraph.t -> t
(** Liveness over the analyzed kernel's CFG. *)

val live_in_reg : t -> pc:int -> reg:int -> bool

val max_pressure : t -> int
(** Maximum number of simultaneously live general registers. *)
