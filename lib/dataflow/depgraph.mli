(** Data-dependence graph at instruction granularity: an edge [pc -> d]
    means instruction [pc] uses a register whose reaching definition is
    instruction [d]. *)

type t

val build : Ptx.Kernel.t -> Reaching.t -> t

val deps : t -> int -> int list
(** Defining pcs of the registers the instruction at [pc] uses. *)

val has_uninitialized_use : t -> int -> bool
(** True when the instruction uses a register with no reaching
    definition (reads a register never written on some path). *)

val to_dot : t -> string
(** Graphviz rendering of the dependence graph; load nodes (the
    classifier's taint sources) are highlighted. *)

val slice : t -> stop:(Ptx.Instr.t -> bool) -> int list -> int list
(** [slice t ~stop roots] is every pc reachable from [roots] through
    dependence edges, roots included, each once and in no specified
    order.  A pc whose instruction satisfies [stop] is in the slice,
    but the walk does not follow its edges: the paper's classifier
    stops at loads ({!Ptx.Instr.is_load}), and [fun _ -> false] gives
    the full slice. *)
