(** A kernel's static analysis, built once: its CFG, reaching
    definitions, per-branch reconvergence table and data-dependence
    graph, whose edge [pc -> d] means instruction [pc] uses a register
    (general or predicate) whose reaching definition is instruction
    [d].  The verifier, the classifier, the stride, induction and
    liveness passes and the SIMT stack all read this one value. *)

type t

val of_kernel : Ptx.Kernel.t -> t
(** The kernel's analysis.  The kernel must pass
    {!Ptx.Verify.structural} without error: the analyses assume
    in-bounds registers and resolvable labels. *)

val kernel : t -> Ptx.Kernel.t
val cfg : t -> Ptx.Cfg.t
val reaching : t -> Reaching.t

val reconvergence : t -> int array
(** Per-pc reconvergence point of each branch: the first pc of its
    block's immediate post-dominator.  -1 for non-branches and for
    branches that reconverge only at exit. *)

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
