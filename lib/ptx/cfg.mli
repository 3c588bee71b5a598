(** Control-flow graph over a kernel's instruction array.

    Blocks are maximal straight-line pc ranges; leaders are pc 0, every
    [Label], and every pc following a branch or exit. *)

type block = {
  bid : int;
  first : int;  (** first pc of the block *)
  last : int;  (** last pc of the block, inclusive *)
  mutable succs : int list;
  mutable preds : int list;
}

type t = {
  kernel : Kernel.t;
  blocks : block array;
  block_of_pc : int array;
}

val build : Kernel.t -> t
val nblocks : t -> int
val block : t -> int -> block
val block_of_pc : t -> int -> int

val exit_blocks : t -> int list
(** Blocks ending in [Exit] (plus any block with no successors). *)

val reverse_postorder : t -> int list
(** Blocks reachable from entry, in reverse postorder. *)

val to_dot : t -> string
(** Graphviz rendering (one box per basic block, edges = control flow). *)
