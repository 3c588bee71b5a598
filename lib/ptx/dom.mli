(** Dominators and post-dominators (Cooper–Harvey–Kennedy).

    Post-dominators are computed on the reversed CFG with a virtual exit
    node; the immediate post-dominator of a divergent branch is the SIMT
    reconvergence point used by the simulator. *)

type t = { idom : int array }
(** Immediate (post-)dominator per node: the root's is itself, and a
    node the root does not reach gets [-1]. *)

val dominators : Cfg.t -> t

val post_dominators : Cfg.t -> t
(** Computed with virtual exit node [Cfg.nblocks cfg]. *)

val idom : t -> int -> int option
(** Immediate dominator, [None] for the entry. *)

val dominates : t -> int -> int -> bool
(** [dominates t a b] — does [a] (post-)dominate [b]? *)

val reconvergence_pc : Cfg.t -> t -> int -> int option
(** Reconvergence pc for the branch at [pc]: first pc of the branch
    block's immediate post-dominator, or [None] when the branch only
    reconverges at kernel exit. *)
