(** Reaching definitions at instruction granularity.

    Register "nodes" unify general and predicate registers: general
    register [r] is node [r], predicate [p] is node [nregs + p], so
    predicate dataflow participates in the analysis. *)

type def = { def_id : int; def_pc : int; def_node : int }

type t = {
  kernel : Ptx.Kernel.t;
  cfg : Ptx.Cfg.t;
  defs : def array;
  defs_of_node : int list array;
  in_at : Bitset.t array;  (** per-pc IN set of definition ids *)
  nregs : int;
}

val node_of_reg : int -> int
val node_of_pred : nregs:int -> int -> int
val compute : Ptx.Kernel.t -> Ptx.Cfg.t -> t

val defs_reaching_node : t -> pc:int -> node:int -> int list
(** pcs of the definitions of [node] that reach [pc]. *)

val defs_reaching_reg : t -> pc:int -> reg:int -> int list
val defs_reaching_pred : t -> pc:int -> pred:int -> int list
