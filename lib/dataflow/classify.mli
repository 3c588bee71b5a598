(** The paper's load classifier (Section V).

    A load is {e deterministic} when its effective address derives only
    from parameterized data — thread/CTA ids, grid/block dimensions,
    kernel parameters and immediates.  It is {e non-deterministic} when
    the address depends, transitively, on a value read from memory by a
    prior load (including an atomic's return value).

    The classifier walks the data-dependence graph backwards from the
    definitions of the load's address register.  Loads and [ld.param]
    are traversal leaves: a load is non-deterministic as soon as its
    address flows from {e any} prior load, regardless of how that load's
    own address was formed. *)

open Ptx.Types

type load_class = Deterministic | Nondeterministic

type leaf =
  | Leaf_param  (** kernel parameter ([ld.param]) *)
  | Leaf_sreg  (** special register (tid / ctaid / ...) *)
  | Leaf_imm  (** immediate *)
  | Leaf_load of space  (** value loaded from this memory space *)
  | Leaf_uninit  (** register never written on some path *)

type load_info = {
  li_pc : int;
  li_space : space;
  li_class : load_class;
  li_leaves : leaf list;  (** distinct leaf kinds, sorted *)
  li_slice_size : int;  (** instructions visited in the address slice *)
}

type result = {
  res_kernel : Ptx.Kernel.t;
  res_loads : load_info list;  (** every memory load, in program order *)
  res_class_of_pc : (int, load_class) Hashtbl.t;  (** global loads only *)
}

val short_class : load_class -> string
(** ["D"] / ["N"], the paper's figure labels. *)

val load_classes : load_class list
(** Both classes, [Deterministic] first; a class decoder is
    {!short_class}'s inverse over this list. *)

val classify : Depgraph.t -> result
(** Classify every memory load of the analyzed kernel. *)

val class_of_global_load : result -> int -> load_class option
(** Class of the global load at [pc], [None] if [pc] is not a global
    load. *)

val global_loads : result -> load_info list

val count_global : result -> int * int
(** (deterministic, non-deterministic) static counts of global loads. *)

val pp_result : Format.formatter -> result -> unit
