(** Instructions of the PTX-like ISA, with def/use sets.

    Program counters are indices into a kernel's instruction array.
    [Label] is a pseudo-instruction that defines a branch target and is
    skipped by the executor.  Predicate registers form a separate class,
    as in PTX. *)

open Types

type t =
  | Ld_param of int * string  (** dst <- named kernel parameter *)
  | Ld of space * dtype * int * addr  (** dst <- [addr] *)
  | St of space * dtype * addr * operand  (** [addr] <- value *)
  | Mov of int * operand
  | Iop of iop * int * operand * operand
  | Mad of int * operand * operand * operand  (** d = a*b + c (mad.lo) *)
  | Fop of fop * dtype * int * operand * operand
  | Fma of dtype * int * operand * operand * operand
  | Funary of funary * dtype * int * operand  (** transcendental, on SFU *)
  | Cvt of dtype * dtype * int * operand  (** cvt.dst_ty.src_ty *)
  | Setp of cmp * dtype * int * operand * operand  (** pred <- a cmp b *)
  | Selp of int * operand * operand * int  (** d = p ? a : b *)
  | Pnot of int * int
  | Pand of int * int * int
  | Por of int * int * int
  | Bra of (bool * int) option * string
      (** optional guard (polarity, predicate register); target label *)
  | Atom of atomop * dtype * int * addr * operand
      (** dst <- old memory value; [addr] updated atomically *)
  | Bar  (** CTA-wide barrier *)
  | Exit
  | Label of string

val operands : t -> operand list
(** Source operands, in order; an address contributes its base.
    Predicate sources are {!puses}. *)

val defs : t -> int list
(** General registers written by the instruction. *)

val uses : t -> int list
(** General registers among {!operands}. *)

val pdefs : t -> int list
(** Predicate registers written. *)

val puses : t -> int list
(** Predicate registers read. *)

val loads_from_memory : t -> space option
(** [Some space] when the instruction's destination register receives a
    value from memory ([Ld] and [Atom]); [ld.param] deliberately returns
    [None] — parameters are the deterministic leaves of the paper's
    classification. *)

val is_load : t -> bool
(** [loads_from_memory] is [Some _]. *)

val is_global_load : t -> bool
(** True for loads that access global memory (including atomics). *)

val is_branch : t -> bool
val is_exit : t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
