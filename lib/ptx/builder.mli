(** Imperative eDSL for constructing kernels.

    Emitter functions append an instruction to the builder and return
    the destination register as an operand, so address computations
    compose naturally:

    {[
      let b = Builder.create ~name:"saxpy" ~params () in
      let i = Builder.global_tid b in
      let x = Builder.ld b Global F32 (Builder.at b ~base:xp ~scale:4 i) in
      ...
    ]} *)

open Types

type t

val create :
  name:string -> params:Kernel.param list -> ?smem_bytes:int -> unit -> t

val emit : t -> Instr.t -> unit
val fresh_reg : t -> int
val fresh_label : t -> string -> string

(** {1 Operand constructors} *)

val int : int -> operand
val int64 : int64 -> operand
val float : float -> operand
val special : sreg -> operand
val tid_x : operand
val tid_y : operand
val ctaid_x : operand
val ctaid_y : operand
val ntid_x : operand
val ntid_y : operand
val nctaid_x : operand

(** {1 Arithmetic emitters} — each returns the destination operand. *)

val mov : t -> operand -> operand
val iop : t -> iop -> operand -> operand -> operand
val add : t -> operand -> operand -> operand
val sub : t -> operand -> operand -> operand
val mul : t -> operand -> operand -> operand
val div : t -> operand -> operand -> operand
val rem : t -> operand -> operand -> operand
val band : t -> operand -> operand -> operand
val shl : t -> operand -> operand -> operand
val shr : t -> operand -> operand -> operand
val mad : t -> operand -> operand -> operand -> operand
val fop : t -> fop -> ?ty:dtype -> operand -> operand -> operand
val fadd : t -> ?ty:dtype -> operand -> operand -> operand
val fsub : t -> ?ty:dtype -> operand -> operand -> operand
val fmul : t -> ?ty:dtype -> operand -> operand -> operand
val fdiv : t -> ?ty:dtype -> operand -> operand -> operand
val fma : t -> ?ty:dtype -> operand -> operand -> operand -> operand
val funary : t -> funary -> ?ty:dtype -> operand -> operand
val cvt : t -> dst_ty:dtype -> src_ty:dtype -> operand -> operand

(** {1 Memory} *)

val ld_param : t -> string -> operand
(** Load a named kernel parameter ([ld.param]) — the deterministic leaf
    of the paper's classification. *)

val addr : ?off:int -> operand -> addr
val at : t -> base:operand -> ?scale:int -> ?off:int -> operand -> addr
(** [at b ~base ~scale idx] emits the address arithmetic for
    [base + idx*scale + off] and returns the memory operand. *)

val ld : t -> space -> dtype -> addr -> operand
val st : t -> space -> dtype -> addr -> operand -> unit
val atom : t -> atomop -> dtype -> addr -> operand -> operand

(** {1 Predicates and control flow} *)

val setp : t -> cmp -> ?ty:dtype -> operand -> operand -> int
val selp : t -> operand -> operand -> int -> operand
val pnot : t -> int -> int
val pand : t -> int -> int -> int
val label : t -> string -> unit
val bra : t -> string -> unit
val bra_ifnot : t -> int -> string -> unit
val bar : t -> unit

val if_ : t -> int -> (unit -> unit) -> unit
(** [if_ b p body] runs [body] only for threads where predicate [p]
    holds (compiled to a guarded branch around the body). *)

val if_not : t -> int -> (unit -> unit) -> unit

val for_loop :
  t -> init:operand -> bound:operand -> step:operand -> (operand -> unit) ->
  unit
(** Counted loop [for i = init; i < bound; i += step]; the body receives
    the loop counter operand.  The counter register is mutated across
    iterations, as in compiled PTX loops. *)

val global_tid : t -> operand
(** [ctaid.x * ntid.x + tid.x]. *)

val finish : t -> Kernel.t
(** Appends a trailing [Exit], validates, and returns the kernel.
    @raise Kernel.Invalid naming every error {!Verify.validate} finds. *)
