(** Functional semantics of the ALU instructions, and the warp register
    file they execute on.

    Registers are 64-bit; floats are stored as IEEE-754 bit patterns
    (F32 results are rounded through 32 bits).  Integer division by
    zero yields 0, a total stand-in for the undefined PTX behaviour. *)

open Ptx.Types

(** Per-warp execution environment (identical for all lanes). *)
type env = {
  ctaid : int * int * int;
  ntid : int * int * int;
  nctaid : int * int * int;
  warp_in_cta : int;
}

(** {1 The warp register file} *)

type state
(** A warp's architectural state: for each lane, its registers,
    predicates and thread coordinates.  Register words are unboxed
    (one row of 64-bit slots per register), and each predicate is a
    lane mask, so executing an instruction allocates nothing per lane.
    Nothing here checks a register or predicate index:
    [Ptx.Kernel.create] rejects a kernel that names one out of range,
    and a lane must be below [width st]. *)

val create_state : env -> width:int -> nregs:int -> npregs:int -> state
(** A warp of [width] lanes with [nregs] registers and [npregs]
    predicates, all zero (false), every lane's thread coordinates
    (0, 0, 0). *)

val width : state -> int
(** Lanes per warp. *)

val set_tid : state -> int -> int * int * int -> unit
(** [set_tid st lane tid] sets [lane]'s thread coordinates. *)

val get_reg : state -> int -> int -> int64
(** [get_reg st r lane] is register [r] of [lane]. *)

val set_reg : state -> int -> int -> int64 -> unit
val get_pred : state -> int -> int -> bool
(** [get_pred st p lane] is predicate [p] of [lane]. *)

val set_pred : state -> int -> int -> bool -> unit

val taken_mask : state -> bool * int -> int -> int
(** [taken_mask st (polarity, p) mask] is the lanes of [mask] where
    predicate [p] equals [polarity]: where a branch guarded by it is
    taken. *)

(** {1 Scalar semantics} *)

val mulhi64 : int64 -> int64 -> int64
(** High 64 bits of the signed 64x64 product. *)

val exec_iop : iop -> int64 -> int64 -> int64
val round_f32 : float -> float
val exec_fop : fop -> dtype -> float -> float -> float

val exec_cvt : dst_ty:dtype -> src_ty:dtype -> int64 -> int64
(** Float to float rounds to F32 or keeps the bits; integer to float
    converts the value; float to integer truncates without narrowing;
    integer to integer narrows with the destination's signedness. *)

val exec_cmp : cmp -> dtype -> int64 -> int64 -> bool
(** Compares as floats, signed or unsigned integers by [dtype]. *)

val exec_atom : atomop -> int64 -> int64 -> int64
(** [exec_atom op old v] is the new memory value. *)

(** {1 Memory instructions}

    Each runs one memory instruction on the lanes of [mask], in
    ascending lane order.  A lane's address is its value of [a.abase]
    plus [a.aoffset], written to [addrs.(lane)] (other slots are left
    as they were); the memory is the one the instruction's space maps
    to.
    @raise Sim_error.Error ([Mem_fault]) on an out-of-bounds address,
    with the lanes before it done. *)

val load :
  state -> int -> Mem.t -> dtype -> int -> addr -> int array -> unit
(** [load st mask mem ty d a addrs]: register [d] takes the [ty] value
    at each lane's address ({!Mem.load}). *)

val store :
  state -> int -> Mem.t -> dtype -> addr -> operand -> int array -> unit
(** [store st mask mem ty a v addrs] stores each lane's value of [v]. *)

val atomic :
  state ->
  int ->
  Mem.t ->
  atomop ->
  dtype ->
  int ->
  addr ->
  operand ->
  int array ->
  unit
(** [atomic st mask mem op ty d a v addrs]: per lane, the word at the
    address becomes [exec_atom op old v] and register [d] takes [old]. *)

val broadcast : state -> int -> int -> int64 -> unit
(** [broadcast st mask d v] sets register [d] to [v] on the lanes of
    [mask] (a kernel parameter load). *)

(** {1 The compiled executor} *)

val compile_alu : Ptx.Instr.t -> state -> int -> unit
(** [compile_alu i] specialises ALU instruction [i] into a closure that
    executes it for every lane set in the mask argument, writing its
    destination register's or predicate's slots on those lanes only;
    every other lane, register and predicate keeps its value.  Operand
    shapes are resolved at compile time, once per pc per launch, and
    the lane loops box nothing.  Each lane gets exactly what the scalar
    functions above compute for it; float instructions read an integer
    immediate as the double of its value.  Compiling a memory/control
    instruction yields a closure that raises when invoked. *)

(** Functional-unit class (for the Fig 4 occupancy statistics). *)
type unit_class = SP | SFU | LDST

val unit_of_instr : Ptx.Instr.t -> unit_class
