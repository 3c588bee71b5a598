(** Core types of the PTX-like virtual ISA.

    The ISA mirrors the subset of NVIDIA PTX needed for the paper's
    backward-dataflow load classification and for cycle-level simulation.
    Values live in 64-bit general registers; floating-point values are
    stored as their IEEE-754 bit patterns. *)

(** Scalar data types, as in PTX type suffixes ([.u32], [.f32], ...). *)
type dtype = U8 | S8 | U16 | S16 | U32 | S32 | U64 | S64 | F32 | F64

(** Memory spaces addressable by loads and stores. *)
type space = Param | Global | Shared | Local | Const | Tex

type dim = X | Y | Z

(** Special read-only per-thread registers ([%tid.x], [%ctaid.y], ...). *)
type sreg =
  | Tid of dim
  | Ntid of dim
  | Ctaid of dim
  | Nctaid of dim
  | Laneid
  | Warpid

(** Instruction operands. [Reg r] is virtual general register [r]. *)
type operand = Reg of int | Imm of int64 | Fimm of float | Sreg of sreg

(** Memory operand [base + offset], as in PTX [[%r1+8]]. *)
type addr = { abase : operand; aoffset : int }

(** Integer binary ALU operations. *)
type iop =
  | Add | Sub | Mul | Mulhi | Div | Rem | Min | Max
  | Band | Bor | Bxor | Shl | Shr

(** Floating binary ALU operations. *)
type fop = Fadd | Fsub | Fmul | Fdiv | Fmin | Fmax

(** Unary transcendental operations, executed on SFUs. *)
type funary = Sqrt | Rsqrt | Rcp | Sin | Cos | Ex2 | Lg2

(** Comparison operators for [setp]. *)
type cmp = Eq | Ne | Lt | Le | Gt | Ge

(** Atomic read-modify-write operations. *)
type atomop = Aadd | Amin | Amax | Aexch | Acas

val dtype_size : dtype -> int
(** Size of the type in bytes. *)

val dtype_is_float : dtype -> bool
val dtype_is_signed : dtype -> bool

(** {1 Names}

    Each [string_of_*] printer is its type's one spelling, and each
    constructor list names every value of its type once.  The decoders
    are the printers' inverses over those lists ({!of_name}), so a name
    decodes iff some constructor prints as it. *)

val string_of_dtype : dtype -> string
val dtypes : dtype list

val string_of_space : space -> string
val spaces : space list

val string_of_sreg : sreg -> string
(** [%tid.x], ..., [%laneid], [%warpid]. *)

val sregs : sreg list
(** All 14 special registers. *)

val string_of_iop : iop -> string
val iops : iop list

val fops : fop list

val fop_mnemonic : fop -> dtype -> string
(** The full mnemonic: [add.f64] for [F64], [add.f32] for any other
    type.  {!Verify} rejects a float op on a non-float type, which
    would not parse back as itself. *)

val string_of_funary : funary -> string
val funarys : funary list
val string_of_cmp : cmp -> string
val cmps : cmp list
val string_of_atomop : atomop -> string
val atomops : atomop list

val of_name : ('a -> string) -> 'a list -> string -> 'a option
(** [of_name print all s] is the value of [all] that [print] spells
    [s], if any.  [of_name print all] prints [all] once, so a decoder
    is best made by that partial application. *)

val dtype_of_string : string -> dtype
(** Inverse of {!string_of_dtype}.
    @raise Invalid_argument on an unknown type name. *)

val space_of_string : string -> space
(** Inverse of {!string_of_space}.
    @raise Invalid_argument on an unknown space name. *)

val cmp_of_string : string -> cmp
(** Inverse of {!string_of_cmp}.
    @raise Invalid_argument on an unknown comparison. *)

val pp_operand : Format.formatter -> operand -> unit
val pp_addr : Format.formatter -> addr -> unit
