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

val string_of_dtype : dtype -> string
val dtype_of_string : string -> dtype
(** @raise Invalid_argument on an unknown type name. *)

val string_of_space : space -> string
val space_of_string : string -> space
(** @raise Invalid_argument on an unknown space name. *)

val string_of_iop : iop -> string
val string_of_fop : fop -> string
val string_of_funary : funary -> string
val string_of_cmp : cmp -> string
val cmp_of_string : string -> cmp
val string_of_atomop : atomop -> string
val pp_operand : Format.formatter -> operand -> unit
val pp_addr : Format.formatter -> addr -> unit
