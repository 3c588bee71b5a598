(* Core types of the PTX-like virtual ISA.

   The ISA mirrors the subset of NVIDIA PTX that matters for the paper's
   backward-dataflow load classification and for cycle-level simulation:
   typed loads/stores over distinct memory spaces, integer/floating ALU
   operations, SFU transcendentals, predicated branches, barriers and
   atomics.  Values are carried in 64-bit general registers; floating
   values are stored as their IEEE-754 bit patterns. *)

type dtype =
  | U8
  | S8
  | U16
  | S16
  | U32
  | S32
  | U64
  | S64
  | F32
  | F64

type space =
  | Param
  | Global
  | Shared
  | Local
  | Const
  | Tex

type dim = X | Y | Z

(* Special (read-only) registers exposed to every thread. *)
type sreg =
  | Tid of dim
  | Ntid of dim
  | Ctaid of dim
  | Nctaid of dim
  | Laneid
  | Warpid

type operand =
  | Reg of int (* general-purpose virtual register *)
  | Imm of int64
  | Fimm of float
  | Sreg of sreg

(* [abase + aoffset] addressing, as in PTX [%r1+8]. *)
type addr = { abase : operand; aoffset : int }

type iop =
  | Add
  | Sub
  | Mul
  | Mulhi
  | Div
  | Rem
  | Min
  | Max
  | Band
  | Bor
  | Bxor
  | Shl
  | Shr

type fop =
  | Fadd
  | Fsub
  | Fmul
  | Fdiv
  | Fmin
  | Fmax

type funary =
  | Sqrt
  | Rsqrt
  | Rcp
  | Sin
  | Cos
  | Ex2
  | Lg2

type cmp =
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge

type atomop =
  | Aadd
  | Amin
  | Amax
  | Aexch
  | Acas

let dtype_size = function
  | U8 | S8 -> 1
  | U16 | S16 -> 2
  | U32 | S32 | F32 -> 4
  | U64 | S64 | F64 -> 8

let dtype_is_float = function
  | F32 | F64 -> true
  | U8 | S8 | U16 | S16 | U32 | S32 | U64 | S64 -> false

let dtype_is_signed = function
  | S8 | S16 | S32 | S64 -> true
  | U8 | U16 | U32 | U64 | F32 | F64 -> false

let string_of_dtype = function
  | U8 -> "u8"
  | S8 -> "s8"
  | U16 -> "u16"
  | S16 -> "s16"
  | U32 -> "u32"
  | S32 -> "s32"
  | U64 -> "u64"
  | S64 -> "s64"
  | F32 -> "f32"
  | F64 -> "f64"

let dtypes = [ U8; S8; U16; S16; U32; S32; U64; S64; F32; F64 ]

let string_of_space = function
  | Param -> "param"
  | Global -> "global"
  | Shared -> "shared"
  | Local -> "local"
  | Const -> "const"
  | Tex -> "tex"

let spaces = [ Param; Global; Shared; Local; Const; Tex ]

let string_of_dim = function X -> "x" | Y -> "y" | Z -> "z"
let dims = [ X; Y; Z ]

let string_of_sreg = function
  | Tid d -> "%tid." ^ string_of_dim d
  | Ntid d -> "%ntid." ^ string_of_dim d
  | Ctaid d -> "%ctaid." ^ string_of_dim d
  | Nctaid d -> "%nctaid." ^ string_of_dim d
  | Laneid -> "%laneid"
  | Warpid -> "%warpid"

let sregs =
  List.concat_map (fun d -> [ Tid d; Ntid d; Ctaid d; Nctaid d ]) dims
  @ [ Laneid; Warpid ]

let string_of_iop = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul.lo"
  | Mulhi -> "mul.hi"
  | Div -> "div"
  | Rem -> "rem"
  | Min -> "min"
  | Max -> "max"
  | Band -> "and"
  | Bor -> "or"
  | Bxor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"

let iops =
  [ Add; Sub; Mul; Mulhi; Div; Rem; Min; Max; Band; Bor; Bxor; Shl; Shr ]

let string_of_fop = function
  | Fadd -> "add.f"
  | Fsub -> "sub.f"
  | Fmul -> "mul.f"
  | Fdiv -> "div.f"
  | Fmin -> "min.f"
  | Fmax -> "max.f"

let fops = [ Fadd; Fsub; Fmul; Fdiv; Fmin; Fmax ]

(* The full mnemonic carries the width: add.f32, max.f64. *)
let fop_mnemonic o ty = string_of_fop o ^ if ty = F64 then "64" else "32"

let string_of_funary = function
  | Sqrt -> "sqrt"
  | Rsqrt -> "rsqrt"
  | Rcp -> "rcp"
  | Sin -> "sin"
  | Cos -> "cos"
  | Ex2 -> "ex2"
  | Lg2 -> "lg2"

let funarys = [ Sqrt; Rsqrt; Rcp; Sin; Cos; Ex2; Lg2 ]

let string_of_cmp = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"

let cmps = [ Eq; Ne; Lt; Le; Gt; Ge ]

let string_of_atomop = function
  | Aadd -> "add"
  | Amin -> "min"
  | Amax -> "max"
  | Aexch -> "exch"
  | Acas -> "cas"

let atomops = [ Aadd; Amin; Amax; Aexch; Acas ]

(* ---- decoders ----

   Each printer above is its type's one spelling; a decoder is the
   printer's inverse over the type's constructor list, whose names it
   spells once when it is made. *)

let of_name print all =
  let named = List.map (fun v -> (print v, v)) all in
  fun s ->
    List.find_map (fun (n, v) -> if String.equal n s then Some v else None) named

let decoder what print all s =
  match of_name print all s with
  | Some v -> v
  | None -> invalid_arg (what ^ ": " ^ s)

let dtype_of_string = decoder "dtype_of_string" string_of_dtype dtypes
let space_of_string = decoder "space_of_string" string_of_space spaces
let cmp_of_string = decoder "cmp_of_string" string_of_cmp cmps

let pp_operand ppf = function
  | Reg r -> Format.fprintf ppf "%%r%d" r
  | Imm i -> Format.fprintf ppf "%Ld" i
  | Fimm f -> Format.fprintf ppf "%h" f
  | Sreg s -> Format.pp_print_string ppf (string_of_sreg s)

let pp_addr ppf { abase; aoffset } =
  if aoffset = 0 then Format.fprintf ppf "[%a]" pp_operand abase
  else Format.fprintf ppf "[%a+%d]" pp_operand abase aoffset
