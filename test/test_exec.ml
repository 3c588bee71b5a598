(* Unit and property tests of the instruction semantics (Exec), the
   typed memory (Mem), and the Bitset used by the dataflow analyses.
   The warp executor ([Exec.compile_alu]) is checked against a
   per-lane reference executor kept here. *)

open Ptx.Types

let env =
  { Gsim.Exec.ctaid = (3, 1, 0); ntid = (32, 2, 1); nctaid = (8, 4, 1);
    warp_in_cta = 1 }

(* A one-warp state whose lane 5 is thread (5, 1, 0). *)
let state () =
  let st = Gsim.Exec.create_state env ~width:32 ~nregs:8 ~npregs:2 in
  Gsim.Exec.set_tid st 5 (5, 1, 0);
  st

(* ---------------- operand evaluation ---------------- *)

(* An operand's value on lane 5, moved through the executor. *)
let test_sreg_values () =
  let st = state () in
  let ev o =
    Gsim.Exec.compile_alu (Ptx.Instr.Mov (0, o)) st (Gsim.Warp.full_mask 32);
    Gsim.Exec.get_reg st 0 5
  in
  Alcotest.(check int64) "tid.x" 5L (ev (Sreg (Tid X)));
  Alcotest.(check int64) "tid.y" 1L (ev (Sreg (Tid Y)));
  Alcotest.(check int64) "ctaid.x" 3L (ev (Sreg (Ctaid X)));
  Alcotest.(check int64) "ntid.x" 32L (ev (Sreg (Ntid X)));
  Alcotest.(check int64) "nctaid.y" 4L (ev (Sreg (Nctaid Y)));
  Alcotest.(check int64) "laneid" 5L (ev (Sreg Laneid));
  Alcotest.(check int64) "warpid" 1L (ev (Sreg Warpid));
  Alcotest.(check int64) "imm" 42L (ev (Imm 42L));
  Gsim.Exec.set_reg st 3 5 7L;
  Alcotest.(check int64) "reg" 7L (ev (Reg 3));
  Alcotest.(check int64) "other lanes keep the register" 0L
    (Gsim.Exec.get_reg st 3 4)

let test_eval_addr () =
  let st = state () in
  Gsim.Exec.set_reg st 0 5 1000L;
  let mem = Gsim.Mem.create 2048 and addrs = Array.make 32 (-1) in
  Gsim.Mem.set_u32 mem 1016 77;
  Gsim.Exec.load st (1 lsl 5) mem U32 1 { abase = Reg 0; aoffset = 16 } addrs;
  Alcotest.(check int) "base+offset" 1016 addrs.(5);
  Alcotest.(check int64) "loaded" 77L (Gsim.Exec.get_reg st 1 5);
  Alcotest.(check int) "an inactive lane's slot is untouched" (-1) addrs.(4)

(* ---------------- integer semantics ---------------- *)

let test_iop_semantics () =
  let x = Gsim.Exec.exec_iop in
  Alcotest.(check int64) "add" 7L (x Add 3L 4L);
  Alcotest.(check int64) "sub" (-1L) (x Sub 3L 4L);
  Alcotest.(check int64) "mul" 12L (x Mul 3L 4L);
  Alcotest.(check int64) "div" 3L (x Div 13L 4L);
  Alcotest.(check int64) "div by zero is 0" 0L (x Div 13L 0L);
  Alcotest.(check int64) "rem" 1L (x Rem 13L 4L);
  Alcotest.(check int64) "rem by zero is 0" 0L (x Rem 13L 0L);
  Alcotest.(check int64) "min" 3L (x Min 3L 4L);
  Alcotest.(check int64) "max" 4L (x Max 3L 4L);
  Alcotest.(check int64) "and" 0b100L (x Band 0b110L 0b101L);
  Alcotest.(check int64) "or" 0b111L (x Bor 0b110L 0b101L);
  Alcotest.(check int64) "xor" 0b011L (x Bxor 0b110L 0b101L);
  Alcotest.(check int64) "shl" 48L (x Shl 3L 4L);
  Alcotest.(check int64) "shr is logical" 1L (x Shr Int64.min_int 63L)

let prop_mulhi =
  QCheck.Test.make ~count:500 ~name:"mulhi64 matches 128-bit reference"
    QCheck.(pair (int_bound 0x3FFFFFFF) (int_bound 0x3FFFFFFF))
    (fun (a, b) ->
      (* for values fitting in 31 bits the high half of the product is 0,
         and for shifted values it's computable exactly *)
      let a64 = Int64.of_int a and b64 = Int64.of_int b in
      let small = Gsim.Exec.mulhi64 a64 b64 = 0L in
      (* (a << 32) * (b << 32) has high half a*b *)
      let big =
        Gsim.Exec.mulhi64 (Int64.shift_left a64 32) (Int64.shift_left b64 32)
        = Int64.mul a64 b64
      in
      small && big)

let test_cmp_signedness () =
  let c = Gsim.Exec.exec_cmp in
  (* -1 as u32 bit pattern: 0xFFFFFFFF *)
  Alcotest.(check bool) "signed lt" true (c Lt S64 (-1L) 1L);
  Alcotest.(check bool) "unsigned lt flips" false (c Lt U64 (-1L) 1L);
  Alcotest.(check bool) "unsigned 0xFFFFFFFF > 1" true (c Gt U32 0xFFFFFFFFL 1L);
  (* float compare through bit patterns *)
  let f v = Int64.bits_of_float v in
  Alcotest.(check bool) "float lt" true (c Lt F32 (f 1.5) (f 2.5));
  Alcotest.(check bool) "float ge" true (c Ge F64 (f 2.5) (f 2.5))

let test_cvt () =
  let cv ~dst_ty ~src_ty v = Gsim.Exec.exec_cvt ~dst_ty ~src_ty v in
  Alcotest.(check int64) "u8 narrows" 0xCDL (cv ~dst_ty:U8 ~src_ty:U32 0xABCDL);
  Alcotest.(check int64) "s8 sign-extends" (-1L) (cv ~dst_ty:S8 ~src_ty:U32 0xFFL);
  Alcotest.(check int64) "s16 sign-extends" (-2L)
    (cv ~dst_ty:S16 ~src_ty:U32 0xFFFEL);
  Alcotest.(check int64) "s32 sign-extends" (-1L)
    (cv ~dst_ty:S32 ~src_ty:U64 0xFFFFFFFFL);
  (* int -> float -> int round trip *)
  let as_f = cv ~dst_ty:F32 ~src_ty:S32 12L in
  Alcotest.(check (float 0.001)) "s32 -> f32" 12.0 (Int64.float_of_bits as_f);
  Alcotest.(check int64) "f32 -> s32 truncates" 12L
    (cv ~dst_ty:S32 ~src_ty:F32 (Int64.bits_of_float 12.9))

let test_atom_semantics () =
  let a = Gsim.Exec.exec_atom in
  Alcotest.(check int64) "add" 10L (a Aadd 7L 3L);
  Alcotest.(check int64) "min keeps old" 3L (a Amin 3L 7L);
  Alcotest.(check int64) "min takes new" 3L (a Amin 7L 3L);
  Alcotest.(check int64) "max" 7L (a Amax 7L 3L);
  Alcotest.(check int64) "exch" 3L (a Aexch 7L 3L)

let test_f32_rounding () =
  (* exec_fop rounds F32 results but not F64 *)
  let tiny = 1e-10 in
  let r32 = Gsim.Exec.exec_fop Fadd F32 1.0 tiny in
  let r64 = Gsim.Exec.exec_fop Fadd F64 1.0 tiny in
  Alcotest.(check (float 0.0)) "f32 absorbs the tiny addend" 1.0 r32;
  Alcotest.(check bool) "f64 keeps it" true (r64 > 1.0)

(* ---------------- the warp executor against a per-lane reference ---------------- *)

(* The reference: one thread's registers and predicates, executed one
   instruction at a time straight from the scalar semantics. *)
type ref_thread = {
  r_regs : int64 array;
  r_preds : bool array;
  r_tid : int * int * int;
  r_lane : int;
}

let dim_of (x, y, z) = function X -> x | Y -> y | Z -> z

let ref_sreg env th = function
  | Tid d -> Int64.of_int (dim_of th.r_tid d)
  | Ntid d -> Int64.of_int (dim_of env.Gsim.Exec.ntid d)
  | Ctaid d -> Int64.of_int (dim_of env.Gsim.Exec.ctaid d)
  | Nctaid d -> Int64.of_int (dim_of env.Gsim.Exec.nctaid d)
  | Laneid -> Int64.of_int th.r_lane
  | Warpid -> Int64.of_int env.Gsim.Exec.warp_in_cta

let ref_operand env th = function
  | Reg r -> th.r_regs.(r)
  | Imm i -> i
  | Fimm f -> Int64.bits_of_float f
  | Sreg s -> ref_sreg env th s

(* Float operands: register / float-immediate bits are IEEE patterns;
   integer immediates are taken by value. *)
let ref_float env th = function
  | Imm i -> Int64.to_float i
  | op -> Int64.float_of_bits (ref_operand env th op)

(* The reference's scalar semantics, written out here rather than taken
   from Exec, whose lane loops share its scalar functions: a wrong
   mapping there (a conversion kind, a comparison order, where F32
   rounding applies) then shows as a mismatch.  Only [mulhi64] is
   shared; "mulhi64 matches 128-bit reference" checks it. *)
let ref_round_f32 f = Int32.float_of_bits (Int32.bits_of_float f)

let ref_iop op a b =
  match op with
  | Add -> Int64.add a b
  | Sub -> Int64.sub a b
  | Mul -> Int64.mul a b
  | Mulhi -> Gsim.Exec.mulhi64 a b
  | Div -> if b = 0L then 0L else Int64.div a b
  | Rem -> if b = 0L then 0L else Int64.rem a b
  | Min -> if Int64.compare a b <= 0 then a else b
  | Max -> if Int64.compare a b >= 0 then a else b
  | Band -> Int64.logand a b
  | Bor -> Int64.logor a b
  | Bxor -> Int64.logxor a b
  | Shl -> Int64.shift_left a (Int64.to_int b land 63)
  | Shr -> Int64.shift_right_logical a (Int64.to_int b land 63)

let ref_fop op ty a b =
  let r =
    match op with
    | Fadd -> a +. b
    | Fsub -> a -. b
    | Fmul -> a *. b
    | Fdiv -> a /. b
    | Fmin -> Float.min a b
    | Fmax -> Float.max a b
  in
  if ty = F32 then ref_round_f32 r else r

let ref_funary op ty a =
  let r =
    match op with
    | Sqrt -> Float.sqrt a
    | Rsqrt -> 1.0 /. Float.sqrt a
    | Rcp -> 1.0 /. a
    | Sin -> Float.sin a
    | Cos -> Float.cos a
    | Ex2 -> Float.pow 2.0 a
    | Lg2 -> Float.log a /. Float.log 2.0
  in
  if ty = F32 then ref_round_f32 r else r

let ref_cvt ~dst_ty ~src_ty v =
  let fval () = Int64.float_of_bits v in
  match (dtype_is_float dst_ty, dtype_is_float src_ty) with
  | true, true ->
      if dst_ty = F32 then Int64.bits_of_float (ref_round_f32 (fval ())) else v
  | true, false ->
      let f = Int64.to_float v in
      Int64.bits_of_float (if dst_ty = F32 then ref_round_f32 f else f)
  | false, true -> Int64.of_float (fval ())
  | false, false -> (
      (* narrow with the destination's signedness *)
      match dst_ty with
      | U8 -> Int64.logand v 0xFFL
      | S8 -> Int64.of_int ((Int64.to_int (Int64.logand v 0xFFL) lsl 55) asr 55)
      | U16 -> Int64.logand v 0xFFFFL
      | S16 ->
          Int64.of_int ((Int64.to_int (Int64.logand v 0xFFFFL) lsl 47) asr 47)
      | U32 -> Int64.logand v 0xFFFFFFFFL
      | S32 -> Int64.of_int32 (Int64.to_int32 v)
      | U64 | S64 -> v
      | F32 | F64 -> assert false)

let ref_cmp c ty a b =
  let r =
    if dtype_is_float ty then
      Float.compare (Int64.float_of_bits a) (Int64.float_of_bits b)
    else if dtype_is_signed ty then Int64.compare a b
    else Int64.unsigned_compare a b
  in
  match c with
  | Eq -> r = 0
  | Ne -> r <> 0
  | Lt -> r < 0
  | Le -> r <= 0
  | Gt -> r > 0
  | Ge -> r >= 0

let ref_atom op old v =
  match op with
  | Aadd -> Int64.add old v
  | Amin -> if Int64.compare old v <= 0 then old else v
  | Amax -> if Int64.compare old v >= 0 then old else v
  | Aexch | Acas -> v

let ref_exec_alu env th (i : Ptx.Instr.t) =
  let ev = ref_operand env th and fl = ref_float env th in
  match i with
  | Mov (d, s) -> th.r_regs.(d) <- ev s
  | Iop (op, d, a, b) -> th.r_regs.(d) <- ref_iop op (ev a) (ev b)
  | Mad (d, a, b, c) ->
      th.r_regs.(d) <- Int64.add (Int64.mul (ev a) (ev b)) (ev c)
  | Fop (op, ty, d, a, b) ->
      th.r_regs.(d) <- Int64.bits_of_float (ref_fop op ty (fl a) (fl b))
  | Fma (ty, d, a, b, c) ->
      let r = (fl a *. fl b) +. fl c in
      th.r_regs.(d) <-
        Int64.bits_of_float (if ty = F32 then ref_round_f32 r else r)
  | Funary (op, ty, d, a) ->
      th.r_regs.(d) <- Int64.bits_of_float (ref_funary op ty (fl a))
  | Cvt (dst_ty, src_ty, d, a) ->
      th.r_regs.(d) <- ref_cvt ~dst_ty ~src_ty (ev a)
  | Setp (c, ty, p, a, b) -> th.r_preds.(p) <- ref_cmp c ty (ev a) (ev b)
  | Selp (d, a, b, p) -> th.r_regs.(d) <- (if th.r_preds.(p) then ev a else ev b)
  | Pnot (d, s) -> th.r_preds.(d) <- not th.r_preds.(s)
  | Pand (d, a, b) -> th.r_preds.(d) <- th.r_preds.(a) && th.r_preds.(b)
  | Por (d, a, b) -> th.r_preds.(d) <- th.r_preds.(a) || th.r_preds.(b)
  | Ld_param _ | Ld _ | St _ | Atom _ | Bra _ | Bar | Exit | Label _ ->
      invalid_arg "ref_exec_alu: not an ALU instruction"

let o_nregs = 6
let o_npregs = 3

(* One executor input: a warp of [width] lanes, their registers and
   predicates, the active mask, the instruction, and a branch guard
   whose taken mask is read back after the instruction. *)
type case = {
  width : int;
  instr : Ptx.Instr.t;
  regs : int64 array array; (* lane -> register words *)
  preds : bool array array; (* lane -> predicates *)
  mask : int;
  guard : bool * int;
}

let o_env =
  { Gsim.Exec.ctaid = (2, 5, 1); ntid = (48, 3, 2); nctaid = (9, 7, 3);
    warp_in_cta = 3 }

let o_tid lane = (lane + 7, lane / 5, lane mod 3)

(* Register words with the edges the executor must carry bit for bit:
   NaNs (quiet, signalling, negative), -0.0 (= min_int), subnormals,
   infinities, integer extremes and u32 / narrow-type boundaries. *)
let edge_words =
  [| 0L; 1L; -1L; 2L; 3L; 7L; 31L; 32L; 63L; 64L; 65L; Int64.min_int;
     Int64.max_int; 0xFFFFFFFFL; 0x7FFFFFFFL; 0x80000000L; 0x100000000L;
     0xFFFFFFFF00000000L; 0xFFFFFFFF80000000L; 0xFFL; 0x80L; 0xFFFFL;
     0x8000L; -2147483648L; 0x7FF8000000000000L; 0x7FF0000000000001L;
     0xFFF8000000000000L; 0x7FF0000000000000L; 0xFFF0000000000000L;
     0x000FFFFFFFFFFFFFL; 0x8000000000000001L; 0x0000000000000010L;
     Int64.bits_of_float 1.5; Int64.bits_of_float (-2.25);
     Int64.bits_of_float 0.1; Int64.bits_of_float 1e300;
     Int64.bits_of_float 1e-300; Int64.bits_of_float 3.4028234663852886e38;
     Int64.bits_of_float 1.401298464324817e-45; Int64.bits_of_float 16777217.0;
     Int64.bits_of_float 4294967296.0; Int64.bits_of_float (-2147483649.0);
     Int64.bits_of_float 9.3e18; Int64.bits_of_float (-0.5) |]

let edge_floats =
  [| 0.0; -0.0; 1.0; -1.0; 0.5; 2.0; Float.nan; Float.infinity;
     Float.neg_infinity; 4.9e-324; -4.9e-324; 2.2250738585072014e-308;
     1.401298464324817e-45; 3.4028234663852886e38; 1e300; 16777217.0;
     -2147483648.5; 9.3e18 |]

let gen_word =
  QCheck.Gen.(
    frequency
      [ (5, oneofa edge_words); (2, ui64); (1, map Int64.of_int small_signed_int);
        (2, map Int64.bits_of_float float);
        (1, map (fun f -> Int64.bits_of_float (Gsim.Exec.round_f32 f)) float) ])

let dtypes = [| U8; S8; U16; S16; U32; S32; U64; S64; F32; F64 |]
let iops = [| Add; Sub; Mul; Mulhi; Div; Rem; Min; Max; Band; Bor; Bxor; Shl; Shr |]
let fops = [| Fadd; Fsub; Fmul; Fdiv; Fmin; Fmax |]
let funaries = [| Sqrt; Rsqrt; Rcp; Sin; Cos; Ex2; Lg2 |]
let cmps = [| Eq; Ne; Lt; Le; Gt; Ge |]

let sregs =
  [| Tid X; Tid Y; Tid Z; Ntid X; Ntid Y; Ntid Z; Ctaid X; Ctaid Y; Ctaid Z;
     Nctaid X; Nctaid Y; Nctaid Z; Laneid; Warpid |]

let gen_operand =
  QCheck.Gen.(
    frequency
      [ (6, map (fun r -> Reg r) (int_bound (o_nregs - 1)));
        (3, map (fun v -> Imm v) gen_word);
        (1, map (fun f -> Fimm f) (oneofa edge_floats));
        (1, map (fun s -> Sreg s) (oneofa sregs)) ])

let gen_instr : Ptx.Instr.t QCheck.Gen.t =
  let open QCheck.Gen in
  let reg = int_bound (o_nregs - 1) and pred = int_bound (o_npregs - 1) in
  let op = gen_operand and ty = oneofa dtypes in
  oneof
    [ map2 (fun d a -> Ptx.Instr.Mov (d, a)) reg op;
      (let* o = oneofa iops and* d = reg and* a = op and* b = op in
       return (Ptx.Instr.Iop (o, d, a, b)));
      (let* d = reg and* a = op and* b = op and* c = op in
       return (Ptx.Instr.Mad (d, a, b, c)));
      (let* o = oneofa fops and* t = ty and* d = reg and* a = op and* b = op in
       return (Ptx.Instr.Fop (o, t, d, a, b)));
      (let* t = ty and* d = reg and* a = op and* b = op and* c = op in
       return (Ptx.Instr.Fma (t, d, a, b, c)));
      (let* o = oneofa funaries and* t = ty and* d = reg and* a = op in
       return (Ptx.Instr.Funary (o, t, d, a)));
      (let* dt = ty and* st = ty and* d = reg and* a = op in
       return (Ptx.Instr.Cvt (dt, st, d, a)));
      (let* c = oneofa cmps and* t = ty and* p = pred and* a = op and* b = op in
       return (Ptx.Instr.Setp (c, t, p, a, b)));
      (let* d = reg and* a = op and* b = op and* p = pred in
       return (Ptx.Instr.Selp (d, a, b, p)));
      map2 (fun d s -> Ptx.Instr.Pnot (d, s)) pred pred;
      map3 (fun d a b -> Ptx.Instr.Pand (d, a, b)) pred pred pred;
      map3 (fun d a b -> Ptx.Instr.Por (d, a, b)) pred pred pred ]

let gen_mask width =
  let full = Gsim.Warp.full_mask width in
  QCheck.Gen.(
    frequency
      [ (1, return 0); (3, return full);
        (5, map (fun m -> m land full) (int_bound (1 lsl 30 - 1)
             >>= fun lo -> map (fun hi -> lo lor (hi lsl 30)) (int_bound 3)));
        (1, map (fun l -> 1 lsl l) (int_bound (width - 1))) ])

(* Some registers are zero on every lane, so the executor meets
   registers it has never written. *)
let gen_state width instr =
  let open QCheck.Gen in
  let* regs = array_repeat width (array_repeat o_nregs gen_word)
  and* zeroed = array_repeat o_nregs (map (fun k -> k = 0) (int_bound 3))
  and* preds = array_repeat width (array_repeat o_npregs bool)
  and* mask = gen_mask width
  and* guard = pair bool (int_bound (o_npregs - 1)) in
  let regs =
    Array.map (Array.mapi (fun r v -> if zeroed.(r) then 0L else v)) regs
  in
  return { width; instr; regs; preds; mask; guard }

let gen_case =
  QCheck.Gen.(
    let* width = oneofl [ 32; 16; 5 ] and* instr = gen_instr in
    gen_state width instr)

let print_case c =
  Printf.sprintf "%s (width %d, mask 0x%x, guard %s%%p%d)"
    (Ptx.Instr.to_string c.instr) c.width c.mask
    (if fst c.guard then "" else "!") (snd c.guard)

(* The executor under test, through its public surface: build a warp's
   lanes from [c], run the compiled instruction under [c.mask], and read
   back every lane's registers and predicates and the guard's taken
   mask.  Only nonzero words are written, so a register that is zero on
   every lane has never been written when the instruction runs. *)
let run_executor c =
  let module E = Gsim.Exec in
  let st = E.create_state o_env ~width:c.width ~nregs:o_nregs ~npregs:o_npregs in
  for lane = 0 to c.width - 1 do
    E.set_tid st lane (o_tid lane);
    Array.iteri
      (fun r v -> if not (Int64.equal v 0L) then E.set_reg st r lane v)
      c.regs.(lane);
    Array.iteri (fun p b -> E.set_pred st p lane b) c.preds.(lane)
  done;
  E.compile_alu c.instr st c.mask;
  ( Array.init c.width (fun lane ->
        Array.init o_nregs (fun r -> E.get_reg st r lane)),
    Array.init c.width (fun lane ->
        Array.init o_npregs (fun p -> E.get_pred st p lane)),
    E.taken_mask st c.guard c.mask )

let run_reference c =
  let threads =
    Array.init c.width (fun lane ->
        { r_regs = Array.copy c.regs.(lane); r_preds = Array.copy c.preds.(lane);
          r_tid = o_tid lane; r_lane = lane })
  in
  Array.iteri
    (fun lane th ->
      if c.mask land (1 lsl lane) <> 0 then ref_exec_alu o_env th c.instr)
    threads;
  let pol, p = c.guard in
  let taken = ref 0 in
  Array.iteri
    (fun lane th ->
      if c.mask land (1 lsl lane) <> 0 && th.r_preds.(p) = pol then
        taken := !taken lor (1 lsl lane))
    threads;
  ( Array.map (fun th -> th.r_regs) threads,
    Array.map (fun th -> th.r_preds) threads,
    !taken )

(* Every lane's registers (bit for bit) and predicates must match the
   reference; an inactive lane must keep its input. *)
let check_case c =
  let e_regs, e_preds, e_taken = run_executor c in
  let r_regs, r_preds, r_taken = run_reference c in
  for lane = 0 to c.width - 1 do
    let active = c.mask land (1 lsl lane) <> 0 in
    for r = 0 to o_nregs - 1 do
      if not (Int64.equal e_regs.(lane).(r) r_regs.(lane).(r)) then
        QCheck.Test.fail_reportf "%s: lane %d%s r%d = 0x%Lx, reference 0x%Lx"
          (print_case c) lane
          (if active then "" else " (inactive)")
          r e_regs.(lane).(r) r_regs.(lane).(r);
      if (not active) && not (Int64.equal e_regs.(lane).(r) c.regs.(lane).(r))
      then
        QCheck.Test.fail_reportf "%s: inactive lane %d r%d written"
          (print_case c) lane r
    done;
    for p = 0 to o_npregs - 1 do
      if e_preds.(lane).(p) <> r_preds.(lane).(p) then
        QCheck.Test.fail_reportf "%s: lane %d%s p%d = %b, reference %b"
          (print_case c) lane
          (if active then "" else " (inactive)")
          p e_preds.(lane).(p) r_preds.(lane).(p);
      if (not active) && e_preds.(lane).(p) <> c.preds.(lane).(p) then
        QCheck.Test.fail_reportf "%s: inactive lane %d p%d written"
          (print_case c) lane p
    done
  done;
  if e_taken <> r_taken then
    QCheck.Test.fail_reportf "%s: taken mask 0x%x, reference 0x%x"
      (print_case c) e_taken r_taken;
  true

let prop_executor_oracle =
  QCheck.Test.make ~count:2000 ~name:"compile_alu matches the per-lane reference"
    (QCheck.make ~print:print_case gen_case)
    check_case

(* Every instruction shape once, so each specialised body is reached
   whatever the random draws: every variant and operation, every dtype
   for Cvt/Setp/Fop/Fma/Funary, and every operand kind (Reg, Imm, Fimm,
   Sreg) in every position, each on a full, a partial and an empty
   mask. *)
let all_shapes () =
  let reg = 1 and pred = 2 in
  let kinds = [ Reg 3; Reg 1; Imm 0xFFFFFFFFL; Fimm (-0.0); Sreg (Tid X) ] in
  let ops2 f = List.concat_map (fun a -> List.map (fun b -> f a b) kinds) kinds in
  let ops3 f = List.concat_map (fun a -> ops2 (fun b c -> f a b c)) kinds in
  let each a f = List.concat_map f (Array.to_list a) in
  List.concat
    [ List.map (fun a -> Ptx.Instr.Mov (reg, a))
        (kinds @ List.map (fun s -> Sreg s) (Array.to_list sregs));
      each iops (fun o -> ops2 (fun a b -> Ptx.Instr.Iop (o, reg, a, b)));
      ops3 (fun a b c -> Ptx.Instr.Mad (reg, a, b, c));
      each fops (fun o ->
          each dtypes (fun t -> ops2 (fun a b -> Ptx.Instr.Fop (o, t, reg, a, b))));
      each dtypes (fun t -> ops3 (fun a b c -> Ptx.Instr.Fma (t, reg, a, b, c)));
      each funaries (fun o ->
          each dtypes (fun t ->
              List.map (fun a -> Ptx.Instr.Funary (o, t, reg, a)) kinds));
      each dtypes (fun dt ->
          each dtypes (fun st ->
              List.map (fun a -> Ptx.Instr.Cvt (dt, st, reg, a)) kinds));
      each cmps (fun c ->
          each dtypes (fun t -> ops2 (fun a b -> Ptx.Instr.Setp (c, t, pred, a, b))));
      ops2 (fun a b -> Ptx.Instr.Selp (reg, a, b, 0));
      [ Ptx.Instr.Pnot (pred, 0); Pnot (0, 0); Pand (pred, 0, 1); Pand (1, 1, 1);
        Por (pred, 0, 1); Por (0, 2, 0) ] ]

let test_every_shape () =
  let rand = Random.State.make [| 20 |] in
  let states =
    Array.init 8 (fun i ->
        QCheck.Gen.generate1 ~rand
          (gen_state (if i land 1 = 0 then 32 else 7) (Ptx.Instr.Pnot (0, 0))))
  in
  List.iteri
    (fun k instr ->
      let c = { (states.(k mod Array.length states)) with instr } in
      List.iter
        (fun mask -> ignore (check_case { c with mask }))
        [ Gsim.Warp.full_mask c.width; c.mask; 0 ])
    (all_shapes ())

(* Loads, stores and atomics against the per-lane reference: addresses
   from register, immediate and special-register bases (colliding
   often, so lane order shows), every dtype, every atomic op. *)
type mem_case = {
  m_kind : [ `Load | `Store | `Atomic of atomop ];
  m_ty : dtype;
  m_dst : int;
  m_addr : addr;
  m_val : operand;
  m_case : case; (* lanes, registers, mask; its instruction is unused *)
}

let mem_size = 4096

let gen_mem_case =
  let open QCheck.Gen in
  let small = map Int64.of_int (int_bound 63) in
  let base =
    frequency
      [ (4, map (fun r -> Reg r) (int_bound (o_nregs - 1)));
        (1, map (fun v -> Imm v) small);
        (1, map (fun s -> Sreg s) (oneofl [ Tid X; Laneid; Ctaid Y ])) ]
  in
  let* width = oneofl [ 32; 5 ]
  and* m_kind =
    oneofl [ `Load; `Store; `Atomic Aadd; `Atomic Amin; `Atomic Amax;
             `Atomic Aexch; `Atomic Acas ]
  and* m_ty = oneofa dtypes
  and* m_dst = int_bound (o_nregs - 1)
  and* abase = base
  and* aoffset = int_bound 1024
  and* m_val = gen_operand in
  let* c = gen_state width (Ptx.Instr.Pnot (0, 0)) in
  (* register words in [0, 64): in-bounds, colliding bases *)
  let regs = Array.map (Array.map (fun v -> Int64.logand v 63L)) c.regs in
  return
    { m_kind; m_ty; m_dst; m_addr = { abase; aoffset }; m_val;
      m_case = { c with regs } }

let mem_image () =
  let m = Gsim.Mem.create mem_size in
  for a = 0 to mem_size - 1 do
    Gsim.Mem.store m U8 a (Int64.of_int ((a * 37) lxor (a lsr 3)))
  done;
  m

let check_mem_case mc =
  let c = mc.m_case in
  let show () =
    Printf.sprintf "%s %s r%d [%s+%d] (width %d, mask 0x%x)"
      (match mc.m_kind with
      | `Load -> "ld" | `Store -> "st" | `Atomic _ -> "atom")
      (Ptx.Types.string_of_dtype mc.m_ty) mc.m_dst
      (Format.asprintf "%a" Ptx.Types.pp_operand mc.m_addr.abase)
      mc.m_addr.aoffset c.width c.mask
  in
  (* the executor *)
  let module E = Gsim.Exec in
  let st = E.create_state o_env ~width:c.width ~nregs:o_nregs ~npregs:o_npregs in
  for lane = 0 to c.width - 1 do
    E.set_tid st lane (o_tid lane);
    Array.iteri
      (fun r v -> if not (Int64.equal v 0L) then E.set_reg st r lane v)
      c.regs.(lane)
  done;
  let e_mem = mem_image () and e_addrs = Array.make c.width (-1) in
  (match mc.m_kind with
  | `Load -> E.load st c.mask e_mem mc.m_ty mc.m_dst mc.m_addr e_addrs
  | `Store -> E.store st c.mask e_mem mc.m_ty mc.m_addr mc.m_val e_addrs
  | `Atomic op ->
      E.atomic st c.mask e_mem op mc.m_ty mc.m_dst mc.m_addr mc.m_val e_addrs);
  (* the reference, lane by lane *)
  let r_mem = mem_image () and r_addrs = Array.make c.width (-1) in
  let threads =
    Array.init c.width (fun lane ->
        { r_regs = Array.copy c.regs.(lane); r_preds = [||];
          r_tid = o_tid lane; r_lane = lane })
  in
  Array.iteri
    (fun lane th ->
      if c.mask land (1 lsl lane) <> 0 then begin
        let addr =
          Int64.to_int (ref_operand o_env th mc.m_addr.abase) + mc.m_addr.aoffset
        in
        r_addrs.(lane) <- addr;
        match mc.m_kind with
        | `Load -> th.r_regs.(mc.m_dst) <- Gsim.Mem.load r_mem mc.m_ty addr
        | `Store ->
            Gsim.Mem.store r_mem mc.m_ty addr (ref_operand o_env th mc.m_val)
        | `Atomic op ->
            let v = ref_operand o_env th mc.m_val in
            let old = Gsim.Mem.load r_mem mc.m_ty addr in
            Gsim.Mem.store r_mem mc.m_ty addr (ref_atom op old v);
            th.r_regs.(mc.m_dst) <- old
      end)
    threads;
  for lane = 0 to c.width - 1 do
    if c.mask land (1 lsl lane) <> 0 && e_addrs.(lane) <> r_addrs.(lane) then
      QCheck.Test.fail_reportf "%s: lane %d address %d, reference %d" (show ())
        lane e_addrs.(lane) r_addrs.(lane);
    for r = 0 to o_nregs - 1 do
      let e = E.get_reg st r lane and w = threads.(lane).r_regs.(r) in
      if not (Int64.equal e w) then
        QCheck.Test.fail_reportf "%s: lane %d r%d = 0x%Lx, reference 0x%Lx"
          (show ()) lane r e w
    done
  done;
  for a = 0 to mem_size - 1 do
    let e = Gsim.Mem.load e_mem U8 a and w = Gsim.Mem.load r_mem U8 a in
    if not (Int64.equal e w) then
      QCheck.Test.fail_reportf "%s: memory byte %d = %Ld, reference %Ld"
        (show ()) a e w
  done;
  true

let prop_memory_oracle =
  QCheck.Test.make ~count:500
    ~name:"load/store/atomic match the per-lane reference"
    (QCheck.make gen_mem_case) check_mem_case

(* Every compiled shape runs without allocating: words stay unboxed in
   the register rows. *)
let test_no_allocation () =
  if Sys.backend_type = Sys.Native then begin
    let st =
      Gsim.Exec.create_state o_env ~width:32 ~nregs:o_nregs ~npregs:o_npregs
    in
    List.iter
      (fun instr ->
        let run = Gsim.Exec.compile_alu instr in
        let before = Gc.minor_words () in
        for _ = 1 to 10 do
          run st 0xFFFFFFFF
        done;
        let words = Gc.minor_words () -. before in
        if words > 0. then
          Alcotest.failf "%s allocates %.0f words in 10 runs"
            (Ptx.Instr.to_string instr) words)
      (all_shapes ())
  end

(* ---------------- typed memory ---------------- *)

let test_mem_typed_access () =
  let m = Gsim.Mem.create 64 in
  Gsim.Mem.store m S8 0 (-5L);
  Alcotest.(check int64) "s8 sign-extends on load" (-5L) (Gsim.Mem.load m S8 0);
  Alcotest.(check int64) "u8 zero-extends" 251L (Gsim.Mem.load m U8 0);
  Gsim.Mem.store m U32 4 0xDEADBEEFL;
  Alcotest.(check int64) "u32" 0xDEADBEEFL (Gsim.Mem.load m U32 4);
  Alcotest.(check int64) "s32 sign-extends" (Int64.of_int32 0xDEADBEEFl)
    (Gsim.Mem.load m S32 4);
  Gsim.Mem.set_f32 m 8 3.25;
  Alcotest.(check (float 0.0)) "f32 round-trip" 3.25 (Gsim.Mem.get_f32 m 8);
  Gsim.Mem.set_f64 m 16 Float.pi;
  Alcotest.(check (float 0.0)) "f64 round-trip" Float.pi (Gsim.Mem.get_f64 m 16);
  Gsim.Mem.set_i64 m 24 Int64.min_int;
  Alcotest.(check int64) "i64 round-trip" Int64.min_int (Gsim.Mem.get_i64 m 24)

(* out-of-bounds accesses raise a structured mem-fault, not a bare
   Invalid_argument *)
let test_mem_bounds () =
  let m = Gsim.Mem.create 16 in
  let expect_fault name range f =
    match f () with
    | _ -> Alcotest.failf "%s: expected a mem fault" name
    | exception Gsim.Sim_error.Error e ->
        Alcotest.(check bool) (name ^ ": kind") true
          (e.Gsim.Sim_error.e_kind = Gsim.Sim_error.Mem_fault);
        let msg = Gsim.Sim_error.to_string e in
        let contains sub =
          let n = String.length sub and l = String.length msg in
          let rec go i =
            i + n <= l && (String.sub msg i n = sub || go (i + 1))
          in
          go 0
        in
        Alcotest.(check bool) (name ^ ": names the range") true
          (contains range)
  in
  expect_fault "read past end" "[13,+4)" (fun () ->
      Gsim.Mem.load m U32 13);
  expect_fault "negative address" "[-1,+1)" (fun () ->
      Gsim.Mem.load m U8 (-1))

let prop_mem_roundtrip_f32 =
  QCheck.Test.make ~count:300 ~name:"f32 memory round-trip"
    QCheck.(float_bound_exclusive 1e6)
    (fun f ->
      let m = Gsim.Mem.create 8 in
      Gsim.Mem.set_f32 m 0 f;
      Gsim.Mem.get_f32 m 0 = Gsim.Exec.round_f32 f)

(* ---------------- bitset ---------------- *)

let prop_bitset_membership =
  QCheck.Test.make ~count:300 ~name:"bitset add/mem/remove"
    QCheck.(pair (int_range 1 500) (list (int_bound 499)))
    (fun (n, xs) ->
      let xs = List.filter (fun x -> x < n) xs in
      let s = Dataflow.Bitset.create n in
      List.iter (Dataflow.Bitset.add s) xs;
      let all_in = List.for_all (fun x -> Dataflow.Bitset.mem s x) xs in
      let elements_sorted =
        Dataflow.Bitset.elements s = List.sort_uniq compare xs
      in
      List.iter (Dataflow.Bitset.remove s) xs;
      all_in && elements_sorted && Dataflow.Bitset.cardinal s = 0)

let prop_bitset_union_diff =
  QCheck.Test.make ~count:300 ~name:"bitset union/diff laws"
    QCheck.(pair (list (int_bound 199)) (list (int_bound 199)))
    (fun (xs, ys) ->
      let mk l = Dataflow.Bitset.of_list 200 l in
      let a = mk xs and b = mk ys in
      let u = Dataflow.Bitset.copy a in
      ignore (Dataflow.Bitset.union_into ~dst:u ~src:b);
      let expected_union =
        List.sort_uniq compare (xs @ ys)
      in
      let d = Dataflow.Bitset.copy u in
      Dataflow.Bitset.diff_into ~dst:d ~src:b;
      let expected_diff =
        List.filter (fun x -> not (List.mem x ys)) (List.sort_uniq compare xs)
      in
      Dataflow.Bitset.elements u = expected_union
      && Dataflow.Bitset.elements d = expected_diff)

let test_bitset_union_changed () =
  let a = Dataflow.Bitset.of_list 64 [ 1; 2 ] in
  let b = Dataflow.Bitset.of_list 64 [ 2; 3 ] in
  Alcotest.(check bool) "union reports change" true
    (Dataflow.Bitset.union_into ~dst:a ~src:b);
  Alcotest.(check bool) "idempotent union reports no change" false
    (Dataflow.Bitset.union_into ~dst:a ~src:b)

let tests =
  [
    Alcotest.test_case "special registers" `Quick test_sreg_values;
    Alcotest.test_case "address evaluation" `Quick test_eval_addr;
    Alcotest.test_case "integer ops" `Quick test_iop_semantics;
    QCheck_alcotest.to_alcotest prop_mulhi;
    Alcotest.test_case "comparison signedness" `Quick test_cmp_signedness;
    Alcotest.test_case "conversions" `Quick test_cvt;
    Alcotest.test_case "atomic semantics" `Quick test_atom_semantics;
    Alcotest.test_case "f32 rounding" `Quick test_f32_rounding;
    QCheck_alcotest.to_alcotest prop_executor_oracle;
    Alcotest.test_case "executor: every instruction shape" `Quick
      test_every_shape;
    Alcotest.test_case "executor: no allocation" `Quick test_no_allocation;
    QCheck_alcotest.to_alcotest prop_memory_oracle;
    Alcotest.test_case "typed memory" `Quick test_mem_typed_access;
    Alcotest.test_case "memory bounds" `Quick test_mem_bounds;
    QCheck_alcotest.to_alcotest prop_mem_roundtrip_f32;
    QCheck_alcotest.to_alcotest prop_bitset_membership;
    QCheck_alcotest.to_alcotest prop_bitset_union_diff;
    Alcotest.test_case "bitset union change reporting" `Quick
      test_bitset_union_changed;
  ]

let () = Alcotest.run "exec" [ ("exec", tests) ]
