(* Functional semantics of the ALU instructions, and the warp register
   file they execute on.

   Registers are 64-bit; floating values are stored as IEEE-754 bit
   patterns (widened to double bits in registers, rounded through 32
   bits for F32 memory traffic).  Integer division by zero yields 0, as
   a total stand-in for the undefined PTX behaviour. *)

open Ptx.Types

(* Per-warp execution environment (identical for all lanes). *)
type env = {
  ctaid : int * int * int;
  ntid : int * int * int;
  nctaid : int * int * int;
  warp_in_cta : int;
}

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* A warp's architectural state.  Register [r] is the row
   [rows.(r)]: [width] 64-bit slots, lane [l] at byte [8 * l].  Words
   live unboxed in the bytes, so a register write allocates nothing and
   needs no write barrier.  A row is 8 * width bytes, well under the
   minor heap's largest block, so a short-lived CTA's registers die
   young (a flat file per warp would be allocated straight into the
   major heap).  [n_staged] staging rows follow the registers: the
   compiled executor writes a non-register operand's per-lane values
   there.  Predicate register [p] is the lane mask [preds.(p)].  [tid]
   holds each lane's thread coordinates, x row then y then z. *)
type state = {
  env : env;
  width : int;
  rows : Bytes.t array;
  stage : int; (* index of the first staging row *)
  preds : int array;
  tid : int array;
}

let n_staged = 3

let create_state env ~width ~nregs ~npregs =
  {
    env;
    width;
    rows =
      Array.init (nregs + n_staged) (fun _ -> Bytes.make (width * 8) '\000');
    stage = nregs;
    preds = Array.make npregs 0;
    tid = Array.make (3 * width) 0;
  }

let width st = st.width

let set_tid st lane (x, y, z) =
  st.tid.(lane) <- x;
  st.tid.(st.width + lane) <- y;
  st.tid.((2 * st.width) + lane) <- z

let get_reg st r lane = get64 st.rows.(r) (lane * 8)
let set_reg st r lane v = set64 st.rows.(r) (lane * 8) v
let get_pred st p lane = st.preds.(p) land (1 lsl lane) <> 0

let set_pred st p lane b =
  let bit = 1 lsl lane in
  st.preds.(p) <-
    (if b then st.preds.(p) lor bit else st.preds.(p) land lnot bit)

let taken_mask st (polarity, p) mask =
  if polarity then st.preds.(p) land mask else lnot st.preds.(p) land mask

let dim_of (x, y, z) = function X -> x | Y -> y | Z -> z
let dim_row = function X -> 0 | Y -> 1 | Z -> 2

let sreg_int st lane = function
  | Tid d -> st.tid.((dim_row d * st.width) + lane)
  | Ntid d -> dim_of st.env.ntid d
  | Ctaid d -> dim_of st.env.ctaid d
  | Nctaid d -> dim_of st.env.nctaid d
  | Laneid -> lane
  | Warpid -> st.env.warp_in_cta

(* ---------------- scalar semantics ----------------

   The [@inline] functions below are the single definition of each
   operation: the compiled lane loops inline them, so their int64 and
   float temporaries stay unboxed, and the exported names give other
   callers (the workloads' host-side checks, the tests' reference
   executor) the same semantics. *)

(* High 64 bits of the signed 64x64 product, via 32-bit halves. *)
let[@inline] mulhi64 a b =
  let mask = 0xFFFFFFFFL in
  let al = Int64.logand a mask and ah = Int64.shift_right a 32 in
  let bl = Int64.logand b mask and bh = Int64.shift_right b 32 in
  let ll = Int64.mul al bl in
  let lh = Int64.mul al bh in
  let hl = Int64.mul ah bl in
  let hh = Int64.mul ah bh in
  let mid = Int64.add (Int64.add lh hl) (Int64.shift_right_logical ll 32) in
  Int64.add hh (Int64.shift_right mid 32)

let[@inline] exec_iop op a b =
  match op with
  | Add -> Int64.add a b
  | Sub -> Int64.sub a b
  | Mul -> Int64.mul a b
  | Mulhi -> mulhi64 a b
  | Div -> if b = 0L then 0L else Int64.div a b
  | Rem -> if b = 0L then 0L else Int64.rem a b
  | Min -> if Int64.compare a b <= 0 then a else b
  | Max -> if Int64.compare a b >= 0 then a else b
  | Band -> Int64.logand a b
  | Bor -> Int64.logor a b
  | Bxor -> Int64.logxor a b
  | Shl -> Int64.shift_left a (Int64.to_int b land 63)
  | Shr -> Int64.shift_right_logical a (Int64.to_int b land 63)

let[@inline] round_f32 f = Int32.float_of_bits (Int32.bits_of_float f)

let[@inline] fop_f32 op f32 a b =
  let r =
    match op with
    | Fadd -> a +. b
    | Fsub -> a -. b
    | Fmul -> a *. b
    | Fdiv -> a /. b
    | Fmin -> Float.min a b
    | Fmax -> Float.max a b
  in
  if f32 then round_f32 r else r

let exec_fop op ty a b = fop_f32 op (ty = F32) a b

let[@inline] funary_f32 op f32 a =
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
  if f32 then round_f32 r else r

(* What a conversion does, resolved from its two dtypes. *)
type cvt =
  | Keep
  | Round_f32  (** float to F32 *)
  | Of_int of bool  (** integer to float; rounded to F32 when true *)
  | To_int  (** float to integer, unnarrowed *)
  | Narrow of dtype  (** integer to a narrower integer *)

let cvt_of ~dst_ty ~src_ty =
  match (dtype_is_float dst_ty, dtype_is_float src_ty) with
  | true, true -> if dst_ty = F32 then Round_f32 else Keep
  | true, false -> Of_int (dst_ty = F32)
  | false, true -> To_int
  | false, false -> (
      match dst_ty with
      | U64 | S64 | F32 | F64 -> Keep
      | U8 | S8 | U16 | S16 | U32 | S32 -> Narrow dst_ty)

(* Narrowing keeps the destination's signedness. *)
let[@inline] apply_cvt k v =
  match k with
  | Keep -> v
  | Round_f32 -> Int64.bits_of_float (round_f32 (Int64.float_of_bits v))
  | Of_int f32 ->
      let f = Int64.to_float v in
      Int64.bits_of_float (if f32 then round_f32 f else f)
  | To_int -> Int64.of_float (Int64.float_of_bits v)
  | Narrow ty -> (
      match ty with
      | U8 -> Int64.logand v 0xFFL
      | S8 -> Int64.of_int ((Int64.to_int (Int64.logand v 0xFFL) lsl 55) asr 55)
      | U16 -> Int64.logand v 0xFFFFL
      | S16 ->
          Int64.of_int ((Int64.to_int (Int64.logand v 0xFFFFL) lsl 47) asr 47)
      | U32 -> Int64.logand v 0xFFFFFFFFL
      | S32 -> Int64.of_int32 (Int64.to_int32 v)
      | U64 | S64 | F32 | F64 -> v)

let exec_cvt ~dst_ty ~src_ty v = apply_cvt (cvt_of ~dst_ty ~src_ty) v

(* How a comparison orders its operands, resolved from its dtype. *)
type order = Float_order | Signed | Unsigned

let order_of ty =
  if dtype_is_float ty then Float_order
  else if dtype_is_signed ty then Signed
  else Unsigned

let[@inline] compare_cmp c ord a b =
  let r =
    match ord with
    | Float_order ->
        Float.compare (Int64.float_of_bits a) (Int64.float_of_bits b)
    | Signed -> Int64.compare a b
    | Unsigned -> Int64.unsigned_compare a b
  in
  match c with
  | Eq -> r = 0
  | Ne -> r <> 0
  | Lt -> r < 0
  | Le -> r <= 0
  | Gt -> r > 0
  | Ge -> r >= 0

let exec_cmp c ty a b = compare_cmp c (order_of ty) a b

let exec_atom op old v =
  match op with
  | Aadd -> Int64.add old v
  | Amin -> if Int64.compare old v <= 0 then old else v
  | Amax -> if Int64.compare old v >= 0 then old else v
  | Aexch -> v
  | Acas -> v (* compare value handled by the caller if needed *)

(* ---------------- the compiled warp executor ----------------

   Every loop below walks the lanes of [mask] in ascending order with
   [o] the lane's byte offset in a row, reads its sources from rows
   [ra]/[rb]/[rc] and writes row [rd], so the per-lane body is unboxed
   loads, the inlined operation and an unboxed store. *)

(* Write operand [x]'s value on each lane of [mask] into row [dst].
   Float instructions ([float]) read an integer immediate as the double
   of its value rather than as bits. *)
let stage st mask dst ~float x =
  let fill v =
    let m = ref mask and o = ref 0 in
    while !m <> 0 do
      if !m land 1 <> 0 then set64 dst !o v;
      m := !m lsr 1;
      o := !o + 8
    done
  in
  match x with
  | Reg r ->
      let src = st.rows.(r) in
      let m = ref mask and o = ref 0 in
      while !m <> 0 do
        if !m land 1 <> 0 then set64 dst !o (get64 src !o);
        m := !m lsr 1;
        o := !o + 8
      done
  | Imm i -> fill (if float then Int64.bits_of_float (Int64.to_float i) else i)
  | Fimm f -> fill (Int64.bits_of_float f)
  | Sreg ((Tid _ | Laneid) as s) ->
      let m = ref mask and lane = ref 0 in
      while !m <> 0 do
        if !m land 1 <> 0 then
          set64 dst (!lane * 8) (Int64.of_int (sreg_int st !lane s));
        m := !m lsr 1;
        incr lane
      done
  | Sreg s -> fill (Int64.of_int (sreg_int st 0 s))

(* Row of source operand [k] (0-2): a register's own row, or a staging
   row holding the operand's per-lane values. *)
let source st mask ~float k x =
  match x with
  | Reg r -> st.rows.(r)
  | Imm _ | Fimm _ | Sreg _ ->
      let dst = st.rows.(st.stage + k) in
      stage st mask dst ~float x;
      dst

let iop_rows mask op rd ra rb =
  let m = ref mask and o = ref 0 in
  while !m <> 0 do
    (if !m land 1 <> 0 then
       let o = !o in
       set64 rd o (exec_iop op (get64 ra o) (get64 rb o)));
    m := !m lsr 1;
    o := !o + 8
  done

let iop_row_imm mask op rd ra vb =
  let m = ref mask and o = ref 0 in
  while !m <> 0 do
    (if !m land 1 <> 0 then
       let o = !o in
       set64 rd o (exec_iop op (get64 ra o) vb));
    m := !m lsr 1;
    o := !o + 8
  done

let add_rows mask rd ra rb =
  let m = ref mask and o = ref 0 in
  while !m <> 0 do
    (if !m land 1 <> 0 then
       let o = !o in
       set64 rd o (Int64.add (get64 ra o) (get64 rb o)));
    m := !m lsr 1;
    o := !o + 8
  done

let add_row_imm mask rd ra vb =
  let m = ref mask and o = ref 0 in
  while !m <> 0 do
    (if !m land 1 <> 0 then
       let o = !o in
       set64 rd o (Int64.add (get64 ra o) vb));
    m := !m lsr 1;
    o := !o + 8
  done

let mad_rows mask rd ra rb rc =
  let m = ref mask and o = ref 0 in
  while !m <> 0 do
    (if !m land 1 <> 0 then
       let o = !o in
       set64 rd o (Int64.add (Int64.mul (get64 ra o) (get64 rb o)) (get64 rc o)));
    m := !m lsr 1;
    o := !o + 8
  done

let mad_row_imm mask rd ra vb rc =
  let m = ref mask and o = ref 0 in
  while !m <> 0 do
    (if !m land 1 <> 0 then
       let o = !o in
       set64 rd o (Int64.add (Int64.mul (get64 ra o) vb) (get64 rc o)));
    m := !m lsr 1;
    o := !o + 8
  done

let fop_rows mask op f32 rd ra rb =
  let m = ref mask and o = ref 0 in
  while !m <> 0 do
    (if !m land 1 <> 0 then
       let o = !o in
       set64 rd o
         (Int64.bits_of_float
            (fop_f32 op f32
               (Int64.float_of_bits (get64 ra o))
               (Int64.float_of_bits (get64 rb o)))));
    m := !m lsr 1;
    o := !o + 8
  done

let fma_rows mask f32 rd ra rb rc =
  let m = ref mask and o = ref 0 in
  while !m <> 0 do
    (if !m land 1 <> 0 then
       let o = !o in
       let r =
         (Int64.float_of_bits (get64 ra o) *. Int64.float_of_bits (get64 rb o))
         +. Int64.float_of_bits (get64 rc o)
       in
       set64 rd o (Int64.bits_of_float (if f32 then round_f32 r else r)));
    m := !m lsr 1;
    o := !o + 8
  done

let funary_rows mask op f32 rd ra =
  let m = ref mask and o = ref 0 in
  while !m <> 0 do
    (if !m land 1 <> 0 then
       let o = !o in
       set64 rd o
         (Int64.bits_of_float
            (funary_f32 op f32 (Int64.float_of_bits (get64 ra o)))));
    m := !m lsr 1;
    o := !o + 8
  done

let cvt_rows mask k rd ra =
  let m = ref mask and o = ref 0 in
  while !m <> 0 do
    (if !m land 1 <> 0 then
       let o = !o in
       set64 rd o (apply_cvt k (get64 ra o)));
    m := !m lsr 1;
    o := !o + 8
  done

(* Predicate [p] takes the lanes of [mask] where the comparison holds
   and keeps its other lanes. *)
let setp_rows st mask c ord p ra rb =
  let m = ref mask and o = ref 0 and bit = ref 1 and set = ref 0 in
  while !m <> 0 do
    (if !m land 1 <> 0 then
       let o = !o in
       if compare_cmp c ord (get64 ra o) (get64 rb o) then set := !set lor !bit);
    m := !m lsr 1;
    o := !o + 8;
    bit := !bit lsl 1
  done;
  st.preds.(p) <- st.preds.(p) land lnot mask lor !set

let setp_row_imm st mask c ord p ra vb =
  let m = ref mask and o = ref 0 and bit = ref 1 and set = ref 0 in
  while !m <> 0 do
    (if !m land 1 <> 0 then
       if compare_cmp c ord (get64 ra !o) vb then set := !set lor !bit);
    m := !m lsr 1;
    o := !o + 8;
    bit := !bit lsl 1
  done;
  st.preds.(p) <- st.preds.(p) land lnot mask lor !set

let selp_rows st mask p rd ra rb =
  let pm = st.preds.(p) in
  let m = ref mask and o = ref 0 and bit = ref 1 in
  while !m <> 0 do
    (if !m land 1 <> 0 then
       let o = !o in
       set64 rd o (get64 (if pm land !bit <> 0 then ra else rb) o));
    m := !m lsr 1;
    o := !o + 8;
    bit := !bit lsl 1
  done

(* Predicate [d] takes [v] on the lanes of [mask] and keeps its other
   lanes. *)
let merge_pred st mask d v =
  st.preds.(d) <- st.preds.(d) land lnot mask lor (v land mask)

let broadcast st mask d v = stage st mask st.rows.(d) ~float:false (Imm v)

(* The memory instructions.  Each active lane's address is its [abase]
   value plus [aoffset]; it is recorded in [addrs] (the slots of
   inactive lanes keep stale values).  A fault stops the loop at the
   faulting lane. *)
let load st mask mem ty d (a : addr) addrs =
  let rb = source st mask ~float:false 0 a.abase and off = a.aoffset in
  let rd = st.rows.(d) in
  let m = ref mask and lane = ref 0 in
  while !m <> 0 do
    (if !m land 1 <> 0 then begin
       let o = !lane * 8 in
       let addr = Int64.to_int (get64 rb o) + off in
       addrs.(!lane) <- addr;
       Mem.load_slot mem ty addr rd o
     end);
    m := !m lsr 1;
    incr lane
  done

let store st mask mem ty (a : addr) v addrs =
  let rv = source st mask ~float:false 1 v in
  let rb = source st mask ~float:false 0 a.abase and off = a.aoffset in
  let m = ref mask and lane = ref 0 in
  while !m <> 0 do
    (if !m land 1 <> 0 then begin
       let o = !lane * 8 in
       let addr = Int64.to_int (get64 rb o) + off in
       addrs.(!lane) <- addr;
       Mem.store_slot mem ty addr rv o
     end);
    m := !m lsr 1;
    incr lane
  done

let atomic st mask mem op ty d (a : addr) v addrs =
  let rv = source st mask ~float:false 1 v in
  let rb = source st mask ~float:false 0 a.abase and off = a.aoffset in
  let rd = st.rows.(d) in
  let m = ref mask and lane = ref 0 in
  while !m <> 0 do
    (if !m land 1 <> 0 then begin
       let o = !lane * 8 in
       let addr = Int64.to_int (get64 rb o) + off in
       addrs.(!lane) <- addr;
       let old = Mem.load mem ty addr in
       Mem.store mem ty addr (exec_atom op old (get64 rv o));
       set64 rd o old
     end);
    m := !m lsr 1;
    incr lane
  done

(* Compile one ALU instruction into a closure over (state, mask), built
   once per pc at decode time.  The instruction variant and the common
   operand shapes are resolved here; any other shape stages its
   non-register operands into staging rows and runs the all-register
   loop, so every arm computes with the same inlined scalar semantics
   (test_exec checks them all against a per-lane reference). *)
let compile_alu (i : Ptx.Instr.t) : state -> int -> unit =
  let src st mask k x = source st mask ~float:false k x in
  let fsrc st mask k x = source st mask ~float:true k x in
  match i with
  | Mov (d, x) -> fun st mask -> stage st mask st.rows.(d) ~float:false x
  | Iop (Add, d, Reg ra, Reg rb) ->
      fun st mask -> add_rows mask st.rows.(d) st.rows.(ra) st.rows.(rb)
  | Iop (Add, d, Reg ra, Imm vb) ->
      fun st mask -> add_row_imm mask st.rows.(d) st.rows.(ra) vb
  | Iop (op, d, Reg ra, Imm vb) ->
      fun st mask -> iop_row_imm mask op st.rows.(d) st.rows.(ra) vb
  | Iop (op, d, a, b) ->
      fun st mask ->
        let rb = src st mask 1 b in
        iop_rows mask op st.rows.(d) (src st mask 0 a) rb
  | Mad (d, Reg ra, Imm vb, Reg rc) ->
      fun st mask -> mad_row_imm mask st.rows.(d) st.rows.(ra) vb st.rows.(rc)
  | Mad (d, a, b, c) ->
      fun st mask ->
        let rc = src st mask 2 c in
        let rb = src st mask 1 b in
        mad_rows mask st.rows.(d) (src st mask 0 a) rb rc
  | Fop (op, ty, d, a, b) ->
      let f32 = ty = F32 in
      fun st mask ->
        let rb = fsrc st mask 1 b in
        fop_rows mask op f32 st.rows.(d) (fsrc st mask 0 a) rb
  | Fma (ty, d, a, b, c) ->
      let f32 = ty = F32 in
      fun st mask ->
        let rc = fsrc st mask 2 c in
        let rb = fsrc st mask 1 b in
        fma_rows mask f32 st.rows.(d) (fsrc st mask 0 a) rb rc
  | Funary (op, ty, d, a) ->
      let f32 = ty = F32 in
      fun st mask -> funary_rows mask op f32 st.rows.(d) (fsrc st mask 0 a)
  | Cvt (dst_ty, src_ty, d, a) ->
      let k = cvt_of ~dst_ty ~src_ty in
      fun st mask -> cvt_rows mask k st.rows.(d) (src st mask 0 a)
  | Setp (c, ty, p, Reg ra, Imm vb) ->
      let ord = order_of ty in
      fun st mask -> setp_row_imm st mask c ord p st.rows.(ra) vb
  | Setp (c, ty, p, a, b) ->
      let ord = order_of ty in
      fun st mask ->
        let rb = src st mask 1 b in
        setp_rows st mask c ord p (src st mask 0 a) rb
  | Selp (d, a, b, p) ->
      fun st mask ->
        let rb = src st mask 1 b in
        selp_rows st mask p st.rows.(d) (src st mask 0 a) rb
  | Pnot (d, s) -> fun st mask -> merge_pred st mask d (lnot st.preds.(s))
  | Pand (d, a, b) ->
      fun st mask -> merge_pred st mask d (st.preds.(a) land st.preds.(b))
  | Por (d, a, b) ->
      fun st mask -> merge_pred st mask d (st.preds.(a) lor st.preds.(b))
  | Ld_param _ | Ld _ | St _ | Atom _ | Bra _ | Bar | Exit | Label _ ->
      fun _ _ ->
        Sim_error.error Sim_error.Internal
          "compile_alu: not an ALU instruction: %s" (Ptx.Instr.to_string i)

(* Functional-unit class, for the Fig 4 occupancy statistics. *)
type unit_class = SP | SFU | LDST

let unit_of_instr (i : Ptx.Instr.t) =
  match i with
  | Funary _ -> SFU
  | Ld _ | St _ | Atom _ -> LDST
  | Ld_param _ | Mov _ | Iop _ | Mad _ | Fop _ | Fma _ | Cvt _ | Setp _
  | Selp _ | Pnot _ | Pand _ | Por _ | Bra _ | Bar | Exit | Label _ ->
      SP
