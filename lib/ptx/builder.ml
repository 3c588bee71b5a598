(* Imperative eDSL for constructing kernels.

   Emitter functions append an instruction and return the destination as
   an operand, so address computations compose naturally:

     let tid = B.special b (Tid X) in
     let idx = B.add b (B.mul b (B.special b (Ctaid X)) (B.int 256)) tid in
     let v = B.ld b Global U32 (B.at ~base:mask_ptr idx ~scale:4) in
     ...

   [finish] validates the kernel. *)

open Types

type t = {
  name : string;
  params : Kernel.param list;
  smem_bytes : int;
  mutable instrs : Instr.t list; (* reversed *)
  mutable nregs : int;
  mutable npregs : int;
  mutable nlabels : int;
}

let create ~name ~params ?(smem_bytes = 0) () =
  { name; params; smem_bytes; instrs = []; nregs = 0; npregs = 0; nlabels = 0 }

let emit b i = b.instrs <- i :: b.instrs

let fresh_reg b =
  let r = b.nregs in
  b.nregs <- r + 1;
  r

let fresh_pred b =
  let p = b.npregs in
  b.npregs <- p + 1;
  p

let fresh_label b prefix =
  let n = b.nlabels in
  b.nlabels <- n + 1;
  Printf.sprintf "%s_%d" prefix n

(* Operand constructors. *)
let int n = Imm (Int64.of_int n)
let int64 n = Imm n
let float f = Fimm f
let special s = Sreg s
let tid_x = Sreg (Tid X)
let tid_y = Sreg (Tid Y)
let ctaid_x = Sreg (Ctaid X)
let ctaid_y = Sreg (Ctaid Y)
let ntid_x = Sreg (Ntid X)
let ntid_y = Sreg (Ntid Y)
let nctaid_x = Sreg (Nctaid X)

(* Address of [base + idx*scale + off]; emits the arithmetic. *)
let def1 b mk =
  let d = fresh_reg b in
  emit b (mk d);
  Reg d

let mov b s = def1 b (fun d -> Instr.Mov (d, s))
let iop b o x y = def1 b (fun d -> Instr.Iop (o, d, x, y))
let add b x y = iop b Add x y
let sub b x y = iop b Sub x y
let mul b x y = iop b Mul x y
let div b x y = iop b Div x y
let rem b x y = iop b Rem x y
let band b x y = iop b Band x y
let shl b x y = iop b Shl x y
let shr b x y = iop b Shr x y
let mad b x y z = def1 b (fun d -> Instr.Mad (d, x, y, z))
let fop b o ?(ty = F32) x y = def1 b (fun d -> Instr.Fop (o, ty, d, x, y))
let fadd b ?ty x y = fop b Fadd ?ty x y
let fsub b ?ty x y = fop b Fsub ?ty x y
let fmul b ?ty x y = fop b Fmul ?ty x y
let fdiv b ?ty x y = fop b Fdiv ?ty x y
let fma b ?(ty = F32) x y z = def1 b (fun d -> Instr.Fma (ty, d, x, y, z))
let funary b o ?(ty = F32) x = def1 b (fun d -> Instr.Funary (o, ty, d, x))
let cvt b ~dst_ty ~src_ty x = def1 b (fun d -> Instr.Cvt (dst_ty, src_ty, d, x))
let ld_param b p = def1 b (fun d -> Instr.Ld_param (d, p))

let addr ?(off = 0) base = { abase = base; aoffset = off }

(* base + idx*scale, emitted as a mad when scale <> 1. *)
let at b ~base ?(scale = 1) ?(off = 0) idx =
  let eff =
    if scale = 1 then add b base idx else mad b idx (int scale) base
  in
  addr ~off eff

let ld b sp ty a = def1 b (fun d -> Instr.Ld (sp, ty, d, a))
let st b sp ty a v = emit b (Instr.St (sp, ty, a, v))
let atom b o ty a v = def1 b (fun d -> Instr.Atom (o, ty, d, a, v))

let setp b c ?(ty = S64) x y =
  let p = fresh_pred b in
  emit b (Instr.Setp (c, ty, p, x, y));
  p

let selp b x y p = def1 b (fun d -> Instr.Selp (d, x, y, p))

let pnot b p =
  let d = fresh_pred b in
  emit b (Instr.Pnot (d, p));
  d

let pand b p q =
  let d = fresh_pred b in
  emit b (Instr.Pand (d, p, q));
  d

let label b l = emit b (Instr.Label l)
let bra b l = emit b (Instr.Bra (None, l))
let bra_if b p l = emit b (Instr.Bra (Some (true, p), l))
let bra_ifnot b p l = emit b (Instr.Bra (Some (false, p), l))
let bar b = emit b Instr.Bar

(* Structured helpers built on labels. *)

(* if_ b pred then_body: executes body when pred holds. *)
let if_ b p body =
  let skip = fresh_label b "Lskip" in
  bra_ifnot b p skip;
  body ();
  label b skip

(* if_not b pred then_body: executes body when pred does not hold. *)
let if_not b p body =
  let skip = fresh_label b "Lskip" in
  bra_if b p skip;
  body ();
  label b skip

(* A counted loop: for i = init; i < bound; i += step.  [body] receives
   the loop counter operand.  The counter register is reused across
   iterations (a mutable register, as compiled PTX loops have). *)
let for_loop b ~init ~bound ~step body =
  let i = fresh_reg b in
  emit b (Instr.Mov (i, init));
  let head = fresh_label b "Lhead" in
  let done_ = fresh_label b "Ldone" in
  label b head;
  let p = setp b Ge (Reg i) bound in
  bra_if b p done_;
  body (Reg i);
  emit b (Instr.Iop (Add, i, Reg i, step));
  bra b head;
  label b done_

(* Global thread id: ctaid.x * ntid.x + tid.x. *)
let global_tid b = mad b ctaid_x ntid_x tid_x

let finish b =
  let body = Array.of_list (List.rev (Instr.Exit :: b.instrs)) in
  Verify.validate
    (Kernel.create ~name:b.name ~params:b.params ~nregs:(max 1 b.nregs)
       ~npregs:(max 1 b.npregs) ~smem_bytes:b.smem_bytes body)
