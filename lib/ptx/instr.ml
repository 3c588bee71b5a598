(* Instructions of the PTX-like ISA, plus their def/use sets.

   Program counters are indices into a kernel's instruction array.
   [Label] is a pseudo-instruction: it defines a branch target and is
   skipped by the executor.  Predicates live in a separate register
   class (as in PTX), addressed by small integers. *)

open Types

type t =
  | Ld_param of int * string
      (* dst register <- named kernel parameter (ld.param) *)
  | Ld of space * dtype * int * addr (* dst <- [addr] *)
  | St of space * dtype * addr * operand (* [addr] <- value *)
  | Mov of int * operand
  | Iop of iop * int * operand * operand
  | Mad of int * operand * operand * operand (* d = a*b + c (mad.lo) *)
  | Fop of fop * dtype * int * operand * operand
  | Fma of dtype * int * operand * operand * operand
  | Funary of funary * dtype * int * operand (* SFU op *)
  | Cvt of dtype * dtype * int * operand (* cvt.dst_ty.src_ty *)
  | Setp of cmp * dtype * int * operand * operand (* pred <- a cmp b *)
  | Selp of int * operand * operand * int (* d = p ? a : b *)
  | Pnot of int * int (* pred dst <- not src *)
  | Pand of int * int * int
  | Por of int * int * int
  | Bra of (bool * int) option * string
      (* optional guard (polarity, pred reg); target label *)
  | Atom of atomop * dtype * int * addr * operand
      (* dst <- old value; [addr] updated *)
  | Bar (* CTA-wide barrier *)
  | Exit
  | Label of string

(* Source operands; an address contributes its base.  [Ld_param]
   reads a named parameter, not an operand. *)
let operands = function
  | Ld (_, _, _, a) -> [ a.abase ]
  | St (_, _, a, v) | Atom (_, _, _, a, v) -> [ a.abase; v ]
  | Mov (_, s) | Funary (_, _, _, s) | Cvt (_, _, _, s) -> [ s ]
  | Iop (_, _, a, b)
  | Fop (_, _, _, a, b)
  | Setp (_, _, _, a, b)
  | Selp (_, a, b, _) ->
      [ a; b ]
  | Mad (_, a, b, c) | Fma (_, _, a, b, c) -> [ a; b; c ]
  | Ld_param _ | Pnot _ | Pand _ | Por _ | Bra _ | Bar | Exit | Label _ -> []

(* General registers defined by the instruction. *)
let defs = function
  | Ld_param (d, _) -> [ d ]
  | Ld (_, _, d, _) -> [ d ]
  | Mov (d, _) -> [ d ]
  | Iop (_, d, _, _) -> [ d ]
  | Mad (d, _, _, _) -> [ d ]
  | Fop (_, _, d, _, _) -> [ d ]
  | Fma (_, d, _, _, _) -> [ d ]
  | Funary (_, _, d, _) -> [ d ]
  | Cvt (_, _, d, _) -> [ d ]
  | Selp (d, _, _, _) -> [ d ]
  | Atom (_, _, d, _, _) -> [ d ]
  | St _ | Setp _ | Pnot _ | Pand _ | Por _ | Bra _ | Bar | Exit | Label _ ->
      []

(* General registers used by the instruction. *)
let uses i =
  List.fold_right
    (fun o regs ->
      match o with Reg r -> r :: regs | Imm _ | Fimm _ | Sreg _ -> regs)
    (operands i) []

(* Predicate registers defined / used. *)
let pdefs = function
  | Setp (_, _, p, _, _) -> [ p ]
  | Pnot (p, _) -> [ p ]
  | Pand (p, _, _) -> [ p ]
  | Por (p, _, _) -> [ p ]
  | Ld_param _ | Ld _ | St _ | Mov _ | Iop _ | Mad _ | Fop _ | Fma _
  | Funary _ | Cvt _ | Selp _ | Bra _ | Atom _ | Bar | Exit | Label _ ->
      []

let puses = function
  | Selp (_, _, _, p) -> [ p ]
  | Pnot (_, p) -> [ p ]
  | Pand (_, a, b) -> [ a; b ]
  | Por (_, a, b) -> [ a; b ]
  | Bra (Some (_, p), _) -> [ p ]
  | Bra (None, _) | Ld_param _ | Ld _ | St _ | Mov _ | Iop _ | Mad _ | Fop _
  | Fma _ | Funary _ | Cvt _ | Setp _ | Atom _ | Bar | Exit | Label _ ->
      []

(* Is this a load whose destination value comes from memory?  Atomics
   return the old memory value, so they count as loads for the paper's
   classification. *)
let loads_from_memory = function
  | Ld (sp, _, _, _) -> Some sp
  | Atom _ -> Some Global
  | Ld_param _ | St _ | Mov _ | Iop _ | Mad _ | Fop _ | Fma _ | Funary _
  | Cvt _ | Setp _ | Selp _ | Pnot _ | Pand _ | Por _ | Bra _ | Bar | Exit
  | Label _ ->
      None

let is_load i = Option.is_some (loads_from_memory i)

let is_global_load = function
  | Ld (Global, _, _, _) | Atom _ -> true
  | Ld ((Param | Shared | Local | Const | Tex), _, _, _)
  | Ld_param _ | St _ | Mov _ | Iop _ | Mad _ | Fop _ | Fma _ | Funary _
  | Cvt _ | Setp _ | Selp _ | Pnot _ | Pand _ | Por _ | Bra _ | Bar | Exit
  | Label _ ->
      false

let is_branch = function
  | Bra _ -> true
  | _ -> false

let is_exit = function
  | Exit -> true
  | _ -> false

let pp ppf (i : t) =
  let pr fmt = Format.fprintf ppf fmt in
  let op = pp_operand in
  match i with
  | Ld_param (d, p) -> pr "ld.param.u64 %%r%d, [%s]" d p
  | Ld (sp, ty, d, a) ->
      pr "ld.%s.%s %%r%d, %a" (string_of_space sp) (string_of_dtype ty) d
        pp_addr a
  | St (sp, ty, a, v) ->
      pr "st.%s.%s %a, %a" (string_of_space sp) (string_of_dtype ty) pp_addr a
        op v
  | Mov (d, s) -> pr "mov %%r%d, %a" d op s
  | Iop (o, d, a, b) -> pr "%s %%r%d, %a, %a" (string_of_iop o) d op a op b
  | Mad (d, a, b, c) -> pr "mad.lo %%r%d, %a, %a, %a" d op a op b op c
  | Fop (o, ty, d, a, b) ->
      pr "%s %%r%d, %a, %a" (fop_mnemonic o ty) d op a op b
  | Fma (ty, d, a, b, c) ->
      pr "fma.%s %%r%d, %a, %a, %a" (string_of_dtype ty) d op a op b op c
  | Funary (o, ty, d, a) ->
      pr "%s.%s %%r%d, %a" (string_of_funary o) (string_of_dtype ty) d op a
  | Cvt (dt, st, d, a) ->
      pr "cvt.%s.%s %%r%d, %a" (string_of_dtype dt) (string_of_dtype st) d op a
  | Setp (c, ty, p, a, b) ->
      pr "setp.%s.%s %%p%d, %a, %a" (string_of_cmp c) (string_of_dtype ty) p op
        a op b
  | Selp (d, a, b, p) -> pr "selp %%r%d, %a, %a, %%p%d" d op a op b p
  | Pnot (d, s) -> pr "not.pred %%p%d, %%p%d" d s
  | Pand (d, a, b) -> pr "and.pred %%p%d, %%p%d, %%p%d" d a b
  | Por (d, a, b) -> pr "or.pred %%p%d, %%p%d, %%p%d" d a b
  | Bra (None, l) -> pr "bra %s" l
  | Bra (Some (true, p), l) -> pr "@@%%p%d bra %s" p l
  | Bra (Some (false, p), l) -> pr "@@!%%p%d bra %s" p l
  | Atom (o, ty, d, a, v) ->
      pr "atom.global.%s.%s %%r%d, %a, %a" (string_of_atomop o)
        (string_of_dtype ty) d pp_addr a op v
  | Bar -> pr "bar.sync 0"
  | Exit -> pr "exit"
  | Label l -> pr "%s:" l

let to_string i = Format.asprintf "%a" pp i
