(* The paper's load classifier (Section V).

   A load is DETERMINISTIC when its effective address derives only from
   parameterized data — thread/CTA ids, grid/block dimensions, kernel
   parameters (ld.param) and immediates — all known at kernel launch.
   It is NON-DETERMINISTIC when the address depends, transitively, on a
   value read from memory by a prior load (ld.global/shared/local/tex,
   or an atomic's return value).

   Implementation: [Depgraph.slice] from the definitions of the load's
   address register.  Loads and ld.param are traversal *leaves*: the
   classifier records what kind of leaf it reached and does not look
   through them — the paper classifies a load as non-deterministic as
   soon as its address flows from any prior load, regardless of how
   that load's own address was formed. *)

open Ptx.Types

type load_class = Deterministic | Nondeterministic

type leaf =
  | Leaf_param (* ld.param *)
  | Leaf_sreg (* tid/ctaid/ntid/nctaid/laneid/warpid *)
  | Leaf_imm
  | Leaf_load of space (* value loaded from this space *)
  | Leaf_uninit (* register never written on some path *)

type load_info = {
  li_pc : int;
  li_space : space;
  li_class : load_class;
  li_leaves : leaf list; (* distinct leaf kinds, sorted *)
  li_slice_size : int; (* instructions in the address slice *)
}

type result = {
  res_kernel : Ptx.Kernel.t;
  res_loads : load_info list; (* every memory load, in program order *)
  res_class_of_pc : (int, load_class) Hashtbl.t; (* global loads only *)
}

let string_of_class = function
  | Deterministic -> "deterministic"
  | Nondeterministic -> "non-deterministic"

let short_class = function Deterministic -> "D" | Nondeterministic -> "N"

let string_of_leaf = function
  | Leaf_param -> "param"
  | Leaf_sreg -> "sreg"
  | Leaf_imm -> "imm"
  | Leaf_load sp -> "ld." ^ string_of_space sp
  | Leaf_uninit -> "uninit"

let operand_leaf = function
  | Sreg _ -> Some Leaf_sreg
  | Imm _ | Fimm _ -> Some Leaf_imm
  | Reg _ -> None

(* Leaf kinds an instruction of an address slice contributes: a load is
   a leaf (the slice does not look through it), anything else its
   non-register operands, plus [Leaf_uninit] when it reads a register
   some path never writes. *)
let slice_leaves (k : Ptx.Kernel.t) dg pc =
  let instr = k.Ptx.Kernel.body.(pc) in
  let own =
    match instr with
    | Ld_param _ -> [ Leaf_param ]
    | _ -> (
        match Ptx.Instr.loads_from_memory instr with
        | Some sp -> [ Leaf_load sp ]
        | None -> List.filter_map operand_leaf (Ptx.Instr.operands instr))
  in
  if Depgraph.has_uninitialized_use dg pc then Leaf_uninit :: own else own

let class_of_leaves leaves =
  if List.exists (function Leaf_load _ -> true | _ -> false) leaves then
    Nondeterministic
  else Deterministic

(* The address slice of the load at [pc] starts from the reaching
   definitions of its base register and stops at loads. *)
let classify_load k r dg pc =
  let space, base =
    match k.Ptx.Kernel.body.(pc) with
    | Ptx.Instr.Ld (sp, _, _, a) -> (sp, a.abase)
    | Atom (_, _, _, a, _) -> (Global, a.abase)
    | _ -> invalid_arg "classify_load: pc is not a load"
  in
  let leaves, slice =
    match base with
    | Reg reg -> (
        match Reaching.defs_reaching_reg r ~pc ~reg with
        | [] -> ([ Leaf_uninit ], 0)
        | roots ->
            let pcs = Depgraph.slice dg ~stop:Ptx.Instr.is_load roots in
            ( List.sort_uniq compare (List.concat_map (slice_leaves k dg) pcs),
              List.length pcs ))
    | Imm _ | Fimm _ | Sreg _ -> (Option.to_list (operand_leaf base), 0)
  in
  {
    li_pc = pc;
    li_space = space;
    li_class = class_of_leaves leaves;
    li_leaves = leaves;
    li_slice_size = slice;
  }

let classify (k : Ptx.Kernel.t) =
  let cfg = Ptx.Cfg.build k in
  let r = Reaching.compute k cfg in
  let dg = Depgraph.build k r in
  let loads = ref [] in
  Array.iteri
    (fun pc instr ->
      match Ptx.Instr.loads_from_memory instr with
      | Some _ -> loads := classify_load k r dg pc :: !loads
      | None -> ())
    k.Ptx.Kernel.body;
  let loads = List.rev !loads in
  let class_of_pc = Hashtbl.create 16 in
  List.iter
    (fun li ->
      if Ptx.Instr.is_global_load k.Ptx.Kernel.body.(li.li_pc) then
        Hashtbl.replace class_of_pc li.li_pc li.li_class)
    loads;
  { res_kernel = k; res_loads = loads; res_class_of_pc = class_of_pc }

let class_of_global_load res pc = Hashtbl.find_opt res.res_class_of_pc pc

let global_loads res =
  List.filter
    (fun li ->
      Ptx.Instr.is_global_load res.res_kernel.Ptx.Kernel.body.(li.li_pc))
    res.res_loads

let count_global res =
  let g = global_loads res in
  let d =
    List.length (List.filter (fun li -> li.li_class = Deterministic) g)
  in
  (d, List.length g - d)

let pp_load_info ppf li =
  Format.fprintf ppf "pc %4d  %-6s  %-17s  slice=%-3d  leaves={%s}" li.li_pc
    (string_of_space li.li_space)
    (string_of_class li.li_class)
    li.li_slice_size
    (String.concat "," (List.map string_of_leaf li.li_leaves))

let pp_result ppf res =
  Format.fprintf ppf "kernel %s: %d loads (%d global)@\n"
    res.res_kernel.Ptx.Kernel.kname
    (List.length res.res_loads)
    (List.length (global_loads res));
  List.iter (fun li -> Format.fprintf ppf "  %a@\n" pp_load_info li)
    res.res_loads
