(* Full kernel verification: the structural pass from [Ptx.Verify]
   plus the dataflow-dependent checks that need a CFG, reaching
   definitions and post-dominators:

   - use of a register or predicate with no reaching definition at all
     (uninitialized on every path; the machine zero-fills registers, so
     such a use is almost certainly a program bug);
   - a load/store/atomic whose address base can only hold a
     floating-point bit pattern;
   - a barrier reachable under divergent control flow, i.e. between a
     thread-dependent branch and its reconvergence point, where part of
     a warp could wait forever.

   This is the entry point used by the launch path and the CLI. *)

module V = Ptx.Verify

(* Blocks reachable from the CFG entry; dataflow facts in unreachable
   code are vacuous, so checks skip those pcs (the structural pass
   already warns about them). *)
let reachable_blocks (cfg : Ptx.Cfg.t) =
  let n = Ptx.Cfg.nblocks cfg in
  let seen = Array.make n false in
  let rec dfs b =
    if not seen.(b) then begin
      seen.(b) <- true;
      List.iter dfs (Ptx.Cfg.block cfg b).Ptx.Cfg.succs
    end
  in
  if n > 0 then dfs 0;
  seen

(* ---- use before def ---- *)

let check_use_before_def (k : Ptx.Kernel.t) cfg (rd : Reaching.t) reach acc =
  let kernel = k.Ptx.Kernel.kname in
  let acc = ref acc in
  Array.iteri
    (fun pc instr ->
      if reach.(Ptx.Cfg.block_of_pc cfg pc) then begin
        List.iter
          (fun r ->
            if Reaching.defs_reaching_reg rd ~pc ~reg:r = [] then
              acc :=
                V.diag ~kernel ~pc ~code:"use-before-def"
                  "register %%r%d is read but never written on any path to \
                   this point (in: %s)"
                  r
                  (Ptx.Instr.to_string instr)
                :: !acc)
          (Ptx.Instr.uses instr);
        List.iter
          (fun p ->
            if Reaching.defs_reaching_pred rd ~pc ~pred:p = [] then
              acc :=
                V.diag ~kernel ~pc ~code:"use-before-def"
                  "predicate %%p%d is read but never set on any path to \
                   this point (in: %s)"
                  p
                  (Ptx.Instr.to_string instr)
                :: !acc)
          (Ptx.Instr.puses instr)
      end)
    k.Ptx.Kernel.body;
  !acc

(* ---- address operand kind ---- *)

(* Does the definition at [pc] leave a floating-point bit pattern in
   its destination register?  Conservative: anything ambiguous (mov,
   selp, integer ops, loads of integer types) counts as non-float. *)
let def_is_float (k : Ptx.Kernel.t) pc =
  match k.Ptx.Kernel.body.(pc) with
  | Ptx.Instr.Fop _ | Ptx.Instr.Fma _ | Ptx.Instr.Funary _ -> true
  | Ptx.Instr.Cvt (dst, _, _, _) -> Ptx.Types.dtype_is_float dst
  | Ptx.Instr.Ld (_, ty, _, _) -> Ptx.Types.dtype_is_float ty
  | _ -> false

let check_address_kinds (k : Ptx.Kernel.t) cfg (rd : Reaching.t) reach acc =
  let kernel = k.Ptx.Kernel.kname in
  let acc = ref acc in
  let check_addr pc (a : Ptx.Types.addr) =
    match a.Ptx.Types.abase with
    | Ptx.Types.Reg r ->
        let defs = Reaching.defs_reaching_reg rd ~pc ~reg:r in
        if defs <> [] && List.for_all (def_is_float k) defs then
          acc :=
            V.diag ~kernel ~pc ~code:"float-address"
              "address base %%r%d only ever holds a floating-point value \
               (defined at pc %s)"
              r
              (String.concat ", " (List.map string_of_int defs))
            :: !acc
    | Ptx.Types.Imm _ | Ptx.Types.Fimm _ | Ptx.Types.Sreg _ -> ()
  in
  Array.iteri
    (fun pc instr ->
      if reach.(Ptx.Cfg.block_of_pc cfg pc) then
        match instr with
        | Ptx.Instr.Ld (_, _, _, a) -> check_addr pc a
        | Ptx.Instr.St (_, _, a, _) -> check_addr pc a
        | Ptx.Instr.Atom (_, _, _, a, _) -> check_addr pc a
        | _ -> ())
    k.Ptx.Kernel.body;
  !acc

(* ---- barriers under divergent control flow ---- *)

(* Is the guard predicate of the branch at [pc] thread-dependent?
   Backward slice over reaching definitions: the guard is non-uniform
   if any value feeding it reads %tid or %laneid.  Loads are slice
   terminals — their uniformity depends on memory contents, which we
   cannot see, so we assume uniform to keep false positives out. *)
let guard_is_thread_dependent (rd : Reaching.t) ~pc ~pred =
  let nregs = rd.Reaching.nregs in
  let body = rd.Reaching.kernel.Ptx.Kernel.body in
  let seen = Hashtbl.create 32 in
  let rec node_dependent ~pc ~node =
    List.exists
      (fun dpc ->
        if Hashtbl.mem seen (dpc, node) then false
        else begin
          Hashtbl.add seen (dpc, node) ();
          def_dependent dpc
        end)
      (Reaching.defs_reaching_node rd ~pc ~node)
  and def_dependent dpc =
    let instr = body.(dpc) in
    match instr with
    | Ptx.Instr.Ld _ | Ptx.Instr.Ld_param _ | Ptx.Instr.Atom _ -> false
    | _ ->
        let operand_dependent = function
          | Ptx.Types.Sreg (Ptx.Types.Tid _) | Ptx.Types.Sreg Ptx.Types.Laneid
            ->
              true
          | Ptx.Types.Sreg _ | Ptx.Types.Imm _ | Ptx.Types.Fimm _ -> false
          | Ptx.Types.Reg r -> node_dependent ~pc:dpc ~node:r
        in
        List.exists operand_dependent (operands_of instr)
        || List.exists
             (fun p -> node_dependent ~pc:dpc ~node:(nregs + p))
             (Ptx.Instr.puses instr)
  and operands_of instr =
    (* source operands only; register uses cover addr bases too, but we
       want the Sreg operands that [Instr.uses] drops *)
    match instr with
    | Ptx.Instr.Mov (_, s) -> [ s ]
    | Ptx.Instr.Iop (_, _, a, b)
    | Ptx.Instr.Fop (_, _, _, a, b)
    | Ptx.Instr.Setp (_, _, _, a, b) ->
        [ a; b ]
    | Ptx.Instr.Mad (_, a, b, c) | Ptx.Instr.Fma (_, _, a, b, c) ->
        [ a; b; c ]
    | Ptx.Instr.Funary (_, _, _, a) | Ptx.Instr.Cvt (_, _, _, a) -> [ a ]
    | Ptx.Instr.Selp (_, a, b, _) -> [ a; b ]
    | _ -> []
  in
  node_dependent ~pc ~node:(nregs + pred)

let check_divergent_barriers (k : Ptx.Kernel.t) (cfg : Ptx.Cfg.t) rd reach acc
    =
  let kernel = k.Ptx.Kernel.kname in
  let pdom = Ptx.Dom.post_dominators cfg in
  let block_has_bar b =
    let blk = Ptx.Cfg.block cfg b in
    let rec go pc =
      pc <= blk.Ptx.Cfg.last
      && (k.Ptx.Kernel.body.(pc) = Ptx.Instr.Bar || go (pc + 1))
    in
    go blk.Ptx.Cfg.first
  in
  let acc = ref acc in
  Array.iteri
    (fun pc instr ->
      match instr with
      | Ptx.Instr.Bra (Some (_, p), _)
        when reach.(Ptx.Cfg.block_of_pc cfg pc)
             && guard_is_thread_dependent rd ~pc ~pred:p ->
          let c = Ptx.Cfg.block_of_pc cfg pc in
          let stop =
            match Ptx.Dom.reconvergence_pc cfg pdom pc with
            | Some rpc -> Some (Ptx.Cfg.block_of_pc cfg rpc)
            | None -> None
          in
          (* every block strictly between the divergent branch and its
             reconvergence point executes with a partial warp *)
          let seen = Array.make (Ptx.Cfg.nblocks cfg) false in
          let rec dfs b =
            if (not seen.(b)) && stop <> Some b then begin
              seen.(b) <- true;
              if block_has_bar b then begin
                let blk = Ptx.Cfg.block cfg b in
                let bar_pc = ref blk.Ptx.Cfg.first in
                while k.Ptx.Kernel.body.(!bar_pc) <> Ptx.Instr.Bar do
                  incr bar_pc
                done;
                acc :=
                  V.diag ~kernel ~pc:!bar_pc ~code:"divergent-barrier"
                    "barrier reachable under divergent control flow: the \
                     branch at pc %d is thread-dependent and part of the \
                     warp can bypass this bar"
                    pc
                  :: !acc
              end;
              List.iter dfs (Ptx.Cfg.block cfg b).Ptx.Cfg.succs
            end
          in
          List.iter dfs (Ptx.Cfg.block cfg c).Ptx.Cfg.succs
      | _ -> ())
    k.Ptx.Kernel.body;
  !acc

(* ---- entry point ---- *)

let dedup diags =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun (d : V.diag) ->
      let key = (d.V.d_pc, d.V.d_code, d.V.d_msg) in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    diags

(* Structural pass first; the dataflow checks assume in-bounds register
   indices and resolvable labels, so they only run on a structurally
   sound kernel. *)
let verify_kernel (k : Ptx.Kernel.t) : V.diag list =
  let structural = V.structural k in
  if V.errors structural <> [] then structural
  else
    let cfg = Ptx.Cfg.build k in
    let rd = Reaching.compute k cfg in
    let reach = reachable_blocks cfg in
    let dataflow =
      []
      |> check_use_before_def k cfg rd reach
      |> check_address_kinds k cfg rd reach
      |> check_divergent_barriers k cfg rd reach
      |> List.rev
    in
    dedup (structural @ dataflow)
