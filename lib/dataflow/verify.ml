(* Full kernel verification: the structural pass from [Ptx.Verify]
   plus the dataflow-dependent checks, which read the kernel's one
   analysis ([Depgraph.of_kernel]: CFG, reaching definitions,
   dependence graph and reconvergence table):

   - use of a register or predicate with no reaching definition at all
     (uninitialized on every path; the machine zero-fills registers, so
     such a use is almost certainly a program bug);
   - a load/store/atomic whose address base can only hold a
     floating-point bit pattern;
   - a barrier reachable under divergent control flow, i.e. between a
     thread-dependent branch and its reconvergence point, where part of
     a warp could wait forever.

   This is the entry point used by the launch path and the CLI; the
   analysis it builds is theirs to keep. *)

module V = Ptx.Verify

(* ---- use before def ---- *)

let check_use_before_def dg reached acc =
  let k = Depgraph.kernel dg and rd = Depgraph.reaching dg in
  let kernel = k.Ptx.Kernel.kname in
  let acc = ref acc in
  Array.iteri
    (fun pc instr ->
      if reached pc then begin
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

let check_address_kinds dg reached acc =
  let k = Depgraph.kernel dg and rd = Depgraph.reaching dg in
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
      if reached pc then
        match instr with
        | Ptx.Instr.Ld (_, _, _, a) -> check_addr pc a
        | Ptx.Instr.St (_, _, a, _) -> check_addr pc a
        | Ptx.Instr.Atom (_, _, _, a, _) -> check_addr pc a
        | _ -> ())
    k.Ptx.Kernel.body;
  !acc

(* ---- barriers under divergent control flow ---- *)

(* Is the guard predicate of the branch at [pc] thread-dependent?  It
   is when an instruction in the slice of the guard's reaching
   definitions reads %tid or %laneid.  The slice stops at loads, as the
   classifier's does: a loaded value's uniformity depends on memory
   contents, which we cannot see, so it counts as uniform to keep
   false positives out. *)
let guard_is_thread_dependent dg ~pc ~pred =
  let body = (Depgraph.kernel dg).Ptx.Kernel.body in
  let reads_thread_id = function
    | Ptx.Types.Sreg (Ptx.Types.Tid _ | Ptx.Types.Laneid) -> true
    | Ptx.Types.Sreg _ | Ptx.Types.Imm _ | Ptx.Types.Fimm _ | Ptx.Types.Reg _
      ->
        false
  in
  Depgraph.slice dg ~stop:Ptx.Instr.is_load
    (Reaching.defs_reaching_pred (Depgraph.reaching dg) ~pc ~pred)
  |> List.exists (fun d ->
         let instr = body.(d) in
         (not (Ptx.Instr.is_load instr))
         && List.exists reads_thread_id (Ptx.Instr.operands instr))

let check_divergent_barriers dg reached acc =
  let k = Depgraph.kernel dg and cfg = Depgraph.cfg dg in
  let kernel = k.Ptx.Kernel.kname in
  let first_bar b =
    let blk = Ptx.Cfg.block cfg b in
    let rec go pc =
      if pc > blk.Ptx.Cfg.last then None
      else if k.Ptx.Kernel.body.(pc) = Ptx.Instr.Bar then Some pc
      else go (pc + 1)
    in
    go blk.Ptx.Cfg.first
  in
  let acc = ref acc in
  Array.iteri
    (fun pc instr ->
      match instr with
      | Ptx.Instr.Bra (Some (_, p), _)
        when reached pc && guard_is_thread_dependent dg ~pc ~pred:p ->
          let c = Ptx.Cfg.block_of_pc cfg pc in
          let stop =
            match (Depgraph.reconvergence dg).(pc) with
            | -1 -> None
            | rpc -> Some (Ptx.Cfg.block_of_pc cfg rpc)
          in
          (* every block strictly between the divergent branch and its
             reconvergence point executes with a partial warp *)
          let seen = Array.make (Ptx.Cfg.nblocks cfg) false in
          let rec dfs b =
            if (not seen.(b)) && stop <> Some b then begin
              seen.(b) <- true;
              Option.iter
                (fun bar_pc ->
                  acc :=
                    V.diag ~kernel ~pc:bar_pc ~code:"divergent-barrier"
                      "barrier reachable under divergent control flow: the \
                       branch at pc %d is thread-dependent and part of the \
                       warp can bypass this bar"
                      pc
                    :: !acc)
                (first_bar b);
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
   sound kernel.  They skip pcs no path from entry reaches, whose
   dataflow facts are vacuous (the structural pass warns about them). *)
let verify_kernel (k : Ptx.Kernel.t) =
  let structural = V.structural k in
  if V.errors structural <> [] then (structural, None)
  else
    let dg = Depgraph.of_kernel k in
    let cfg = Depgraph.cfg dg in
    let reach = Array.make (Ptx.Cfg.nblocks cfg) false in
    List.iter (fun b -> reach.(b) <- true) (Ptx.Cfg.reverse_postorder cfg);
    let reached pc = reach.(Ptx.Cfg.block_of_pc cfg pc) in
    let dataflow =
      []
      |> check_use_before_def dg reached
      |> check_address_kinds dg reached
      |> check_divergent_barriers dg reached
      |> List.rev
    in
    (dedup (structural @ dataflow), Some dg)
