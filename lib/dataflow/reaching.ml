(* Reaching definitions over a kernel, at instruction granularity.

   Register "nodes" unify the two PTX register classes: general register
   r is node r, predicate register p is node nregs + p, so predicate
   dataflow (setp -> selp / guarded bra) participates in the analysis.

   Definitions are (pc, node) pairs, assigned dense ids.  The analysis
   is the classical forward may-analysis computed block-wise with a
   worklist, then lowered to a per-pc IN set. *)

type def = { def_id : int; def_pc : int; def_node : int }

type t = {
  kernel : Ptx.Kernel.t;
  cfg : Ptx.Cfg.t;
  defs : def array; (* indexed by def_id *)
  defs_of_node : int list array; (* node -> def ids *)
  in_at : Bitset.t array; (* per-pc IN set of def ids *)
  nregs : int;
}

let node_of_reg r = r
let node_of_pred ~nregs p = nregs + p

(* All (pc, node) definition sites in program order. *)
let collect_defs (k : Ptx.Kernel.t) =
  let nregs = k.Ptx.Kernel.nregs in
  let defs = ref [] in
  let n = ref 0 in
  Array.iteri
    (fun pc instr ->
      let add node =
        defs := { def_id = !n; def_pc = pc; def_node = node } :: !defs;
        incr n
      in
      List.iter (fun r -> add (node_of_reg r)) (Ptx.Instr.defs instr);
      List.iter (fun p -> add (node_of_pred ~nregs p)) (Ptx.Instr.pdefs instr))
    k.Ptx.Kernel.body;
  Array.of_list (List.rev !defs)

let compute (k : Ptx.Kernel.t) (cfg : Ptx.Cfg.t) =
  let nregs = k.Ptx.Kernel.nregs in
  let nnodes = nregs + k.Ptx.Kernel.npregs in
  let defs = collect_defs k in
  let ndefs = Array.length defs in
  let defs_of_node = Array.make nnodes [] in
  Array.iter
    (fun d -> defs_of_node.(d.def_node) <- d.def_id :: defs_of_node.(d.def_node))
    defs;
  let nb = Ptx.Cfg.nblocks cfg in
  (* gen/kill per block *)
  let defs_at_pc = Array.make (Array.length k.Ptx.Kernel.body) [] in
  Array.iter
    (fun d -> defs_at_pc.(d.def_pc) <- d.def_id :: defs_at_pc.(d.def_pc))
    defs;
  let gen = Array.init nb (fun _ -> Bitset.create ndefs) in
  let kill = Array.init nb (fun _ -> Bitset.create ndefs) in
  for b = 0 to nb - 1 do
    let blk = Ptx.Cfg.block cfg b in
    for pc = blk.Ptx.Cfg.first to blk.Ptx.Cfg.last do
      List.iter
        (fun id ->
          let node = defs.(id).def_node in
          (* this def kills all other defs of the node and replaces any
             earlier gen of the node in this block *)
          List.iter
            (fun other ->
              if other <> id then begin
                Bitset.add kill.(b) other;
                Bitset.remove gen.(b) other
              end)
            defs_of_node.(node);
          Bitset.add gen.(b) id;
          Bitset.remove kill.(b) id)
        (defs_at_pc.(pc) |> List.rev)
    done
  done;
  (* worklist iteration: IN[b] = ∪ OUT[p], OUT[b] = gen ∪ (IN \ kill) *)
  let in_b = Array.init nb (fun _ -> Bitset.create ndefs) in
  let out_b = Array.init nb (fun _ -> Bitset.create ndefs) in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun b ->
        let blk = Ptx.Cfg.block cfg b in
        List.iter
          (fun p -> ignore (Bitset.union_into ~dst:in_b.(b) ~src:out_b.(p)))
          blk.Ptx.Cfg.preds;
        let new_out = Bitset.copy in_b.(b) in
        Bitset.diff_into ~dst:new_out ~src:kill.(b);
        ignore (Bitset.union_into ~dst:new_out ~src:gen.(b));
        if not (Bitset.equal new_out out_b.(b)) then begin
          out_b.(b) <- new_out;
          changed := true
        end)
      (Ptx.Cfg.reverse_postorder cfg)
  done;
  (* lower to per-pc IN sets *)
  let npc = Array.length k.Ptx.Kernel.body in
  let in_at = Array.init npc (fun _ -> Bitset.create ndefs) in
  for b = 0 to nb - 1 do
    let blk = Ptx.Cfg.block cfg b in
    let cur = Bitset.copy in_b.(b) in
    for pc = blk.Ptx.Cfg.first to blk.Ptx.Cfg.last do
      in_at.(pc) <- Bitset.copy cur;
      List.iter
        (fun id ->
          let node = defs.(id).def_node in
          List.iter (fun other -> Bitset.remove cur other) defs_of_node.(node);
          Bitset.add cur id)
        (defs_at_pc.(pc) |> List.rev)
    done
  done;
  { kernel = k; cfg; defs; defs_of_node; in_at; nregs }

(* pcs of the definitions of register node [node] that reach [pc]. *)
let defs_reaching_node t ~pc ~node =
  List.filter_map
    (fun id -> if Bitset.mem t.in_at.(pc) id then Some t.defs.(id).def_pc else None)
    t.defs_of_node.(node)

let defs_reaching_reg t ~pc ~reg =
  defs_reaching_node t ~pc ~node:(node_of_reg reg)

let defs_reaching_pred t ~pc ~pred =
  defs_reaching_node t ~pc ~node:(node_of_pred ~nregs:t.nregs pred)
