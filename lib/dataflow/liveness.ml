(* Backward liveness of register nodes (general + predicate), at block
   granularity with per-pc lowering.  Complements reaching definitions;
   used by tests as an independent cross-check of the CFG, and offered
   as API for register-pressure style analyses (e.g. the spare-register
   prefetching discussed in the paper's Section X). *)

type t = {
  kernel : Ptx.Kernel.t;
  live_in_at : Bitset.t array; (* per-pc live-in register nodes *)
  nregs : int;
}

(* Register nodes, numbered as [Reaching] numbers them. *)
let nodes ~nregs regs preds =
  List.map Reaching.node_of_reg regs
  @ List.map (Reaching.node_of_pred ~nregs) preds

let node_uses ~nregs instr =
  nodes ~nregs (Ptx.Instr.uses instr) (Ptx.Instr.puses instr)

let node_defs ~nregs instr =
  nodes ~nregs (Ptx.Instr.defs instr) (Ptx.Instr.pdefs instr)

let compute (k : Ptx.Kernel.t) (cfg : Ptx.Cfg.t) =
  let nregs = k.Ptx.Kernel.nregs in
  let nnodes = nregs + k.Ptx.Kernel.npregs in
  let nb = Ptx.Cfg.nblocks cfg in
  (* block-local use (upward-exposed) and def sets *)
  let use_b = Array.init nb (fun _ -> Bitset.create nnodes) in
  let def_b = Array.init nb (fun _ -> Bitset.create nnodes) in
  for b = 0 to nb - 1 do
    let blk = Ptx.Cfg.block cfg b in
    for pc = blk.Ptx.Cfg.first to blk.Ptx.Cfg.last do
      let instr = k.Ptx.Kernel.body.(pc) in
      List.iter
        (fun n -> if not (Bitset.mem def_b.(b) n) then Bitset.add use_b.(b) n)
        (node_uses ~nregs instr);
      List.iter (fun n -> Bitset.add def_b.(b) n) (node_defs ~nregs instr)
    done
  done;
  let live_in = Array.init nb (fun _ -> Bitset.create nnodes) in
  let live_out = Array.init nb (fun _ -> Bitset.create nnodes) in
  let changed = ref true in
  while !changed do
    changed := false;
    for b = nb - 1 downto 0 do
      let blk = Ptx.Cfg.block cfg b in
      List.iter
        (fun s -> ignore (Bitset.union_into ~dst:live_out.(b) ~src:live_in.(s)))
        blk.Ptx.Cfg.succs;
      let new_in = Bitset.copy live_out.(b) in
      Bitset.diff_into ~dst:new_in ~src:def_b.(b);
      ignore (Bitset.union_into ~dst:new_in ~src:use_b.(b));
      if not (Bitset.equal new_in live_in.(b)) then begin
        live_in.(b) <- new_in;
        changed := true
      end
    done
  done;
  (* lower to per-pc live-in, walking each block backwards *)
  let npc = Array.length k.Ptx.Kernel.body in
  let live_in_at = Array.init npc (fun _ -> Bitset.create nnodes) in
  for b = 0 to nb - 1 do
    let blk = Ptx.Cfg.block cfg b in
    let cur = Bitset.copy live_out.(b) in
    for pc = blk.Ptx.Cfg.last downto blk.Ptx.Cfg.first do
      let instr = k.Ptx.Kernel.body.(pc) in
      List.iter (Bitset.remove cur) (node_defs ~nregs instr);
      List.iter (Bitset.add cur) (node_uses ~nregs instr);
      live_in_at.(pc) <- Bitset.copy cur
    done
  done;
  { kernel = k; live_in_at; nregs }

let live_in_reg t ~pc ~reg =
  Bitset.mem t.live_in_at.(pc) (Reaching.node_of_reg reg)

(* Maximum number of simultaneously live general registers — a proxy
   for register pressure. *)
let max_pressure t =
  Array.fold_left
    (fun acc set ->
      let live_regs =
        List.length (List.filter (fun n -> n < t.nregs) (Bitset.elements set))
      in
      max acc live_regs)
    0 t.live_in_at
