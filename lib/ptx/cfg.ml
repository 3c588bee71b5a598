(* Control-flow graph over a kernel's instruction array.

   Blocks are maximal straight-line pc ranges.  Leaders are: pc 0, every
   Label, and every pc following a branch or exit.  A conditional branch
   has two successors (target, fallthrough); an unconditional branch one;
   Exit none. *)

type block = {
  bid : int;
  first : int; (* first pc of the block *)
  last : int; (* last pc of the block (inclusive) *)
  mutable succs : int list;
  mutable preds : int list;
}

type t = {
  kernel : Kernel.t;
  blocks : block array;
  block_of_pc : int array; (* pc -> bid *)
}

let build (k : Kernel.t) =
  let n = Array.length k.body in
  let leader = Array.make n false in
  leader.(0) <- true;
  Array.iteri
    (fun pc instr ->
      match instr with
      | Instr.Label _ -> leader.(pc) <- true
      | Instr.Bra (_, l) ->
          if pc + 1 < n then leader.(pc + 1) <- true;
          leader.(Kernel.label_pc k l) <- true
      | Instr.Exit -> if pc + 1 < n then leader.(pc + 1) <- true
      | _ -> ())
    k.body;
  let block_of_pc = Array.make n (-1) in
  let blocks = ref [] in
  let nblocks = ref 0 in
  let start = ref 0 in
  for pc = 0 to n - 1 do
    if pc > 0 && leader.(pc) then begin
      blocks :=
        { bid = !nblocks; first = !start; last = pc - 1; succs = []; preds = [] }
        :: !blocks;
      incr nblocks;
      start := pc
    end;
    block_of_pc.(pc) <- !nblocks
  done;
  blocks :=
    { bid = !nblocks; first = !start; last = n - 1; succs = []; preds = [] }
    :: !blocks;
  let blocks = Array.of_list (List.rev !blocks) in
  (* successor edges *)
  Array.iter
    (fun b ->
      let add_edge dst =
        if not (List.mem dst b.succs) then begin
          b.succs <- dst :: b.succs;
          let d = blocks.(dst) in
          if not (List.mem b.bid d.preds) then d.preds <- b.bid :: d.preds
        end
      in
      match k.body.(b.last) with
      | Instr.Bra (guard, l) ->
          add_edge block_of_pc.(Kernel.label_pc k l);
          (match guard with
          | Some _ when b.last + 1 < n -> add_edge block_of_pc.(b.last + 1)
          | Some _ | None -> ())
      | Instr.Exit -> ()
      | _ -> if b.last + 1 < n then add_edge block_of_pc.(b.last + 1))
    blocks;
  { kernel = k; blocks; block_of_pc }

let nblocks t = Array.length t.blocks
let block t bid = t.blocks.(bid)
let block_of_pc t pc = t.block_of_pc.(pc)

(* Blocks whose last instruction is Exit (or which fall off the end). *)
let exit_blocks t =
  Array.to_list t.blocks
  |> List.filter_map (fun b ->
         match t.kernel.Kernel.body.(b.last) with
         | Instr.Exit -> Some b.bid
         | _ -> if b.succs = [] then Some b.bid else None)

(* Reverse postorder over forward edges, starting at entry. *)
let reverse_postorder t =
  let n = nblocks t in
  let visited = Array.make n false in
  let order = ref [] in
  let rec dfs b =
    if not visited.(b) then begin
      visited.(b) <- true;
      List.iter dfs t.blocks.(b).succs;
      order := b :: !order
    end
  in
  dfs 0;
  !order

(* Graphviz rendering of the CFG (one record node per basic block). *)
let to_dot t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "digraph \"%s\" {\n  node [shape=box, fontname=monospace];\n"
       t.kernel.Kernel.kname);
  Array.iter
    (fun b ->
      let body = Buffer.create 128 in
      for pc = b.first to b.last do
        Buffer.add_string body
          (Printf.sprintf "%d: %s\\l" pc
             (String.concat ""
                (String.split_on_char '"'
                   (Instr.to_string t.kernel.Kernel.body.(pc)))))
      done;
      Buffer.add_string buf
        (Printf.sprintf "  B%d [label=\"B%d\\n%s\"];\n" b.bid b.bid
           (Buffer.contents body));
      List.iter
        (fun s -> Buffer.add_string buf (Printf.sprintf "  B%d -> B%d;\n" b.bid s))
        b.succs)
    t.blocks;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
