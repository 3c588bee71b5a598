(* Data-dependence graph at instruction granularity: an edge pc -> d
   means instruction [pc] uses a register (general or predicate) whose
   reaching definition is instruction [d].  A pc's edges are computed
   when first asked for, so a slice pays only for the pcs it visits. *)

type t = {
  kernel : Ptx.Kernel.t;
  reaching : Reaching.t;
  known : bool array; (* pc's edges computed *)
  deps : int list array; (* pc -> defining pcs *)
  uninit_uses : bool array; (* pc uses a register with no reaching def *)
}

let build (k : Ptx.Kernel.t) (r : Reaching.t) =
  let npc = Array.length k.Ptx.Kernel.body in
  { kernel = k; reaching = r; known = Array.make npc false;
    deps = Array.make npc []; uninit_uses = Array.make npc false }

let fill t pc =
  if not t.known.(pc) then begin
    t.known.(pc) <- true;
    let r = t.reaching and instr = t.kernel.Ptx.Kernel.body.(pc) in
    let add_node node =
      match Reaching.defs_reaching_node r ~pc ~node with
      | [] -> t.uninit_uses.(pc) <- true
      | ds -> t.deps.(pc) <- List.rev_append ds t.deps.(pc)
    in
    List.iter (fun reg -> add_node (Reaching.node_of_reg reg))
      (Ptx.Instr.uses instr);
    List.iter
      (fun p -> add_node (Reaching.node_of_pred ~nregs:r.Reaching.nregs p))
      (Ptx.Instr.puses instr);
    t.deps.(pc) <- List.sort_uniq compare t.deps.(pc)
  end

let deps t pc =
  fill t pc;
  t.deps.(pc)

let has_uninitialized_use t pc =
  fill t pc;
  t.uninit_uses.(pc)

(* Graphviz rendering of the dependence graph; loads are highlighted
   since they are the classifier's taint sources. *)
let to_dot t =
  let k = t.kernel in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "digraph \"%s-deps\" {\n  node [shape=box, fontname=monospace];\n"
       k.Ptx.Kernel.kname);
  Array.iteri
    (fun pc instr ->
      let label =
        String.concat ""
          (String.split_on_char '"' (Ptx.Instr.to_string instr))
      in
      let attrs =
        match Ptx.Instr.loads_from_memory instr with
        | Some _ -> ", style=filled, fillcolor=lightcoral"
        | None -> ""
      in
      if deps t pc <> [] || Ptx.Instr.defs instr <> [] then
        Buffer.add_string buf
          (Printf.sprintf "  I%d [label=\"%d: %s\"%s];\n" pc pc label attrs))
    k.Ptx.Kernel.body;
  Array.iteri
    (fun pc _ ->
      List.iter
        (fun d -> Buffer.add_string buf (Printf.sprintf "  I%d -> I%d;\n" pc d))
        (deps t pc))
    k.Ptx.Kernel.body;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* Every pc reachable from [roots] through dependence edges, each
   once, most recently reached first.  A pc whose instruction satisfies
   [stop] is in the slice, but the walk does not follow its edges. *)
let slice t ~stop roots =
  let body = t.kernel.Ptx.Kernel.body in
  let visited = Array.make (Array.length body) false in
  let acc = ref [] in
  let rec go pc =
    if not visited.(pc) then begin
      visited.(pc) <- true;
      acc := pc :: !acc;
      if not (stop body.(pc)) then List.iter go (deps t pc)
    end
  in
  List.iter go roots;
  !acc
