(* Predecoded per-pc tables; see the interface for the contract. *)

type t = {
  units : Exec.unit_class array;
  bra_target : int array;
  is_label : bool array;
  load_cls : Dataflow.Classify.load_class array;
  reconv : int array;
  alu : (Exec.state -> int -> unit) array;
}

let of_analysis dg (classes : Dataflow.Classify.result) =
  let kernel = Dataflow.Depgraph.kernel dg in
  let body = kernel.Ptx.Kernel.body in
  {
    units = Array.map Exec.unit_of_instr body;
    bra_target =
      Array.map
        (function
          | Ptx.Instr.Bra (_, l) -> Ptx.Kernel.label_pc kernel l
          | _ -> -1)
        body;
    is_label =
      Array.map (function Ptx.Instr.Label _ -> true | _ -> false) body;
    load_cls =
      Array.mapi
        (fun pc _ ->
          match Dataflow.Classify.class_of_global_load classes pc with
          | Some c -> c
          | None -> Dataflow.Classify.Deterministic)
        body;
    reconv = Dataflow.Depgraph.reconvergence dg;
    alu = Array.map Exec.compile_alu body;
  }
