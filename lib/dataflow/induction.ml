(* Induction-variable and sequential-walk detection.

   Non-deterministic loads are not all alike: an edge-array walk
   (spmv's vals[e], bfs's edges[i]) has a data-dependent *base* but
   advances by a fixed step every loop iteration — exactly the shape
   the indirect prefetcher of the paper's Section X.A discussion
   targets.  This pass recognizes such loads.

   A register is an induction variable at a use point when its reaching
   definitions are exactly an initialization plus a self-increment by a
   constant ([i = i + c]).  A load "walks" when its address register
   either is an induction variable itself (pointer bumping) or is an
   affine function of one ([mad i, s, base]): the walk step is the
   byte distance between consecutive iterations' accesses. *)

open Ptx.Types

(* The self-increment step of [reg] at [pc], when its reaching
   definitions form the induction pattern. *)
let induction_step (k : Ptx.Kernel.t) (r : Reaching.t) ~pc ~reg =
  let defs = Reaching.defs_reaching_reg r ~pc ~reg in
  let self_add d =
    match k.Ptx.Kernel.body.(d) with
    | Ptx.Instr.Iop (Add, rd, Reg rs, Imm c) when rd = reg && rs = reg ->
        Some c
    | Ptx.Instr.Iop (Add, rd, Imm c, Reg rs) when rd = reg && rs = reg ->
        Some c
    | Ptx.Instr.Iop (Sub, rd, Reg rs, Imm c) when rd = reg && rs = reg ->
        Some (Int64.neg c)
    | _ -> None
  in
  match defs with
  | [ d1; d2 ] -> (
      match (self_add d1, self_add d2) with
      | Some c, None | None, Some c -> Some c
      | _ -> None)
  | _ -> None

(* Byte step per loop iteration of the load at [pc], when its address
   walks sequentially. *)
let walk_step (k : Ptx.Kernel.t) (r : Reaching.t) pc =
  let addr_reg =
    match k.Ptx.Kernel.body.(pc) with
    | Ptx.Instr.Ld (_, _, _, a) | Ptx.Instr.Atom (_, _, _, a, _) -> (
        match a.abase with Reg reg -> Some reg | _ -> None)
    | _ -> None
  in
  match addr_reg with
  | None -> None
  | Some reg -> (
      (* pointer bumping: the address register is the induction *)
      match induction_step k r ~pc ~reg with
      | Some c -> Some c
      | None -> (
          (* affine of an induction: a single def combining an
             induction variable with a constant scale *)
          match Reaching.defs_reaching_reg r ~pc ~reg with
          | [ d ] -> (
              let scaled e s =
                Option.map
                  (fun c -> Int64.mul c s)
                  (induction_step k r ~pc:d ~reg:e)
              in
              match k.Ptx.Kernel.body.(d) with
              | Ptx.Instr.Mad (_, Reg e, Imm s, _) -> scaled e s
              | Ptx.Instr.Mad (_, Imm s, Reg e, _) -> scaled e s
              | Ptx.Instr.Iop (Add, _, Reg e, _)
              | Ptx.Instr.Iop (Add, _, _, Reg e) ->
                  scaled e 1L
              | _ -> None)
          | _ -> None))

type walk = { w_pc : int; w_step : int }

(* Every global load that walks sequentially, with its per-iteration
   byte step. *)
let walking_loads dg =
  let k = Depgraph.kernel dg and r = Depgraph.reaching dg in
  List.filter_map
    (fun pc ->
      match walk_step k r pc with
      | Some s when s <> 0L -> Some { w_pc = pc; w_step = Int64.to_int s }
      | _ -> None)
    (Ptx.Kernel.global_load_pcs k)
