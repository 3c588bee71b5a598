(* Static lane-stride analysis of load addresses.

   The paper observes that deterministic loads "tend to generate
   coalesced memory accesses" because consecutive threads compute
   consecutive addresses.  This module turns that observation into a
   static prediction by abstract interpretation over an affine
   lane-coefficient domain:

     Kon k     a known integer constant
     Affv a    unknown-but-uniform base + known coefficients over the
               lane-varying symbols tid.x/tid.y/tid.z/laneid
               (a zero coefficient vector is a warp-uniform value)
     Unknown   lane-variant with unknown shape (data-dependent
               addresses, loop-carried values, irregular arithmetic)

   Given the launch's block shape, an affine address yields the exact
   per-lane offsets of a fully-active warp, and hence the number of
   128-byte lines — coalesced requests — the warp touches.  This also
   covers 2-D blocks where one warp spans several tid.y rows.  Array
   bases are assumed line-aligned (cudaMalloc guarantees 256-byte
   alignment; the workload Layout allocator aligns to 128). *)

open Ptx.Types

(* Coefficients of the lane-varying symbols. *)
type aff = { ax : int64; ay : int64; az : int64; al : int64 }

let zero_aff = { ax = 0L; ay = 0L; az = 0L; al = 0L }

(* Grouped-affine: per-(tid.y, tid.z) groups with unknown-but-distinct
   bases (e.g. [tid.y * width] with unknown width) plus known x/lane
   coefficients within each group. *)
type gaff = { gax : int64; gal : int64 }

type value =
  | Kon of int64
  | Affv of aff
  | Gaff of gaff
  | Unknown

let uniform = Affv zero_aff

let is_uniformish = function
  | Kon _ -> true
  | Affv a -> a = zero_aff
  | Gaff _ | Unknown -> false

(* y/z-only affine values (no x/lane variation) *)
let is_yz_only = function
  | Affv a -> a.ax = 0L && a.al = 0L && a <> zero_aff
  | Kon _ | Gaff _ | Unknown -> false

let aff_map2 f a b =
  { ax = f a.ax b.ax; ay = f a.ay b.ay; az = f a.az b.az; al = f a.al b.al }

let aff_scale k a =
  { ax = Int64.mul k a.ax; ay = Int64.mul k a.ay; az = Int64.mul k a.az;
    al = Int64.mul k a.al }

let add v w =
  match (v, w) with
  | Kon x, Kon y -> Kon (Int64.add x y)
  | Kon _, Affv a | Affv a, Kon _ -> Affv a
  | Affv a, Affv b -> Affv (aff_map2 Int64.add a b)
  | Gaff g, Kon _ | Kon _, Gaff g -> Gaff g
  | Gaff g, Affv a | Affv a, Gaff g ->
      (* known y/z terms shift group bases, which stay group-distinct *)
      Gaff { gax = Int64.add g.gax a.ax; gal = Int64.add g.gal a.al }
  | Gaff a, Gaff b ->
      Gaff { gax = Int64.add a.gax b.gax; gal = Int64.add a.gal b.gal }
  | Unknown, _ | _, Unknown -> Unknown

let neg = function
  | Kon x -> Kon (Int64.neg x)
  | Affv a -> Affv (aff_scale (-1L) a)
  | Gaff g -> Gaff { gax = Int64.neg g.gax; gal = Int64.neg g.gal }
  | Unknown -> Unknown

let sub v w = add v (neg w)

let mul v w =
  match (v, w) with
  | Kon 0L, _ | _, Kon 0L -> Kon 0L
  | Kon x, Kon y -> Kon (Int64.mul x y)
  | Kon k, Affv a | Affv a, Kon k -> Affv (aff_scale k a)
  | Kon k, Gaff g | Gaff g, Kon k ->
      Gaff { gax = Int64.mul k g.gax; gal = Int64.mul k g.gal }
  | Affv a, Affv b when a = zero_aff && b = zero_aff -> uniform
  | (Affv _ as y), (Affv u as v') when is_yz_only y && v' = uniform ->
      ignore u;
      (* y/z term scaled by an unknown uniform: distinct per-group bases *)
      Gaff { gax = 0L; gal = 0L }
  | (Affv u as v'), (Affv _ as y) when is_yz_only y && v' = uniform ->
      ignore u;
      Gaff { gax = 0L; gal = 0L }
  | Gaff g, Affv u when Affv u = uniform && g.gax = 0L && g.gal = 0L ->
      Gaff g
  | Affv u, Gaff g when Affv u = uniform && g.gax = 0L && g.gal = 0L ->
      Gaff g
  | Affv _, Affv _ | Gaff _, _ | _, Gaff _ -> Unknown
  | Unknown, _ | _, Unknown -> Unknown

let shl v w =
  match w with
  | Kon k when k >= 0L && k < 62L ->
      mul v (Kon (Int64.shift_left 1L (Int64.to_int k)))
  | Kon _ -> Unknown
  | Affv _ | Gaff _ | Unknown ->
      if is_uniformish v && is_uniformish w then uniform else Unknown

(* Any pure ALU operation over lane-invariant inputs stays
   lane-invariant, whatever it computes. *)
let opaque_op operands =
  if List.for_all is_uniformish operands then uniform else Unknown

(* ------------- per-kernel analysis ------------- *)

let sreg_value = function
  | Tid X -> Affv { zero_aff with ax = 1L }
  | Tid Y -> Affv { zero_aff with ay = 1L }
  | Tid Z -> Affv { zero_aff with az = 1L }
  | Laneid -> Affv { zero_aff with al = 1L }
  | Ntid _ | Ctaid _ | Nctaid _ | Warpid -> uniform

let operand_value dg values ~pc (op : operand) =
  match op with
  | Imm i -> Kon i
  | Fimm _ -> uniform
  | Sreg s -> sreg_value s
  | Reg reg -> (
      match Reaching.defs_reaching_reg (Depgraph.reaching dg) ~pc ~reg with
      | [] -> Unknown (* no reaching definition: be conservative *)
      | d :: rest ->
          (* a join is precise only when every definition agrees *)
          let v0 = values.(d) in
          if List.for_all (fun d' -> values.(d') = v0) rest then v0
          else Unknown)

let analyze_instr dg values pc (i : Ptx.Instr.t) =
  let ov = operand_value dg values ~pc in
  match i with
  | Ld_param _ -> uniform
  | Mov (_, s) -> ov s
  | Iop (Add, _, a, b) -> add (ov a) (ov b)
  | Iop (Sub, _, a, b) -> sub (ov a) (ov b)
  | Iop (Mul, _, a, b) -> mul (ov a) (ov b)
  | Iop (Shl, _, a, b) -> shl (ov a) (ov b)
  | Iop ((Mulhi | Div | Rem | Min | Max | Band | Bor | Bxor | Shr), _, a, b)
    ->
      opaque_op [ ov a; ov b ]
  | Mad (_, a, b, c) -> add (mul (ov a) (ov b)) (ov c)
  | Cvt (dt, _, _, a) when not (dtype_is_float dt) -> ov a
  | Cvt (_, _, _, a) -> opaque_op [ ov a ]
  | Fop (_, _, _, a, b) -> opaque_op [ ov a; ov b ]
  | Fma (_, _, a, b, c) -> opaque_op [ ov a; ov b; ov c ]
  | Funary (_, _, _, a) -> opaque_op [ ov a ]
  | Selp (_, a, b, _) -> opaque_op [ ov a; ov b ]
  | Ld _ | Atom _ -> Unknown (* data-dependent value *)
  | St _ | Setp _ | Pnot _ | Pand _ | Por _ | Bra _ | Bar | Exit | Label _ ->
      Unknown

(* [values.(pc)], the abstract value instruction [pc] defines, by
   forward passes to a fixpoint: straight-line code stabilizes in one;
   anything whose abstract value changes between passes (loop-carried
   definitions) collapses to Unknown. *)
let analyze dg =
  let body = (Depgraph.kernel dg).Ptx.Kernel.body in
  let values = Array.make (Array.length body) Unknown in
  Array.iteri (fun pc i -> values.(pc) <- analyze_instr dg values pc i) body;
  let unstable = ref true in
  let rounds = ref 0 in
  while !unstable && !rounds < 4 do
    unstable := false;
    incr rounds;
    Array.iteri
      (fun pc i ->
        let v = analyze_instr dg values pc i in
        if v <> values.(pc) then begin
          values.(pc) <- Unknown;
          unstable := true
        end)
      body
  done;
  values

(* ------------- coalescing prediction ------------- *)

(* [int] payloads are the predicted coalesced requests of one
   fully-active warp. *)
type prediction =
  | Broadcast (* all lanes read one address: 1 request *)
  | Coalesced of int (* 1-2 lines per warp *)
  | Strided of int (* more lines, but statically known *)
  | Irregular (* data-dependent: the uncoalesced-burst candidates *)

let string_of_prediction = function
  | Broadcast -> "broadcast"
  | Coalesced n -> Printf.sprintf "coalesced(%d req/warp)" n
  | Strided n -> Printf.sprintf "strided(%d req/warp)" n
  | Irregular -> "irregular"

let address_value dg values pc =
  match (Depgraph.kernel dg).Ptx.Kernel.body.(pc) with
  | Ptx.Instr.Ld (_, _, _, a) | Ptx.Instr.Atom (_, _, _, a, _) ->
      add (operand_value dg values ~pc a.abase) (Kon (Int64.of_int a.aoffset))
  | _ -> invalid_arg "Stride.address_value: pc is not a load"

(* The machine every prediction assumes: Table II's 32-lane warps and
   128-byte lines. *)
let warp_size = 32
let line_size = 128L

(* Distinct [line_size]-byte lines a fully-active warp touches when
   each lane's byte offset follows the affine form [a], for the given
   block shape.  A [grouped] form has unknown, assumed-disjoint bases
   per (tid.y, tid.z) group, so its lines are counted per group.
   Offsets below the base round down to the line before it. *)
let lines ~block ~grouped a =
  let bx, by, _bz = block in
  let bx = max 1 bx and by = max 1 by in
  let seen = Hashtbl.create 8 in
  for lane = 0 to warp_size - 1 do
    let x = lane mod bx in
    let y = lane / bx mod by in
    let z = lane / (bx * by) in
    let term c v = Int64.mul c (Int64.of_int v) in
    let off =
      Int64.add
        (Int64.add (term a.ax x) (term a.ay y))
        (Int64.add (term a.az z) (term a.al lane))
    in
    let line =
      let q = Int64.div off line_size in
      if Int64.compare (Int64.rem off line_size) 0L < 0 then Int64.pred q
      else q
    in
    Hashtbl.replace seen ((if grouped then (y, z) else (0, 0)), line) ()
  done;
  Hashtbl.length seen

let predict_value ~block v =
  let requests ~grouped a =
    let n = lines ~block ~grouped a in
    if n <= 2 then Coalesced n else Strided n
  in
  match v with
  | Unknown -> Irregular
  | Kon _ -> Broadcast
  | Affv a when a = zero_aff -> Broadcast
  | Affv a -> requests ~grouped:false a
  | Gaff g -> requests ~grouped:true { zero_aff with ax = g.gax; al = g.gal }

type load_prediction = { lp_pc : int; lp_prediction : prediction }

(* Predict the warp-level coalescing of every global load, given the
   launch's block shape (default: a 1-D block, the common layout). *)
let predict ?(block = (256, 1, 1)) dg =
  let values = analyze dg in
  List.map
    (fun pc ->
      { lp_pc = pc;
        lp_prediction =
          predict_value ~block (address_value dg values pc) })
    (Ptx.Kernel.global_load_pcs (Depgraph.kernel dg))

let pp_predictions ?block ppf dg =
  List.iter
    (fun lp ->
      Format.fprintf ppf "  pc %4d  %s@\n" lp.lp_pc
        (string_of_prediction lp.lp_prediction))
    (predict ?block dg)
