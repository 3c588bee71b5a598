(* A kernel launch: grid/block geometry, parameter bindings, the global
   memory image, and the kernel's static analysis, verification and
   per-pc load classification that both simulators tag memory traffic
   with. *)

type t = {
  kernel : Ptx.Kernel.t;
  grid : int * int * int;
  block : int * int * int;
  params : (string, int64) Hashtbl.t;
  global : Mem.t;
  analysis : Dataflow.Depgraph.t;
  diags : Ptx.Verify.diag list;
  classes : Dataflow.Classify.result;
  decode : Decode.t;
}

(* The static facts — the kernel's one analysis (CFG, reaching
   definitions, dependence graph, reconvergence table), the verifier's
   diagnostics, the classification and the predecoded dispatch tables
   — depend only on the kernel, but iterative applications relaunch
   the same kernel value dozens to hundreds of times.  Memoize them on
   the kernel's physical identity ([Ptx.Kernel.t] is immutable once
   built), not its name; the move-to-front list keeps the handful of
   live kernels at the head and the cap bounds growth for callers that
   rebuild kernels per launch. *)
type static = {
  s_analysis : Dataflow.Depgraph.t;
  s_diags : Ptx.Verify.diag list;
  s_classes : Dataflow.Classify.result;
  s_decode : Decode.t;
}

let static_cache : (Ptx.Kernel.t * static) list ref = ref []

let static_cache_cap = 64

let static_of_kernel kernel =
  match List.partition (fun (k, _) -> k == kernel) !static_cache with
  | ((_, s) as e) :: _, rest ->
      static_cache := e :: rest;
      s
  | [], _ ->
      let kname = kernel.Ptx.Kernel.kname in
      (* Static verification up front: a kernel that fails here would
         otherwise surface as a confusing runtime fault
         mid-simulation. *)
      let diags, analysis = Dataflow.Verify.verify_kernel kernel in
      let analysis =
        match (Ptx.Verify.errors diags, analysis) with
        | [], Some analysis -> analysis
        | errs, _ ->
            Sim_error.error ~kernel:kname Sim_error.Invalid_kernel
              "kernel failed verification: %s"
              (String.concat "; " (List.map Ptx.Verify.to_string errs))
      in
      let classes = Dataflow.Classify.classify analysis in
      let s =
        {
          s_analysis = analysis;
          s_diags = diags;
          s_classes = classes;
          s_decode = Decode.of_analysis analysis classes;
        }
      in
      static_cache :=
        List.filteri
          (fun i _ -> i < static_cache_cap)
          ((kernel, s) :: !static_cache);
      s

let create ~kernel ~grid ~block ~params ~global =
  let kname = kernel.Ptx.Kernel.kname in
  let s = static_of_kernel kernel in
  let tbl = Hashtbl.create 16 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) params;
  List.iter
    (fun (p : Ptx.Kernel.param) ->
      if not (Hashtbl.mem tbl p.pname) then
        let bound =
          List.map fst params |> List.sort compare |> String.concat ", "
        in
        Sim_error.error ~kernel:kname Sim_error.Unbound_param
          "parameter %s is declared but not bound at launch (bound: %s)"
          p.pname
          (if bound = "" then "none" else bound))
    kernel.Ptx.Kernel.params;
  {
    kernel;
    grid;
    block;
    params = tbl;
    global;
    analysis = s.s_analysis;
    diags = s.s_diags;
    classes = s.s_classes;
    decode = s.s_decode;
  }

let n_ctas t =
  let x, y, z = t.grid in
  x * y * z

let threads_per_cta t =
  let x, y, z = t.block in
  x * y * z

let warps_per_cta t ~warp_size =
  (threads_per_cta t + warp_size - 1) / warp_size

(* 3-D coordinates of the linearized CTA id (paper's linearization:
   CtaId.x + CtaId.y*CtaDim.x + CtaId.z*CtaDim.x*CtaDim.y). *)
let cta_coords t lin =
  let gx, gy, _ = t.grid in
  (lin mod gx, lin / gx mod gy, lin / (gx * gy))

let thread_coords t linear_tid =
  let bx, by, _ = t.block in
  (linear_tid mod bx, linear_tid / bx mod by, linear_tid / (bx * by))

let load_class t pc = t.decode.Decode.load_cls.(pc)
