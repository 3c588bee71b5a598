(** A kernel launch: grid/block geometry, parameter bindings, the
    global-memory image, and the kernel's static analysis, verification
    and per-pc load classification that both simulators tag memory
    traffic with. *)

type t = {
  kernel : Ptx.Kernel.t;
  grid : int * int * int;
  block : int * int * int;
  params : (string, int64) Hashtbl.t;
  global : Mem.t;
  analysis : Dataflow.Depgraph.t;
      (** the kernel's one analysis: CFG, reaching definitions,
          dependence graph and the reconvergence table the SIMT stack
          reads *)
  diags : Ptx.Verify.diag list;
      (** the static verifier's diagnostics: warnings only, since
          [create] refuses a kernel with errors *)
  classes : Dataflow.Classify.result;
  decode : Decode.t;
}

val create :
  kernel:Ptx.Kernel.t ->
  grid:int * int * int ->
  block:int * int * int ->
  params:(string * int64) list ->
  global:Mem.t ->
  t
(** Verifies the kernel ({!Dataflow.Verify.verify_kernel}), then
    classifies its loads and predecodes it, all on the one analysis the
    verifier builds.  These depend only on the kernel value, so a
    relaunch of the same value reuses them.
    @raise Sim_error.Error ([Invalid_kernel]) when verification finds
    errors, or ([Unbound_param]) when a declared parameter is unbound. *)

val n_ctas : t -> int
val threads_per_cta : t -> int
val warps_per_cta : t -> warp_size:int -> int

val cta_coords : t -> int -> int * int * int
(** 3-D coordinates of a linearized CTA id (the paper's linearization:
    [x + y*dimx + z*dimx*dimy]). *)

val thread_coords : t -> int -> int * int * int

val load_class : t -> int -> Dataflow.Classify.load_class
(** Class of the global load at pc; [Deterministic] for non-loads. *)
