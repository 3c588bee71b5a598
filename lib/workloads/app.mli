(** Application descriptors: the 15 benchmarks of the paper's Table I,
    rewritten in the PTX-like ISA over synthetic datasets. *)

type category = Linear | Image | Graph

val category_name : category -> string

(** Dataset scale: [Small] keeps unit tests fast, [Default] is the
    bench setting, [Large] stresses the memory system harder. *)
type scale = Small | Default | Large

val scale_of_string : string -> scale
(** @raise Invalid_argument on unknown names. *)

val string_of_scale : scale -> string
(** Inverse of [scale_of_string]; used by the sweep JSON export. *)

(** One run of an application: a global-memory image plus a host driver
    yielding kernel launches one at a time (matching how CUDA host code
    loops kernels, e.g. bfs relaunching until the frontier empties).
    [check] verifies the computation against a host reference after the
    run completes. *)
type run = {
  global : Gsim.Mem.t;
  next_launch : unit -> Gsim.Launch.t option;
  check : unit -> bool;
}

type t = {
  name : string;
  category : category;
  description : string;
  seed : int;
      (** PRNG seed of the app's synthetic dataset ({!Prng.create}) —
          part of a run's content identity: the sweep cache folds it
          into job digests, so regenerating a dataset under a new seed
          invalidates cached results for the app. *)
  make : scale -> run;
}

val single_launch :
  global:Gsim.Mem.t -> check:(unit -> bool) -> Gsim.Launch.t -> run

val launch_list :
  global:Gsim.Mem.t ->
  check:(unit -> bool) ->
  (unit -> Gsim.Launch.t) list ->
  run
(** Plays a fixed list of (lazily built) launches in order. *)

val driven :
  global:Gsim.Mem.t ->
  check:(unit -> bool) ->
  max_iters:int ->
  (int -> Gsim.Launch.t option) ->
  run
(** Host-logic driver: [driver i] returns the i-th launch or [None];
    bounded by [max_iters] as a safety net. *)

val iter_launches : run -> (Gsim.Launch.t -> bool) -> unit
(** [iter_launches run f] passes each launch [run.next_launch] yields
    to [f], stopping at the first [None] or when [f] answers false.
    A driver that picks its next launch from simulated memory (bfs,
    sssp, ...) needs [f] to execute each launch it is given. *)

val kernel_launches : run -> Gsim.Launch.t list
(** The first launch of each distinct kernel (by name), in launch
    order.  No launch is executed, so iterative drivers see the
    initial memory image throughout. *)

val close_f32 : float -> float -> bool
(** Approximate equality with f32-appropriate tolerance. *)
