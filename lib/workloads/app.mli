(** Application descriptors: the 15 benchmarks of the paper's Table I,
    rewritten in the PTX-like ISA over synthetic datasets. *)

type category = Linear | Image | Graph

val category_name : category -> string

(** Dataset scale: [Small] keeps unit tests fast, [Default] is the
    bench setting, [Large] stresses the memory system harder. *)
type scale = Small | Default | Large

val string_of_scale : scale -> string
(** ["small"] / ["default"] / ["large"]: the one spelling, used by the
    CLI, the sweep JSON and the cache. *)

val scales : scale list

val scale_of_string : string -> scale
(** Inverse of {!string_of_scale} over {!scales}.
    @raise Invalid_argument on unknown names. *)

(** One run of an application: a global-memory image plus a host
    program yielding kernel launches one at a time (the CUDA host loop,
    e.g. bfs relaunching until the frontier empties; see {!host}).
    [restart ()] starts the program again from its first line, so one
    dataset can serve two walks (see {!host}).  [check] verifies the
    computation against a host reference after the run completes. *)
type run = {
  global : Gsim.Mem.t;
  next_launch : unit -> Gsim.Launch.t option;
  restart : unit -> unit;
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

type launch =
  kernel:Ptx.Kernel.t ->
  grid:int * int * int ->
  block:int * int * int ->
  params:(string * int64) list ->
  unit
(** How a host program launches a kernel: geometry and parameter
    bindings only; {!host} binds the run's global image. *)

val host : global:Gsim.Mem.t -> check:(unit -> bool) -> (launch -> unit) -> run
(** [host ~global ~check program] is the run whose launches are the
    ones [program launch] makes, in order: the CUDA host loop written
    in direct style, e.g. [do { flag = 0; k1; k2 } while (flag && i <
    64)].  The program runs only inside [next_launch]: each pull
    resumes it up to its next [launch], which creates the
    {!Gsim.Launch.t} against [global] and suspends the program there.
    Once the program returns, every pull answers [None] (until
    [restart]).

    The contract with the consumer: it executes each launch before it
    pulls the next, so a program that reads simulated memory (bfs's
    frontier flag) sees what the earlier launches wrote.  A consumer
    that pulls without executing ({!kernel_launches}, the sweep
    fingerprint) sees the initial image throughout, hence one
    iteration of such a loop.  An exception the program raises
    surfaces from the [next_launch] that resumed it, and later pulls
    answer [None].  A consumer may stop pulling at any point.
    {!iter_launches} then unwinds the parked program (its
    [Fun.protect] finalisers run); a consumer that just stops calling
    [next_launch] leaves the program's fiber stack, a few KB, to the
    end of the process.

    A host program may run more than once.  [restart ()] unwinds a
    parked program (as {!iter_launches} does) and lets the next pull
    start [program] again from its first line.  It does not touch
    [global]: a caller that wants the first walk's launches again puts
    the image back first ({!Gsim.Mem.restore_image} of a copy taken
    before the first pull).  For that to replay the same launches,
    [program] keeps all its state in its own frames (loop counters,
    {!while_flag}, mst's [round]) and mutates nothing but [global]:
    whatever else it reads was fixed when [make] returned.  All 15
    suite programs do (test_workloads' [restart replays] cases). *)

val while_flag :
  global:Gsim.Mem.t -> flag:int -> max_iters:int -> (unit -> unit) -> unit
(** [while_flag ~global ~flag ~max_iters body] is the host loop
    [do { flag = 0; body } while (flag && ++i < max_iters)]: it clears
    the u32 at address [flag], runs [body] (whose kernels set the flag
    when they change anything), and repeats while the flag is set, at
    most [max_iters] times. *)

val v :
  name:string ->
  category:category ->
  description:string ->
  seed:int ->
  (Prng.t -> scale -> run) ->
  t
(** [v ~name ~category ~description ~seed make] is the app whose
    [make scale] runs [make (Prng.create seed) scale]: the dataset
    PRNG comes from the very [seed] field the sweep cache digests. *)

val iter_launches : run -> (Gsim.Launch.t -> bool) -> unit
(** [iter_launches run f] passes each launch [run.next_launch] yields
    to [f], stopping at the first [None] or when [f] answers false.
    A host program that picks its next launch from simulated memory
    (bfs, sssp, ...) needs [f] to execute each launch it is given.
    When [f] answers false, [iter_launches] pulls once more to end the
    run: a {!host} program is unwound at the launch it is parked on,
    and that pull yields nothing. *)

val kernel_launches : run -> Gsim.Launch.t list
(** The first launch of each distinct kernel (by name), in launch
    order.  No launch is executed, so an iterative host program sees
    the initial memory image throughout (bfs yields one iteration). *)

val close_f32 : float -> float -> bool
(** Approximate equality with f32-appropriate tolerance. *)
