(* Application descriptors: the 15 benchmarks of Table I, rewritten in
   the PTX-like ISA over synthetic datasets.

   An application builds a [run]: a global-memory image plus a host
   program that yields kernel launches one at a time (the CUDA host
   loop, e.g. bfs relaunching until the frontier empties).  [check]
   verifies the computation against a host reference after the run
   completes. *)

type category = Linear | Image | Graph

let category_name = function
  | Linear -> "Linear"
  | Image -> "Image"
  | Graph -> "Graph"

(* Dataset scale: [Small] keeps unit tests fast, [Default] is the bench
   setting, [Large] stresses the memory system harder. *)
type scale = Small | Default | Large

let string_of_scale = function
  | Small -> "small"
  | Default -> "default"
  | Large -> "large"

let scales = [ Small; Default; Large ]

let scale_of_string s =
  match List.find_opt (fun x -> String.equal (string_of_scale x) s) scales with
  | Some x -> x
  | None -> invalid_arg ("App.scale_of_string: " ^ s)

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
  seed : int; (* PRNG seed of the synthetic dataset (see Prng.create) *)
  make : scale -> run;
}

type launch =
  kernel:Ptx.Kernel.t ->
  grid:int * int * int ->
  block:int * int * int ->
  params:(string * int64) list ->
  unit

(* A host program runs on its own fiber: each [launch] builds the
   launch against the run's image and performs [Yield], which parks the
   program until the consumer pulls again.  The consumer executes the
   launch in between, so the program's flag checks see its effects. *)
type _ Effect.t += Yield : Gsim.Launch.t -> unit Effect.t

type parked = (unit, Gsim.Launch.t option) Effect.Deep.continuation

exception Closed

(* Set by [iter_launches] for the one extra pull with which it ends a
   run it stopped early: that pull unwinds the parked program instead of
   resuming it.  OCaml frees a fiber's stack only when the fiber ends,
   so a program left parked would keep 1-5 KB for the life of the
   process, and sweep and serve workers run capped job after job. *)
let closing = ref false

let host ~global ~check program =
  let parked : parked option ref = ref None in
  let handler =
    {
      Effect.Deep.retc = (fun () -> None);
      exnc = (function Closed -> None | e -> raise e);
      effc =
        (fun (type a) (e : a Effect.t) ->
          match e with
          | Yield l ->
              Some
                (fun (k : (a, _) Effect.Deep.continuation) ->
                  parked := Some k;
                  Some l)
          | _ -> None);
    }
  in
  let launch ~kernel ~grid ~block ~params =
    Effect.perform
      (Yield (Gsim.Launch.create ~kernel ~grid ~block ~params ~global))
  in
  let started = ref false in
  let next_launch () =
    match !parked with
    | Some k ->
        parked := None;
        if !closing then Effect.Deep.discontinue k Closed
        else Effect.Deep.continue k ()
    | None when not !started ->
        started := true;
        Effect.Deep.match_with program launch handler
    | None -> None
  in
  (* The program keeps its loop state in its own frames, so starting it
     afresh replays it from its first line; a parked run is unwound
     first, as [iter_launches] ends one. *)
  let restart () =
    Option.iter
      (fun k ->
        parked := None;
        ignore (Effect.Deep.discontinue k Closed))
      !parked;
    started := false
  in
  { global; next_launch; restart; check }

(* do { flag = 0; body } while (flag && ++i < max_iters): the
   relaunch-until-stable loop of the LonestarGPU hosts. *)
let while_flag ~global ~flag ~max_iters body =
  let rec pass i =
    Gsim.Mem.set_u32 global flag 0;
    body ();
    if Gsim.Mem.get_u32 global flag <> 0 && i + 1 < max_iters then
      pass (i + 1)
  in
  pass 0

let v ~name ~category ~description ~seed make =
  {
    name;
    category;
    description;
    seed;
    make = (fun scale -> make (Prng.create seed) scale);
  }

(* Pull launches until the program runs dry or [f] answers false; in
   the second case, end the program with one closing pull. *)
let rec iter_launches run f =
  match run.next_launch () with
  | Some l when f l -> iter_launches run f
  | Some _ ->
      closing := true;
      Fun.protect
        ~finally:(fun () -> closing := false)
        (fun () -> ignore (run.next_launch ()))
  | None -> ()

(* First launch of each distinct kernel, in launch order.  Nothing is
   executed between launches, so an iterative host program sees the
   initial memory image. *)
let kernel_launches run =
  let seen = Hashtbl.create 8 in
  let acc = ref [] in
  iter_launches run (fun l ->
      let name = l.Gsim.Launch.kernel.Ptx.Kernel.kname in
      if not (Hashtbl.mem seen name) then begin
        Hashtbl.add seen name ();
        acc := l :: !acc
      end;
      true);
  List.rev !acc

let close_f32 a b =
  let d = Float.abs (a -. b) in
  d <= 1e-3 +. (1e-3 *. Float.abs b)
