(* Application descriptors: the 15 benchmarks of Table I, rewritten in
   the PTX-like ISA over synthetic datasets.

   An application builds a [run]: a global-memory image plus a host
   driver that yields kernel launches one at a time (matching how the
   CUDA host code loops kernels, e.g. bfs relaunching until the
   frontier empties).  [check] verifies the computation against a host
   reference after the run completes. *)

type category = Linear | Image | Graph

let category_name = function
  | Linear -> "Linear"
  | Image -> "Image"
  | Graph -> "Graph"

(* Dataset scale: [Small] keeps unit tests fast, [Default] is the bench
   setting, [Large] stresses the memory system harder. *)
type scale = Small | Default | Large

let scale_of_string = function
  | "small" -> Small
  | "default" -> Default
  | "large" -> Large
  | s -> invalid_arg ("App.scale_of_string: " ^ s)

let string_of_scale = function
  | Small -> "small"
  | Default -> "default"
  | Large -> "large"

type run = {
  global : Gsim.Mem.t;
  next_launch : unit -> Gsim.Launch.t option;
  check : unit -> bool;
}

type t = {
  name : string;
  category : category;
  description : string;
  seed : int; (* PRNG seed of the synthetic dataset (see Prng.create) *)
  make : scale -> run;
}

(* A run consisting of one kernel launch. *)
let single_launch ~global ~check launch =
  let fired = ref false in
  {
    global;
    next_launch =
      (fun () ->
        if !fired then None
        else begin
          fired := true;
          Some launch
        end);
    check;
  }

(* A run that plays a fixed list of launches in order (lazily built). *)
let launch_list ~global ~check launches =
  let remaining = ref launches in
  {
    global;
    next_launch =
      (fun () ->
        match !remaining with
        | [] -> None
        | mk :: rest ->
            remaining := rest;
            Some (mk ()));
    check;
  }

(* A run driven by host logic: [driver i] returns the i-th launch or
   None to stop; bounded by [max_iters] as a safety net. *)
let driven ~global ~check ~max_iters driver =
  let i = ref 0 in
  {
    global;
    next_launch =
      (fun () ->
        if !i >= max_iters then None
        else begin
          let l = driver !i in
          incr i;
          l
        end);
    check;
  }

(* Pull launches until the driver runs dry or [f] answers false. *)
let rec iter_launches run f =
  match run.next_launch () with
  | Some l when f l -> iter_launches run f
  | Some _ | None -> ()

(* First launch of each distinct kernel, in launch order.  Nothing is
   executed between launches, so an iterative driver sees the initial
   memory image. *)
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
