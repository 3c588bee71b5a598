(* Workload-level tests: every application runs to completion under the
   functional simulator at Small scale and passes its host-reference
   check; dataset generators satisfy their structural invariants. *)

module App = Workloads.App
module Dataset = Workloads.Dataset
module Prng = Workloads.Prng

(* ---------------- per-app end-to-end checks ---------------- *)

(* unchecked functional run through the unified entry point *)
let run_func app scale =
  match
    Critload.Runner.run ~mode:Critload.Runner.Func ~scale ~check:false app
  with
  | Ok r -> Critload.Runner.Report.func_exn r
  | Error e -> raise (Gsim.Sim_error.Error e)

let run_app_check (app : App.t) () =
  let run = app.App.make App.Small in
  let launches = ref 0 in
  App.iter_launches run (fun launch ->
      incr launches;
      ignore (Gsim.Funcsim.run launch);
      true);
  Alcotest.(check bool)
    (app.App.name ^ " verifies against its host reference")
    true (run.App.check ());
  Alcotest.(check bool) "at least one launch" true (!launches > 0)

let app_tests =
  List.map
    (fun (app : App.t) ->
      Alcotest.test_case app.App.name `Quick (run_app_check app))
    Workloads.Suite.all

(* ---------------- host programs ---------------- *)

(* Adapter tests launch an empty kernel and never execute it: the grid
   width tags each launch. *)
let empty_kernel = Ptx.Builder.finish (Ptx.Builder.create ~name:"e" ~params:[] ())

let tagged_host program =
  App.host ~global:(Gsim.Mem.create 128) ~check:(fun () -> true)
    (fun launch ->
      program (fun i ->
          launch ~kernel:empty_kernel ~grid:(i, 1, 1) ~block:(32, 1, 1)
            ~params:[]))

let tag l =
  let x, _, _ = l.Gsim.Launch.grid in
  x

let pull run = Option.map tag (run.App.next_launch ())

(* The program runs only up to its next launch: the host steps and the
   consumer's pulls interleave one to one, in launch order. *)
let test_host_order () =
  let log = ref [] in
  let run =
    tagged_host (fun launch ->
        for i = 1 to 3 do
          log := Printf.sprintf "host %d" i :: !log;
          launch i
        done)
  in
  App.iter_launches run (fun l ->
      log := Printf.sprintf "pull %d" (tag l) :: !log;
      true);
  Alcotest.(check (list string))
    "interleaved"
    [ "host 1"; "pull 1"; "host 2"; "pull 2"; "host 3"; "pull 3" ]
    (List.rev !log)

let test_host_none_after_end () =
  let run = tagged_host (fun launch -> launch 1; launch 2) in
  let pulls = List.init 5 (fun _ -> pull run) in
  Alcotest.(check (list (option int)))
    "two launches, then None" [ Some 1; Some 2; None; None; None ] pulls

exception Host_failed

let test_host_exception () =
  let run =
    tagged_host (fun launch ->
        launch 1;
        raise Host_failed)
  in
  Alcotest.(check (option int)) "first launch" (Some 1) (pull run);
  Alcotest.check_raises "raised by the pull that resumed the program"
    Host_failed (fun () -> ignore (run.App.next_launch ()));
  Alcotest.(check (option int)) "then None" None (pull run)

(* A consumer may stop partway: the program runs no further than the
   launch it is parked on, and [iter_launches] unwinds it there. *)
let test_host_stopped_early () =
  let steps = ref 0 and unwound = ref false in
  let counting () =
    tagged_host (fun launch ->
        Fun.protect
          ~finally:(fun () -> unwound := true)
          (fun () ->
            for i = 1 to 10 do
              incr steps;
              launch i
            done))
  in
  let run = counting () in
  ignore (pull run);
  ignore (pull run);
  Alcotest.(check int) "direct pulls: parked at the second launch" 2 !steps;
  Alcotest.(check bool) "direct pulls: still parked" false !unwound;
  steps := 0;
  let run = counting () in
  App.iter_launches run (fun l -> tag l < 2);
  Alcotest.(check int) "iter_launches: ran no further" 2 !steps;
  Alcotest.(check bool) "iter_launches: unwound" true !unwound;
  Alcotest.(check (option int)) "then None" None (pull run)

(* [restart] on a parked program unwinds it, and the next pull starts
   the program again from its first line. *)
let test_host_restart_parked () =
  let starts = ref 0 and unwound = ref 0 in
  let run =
    tagged_host (fun launch ->
        incr starts;
        Fun.protect
          ~finally:(fun () -> incr unwound)
          (fun () -> launch 1; launch 2))
  in
  Alcotest.(check (option int)) "first pull" (Some 1) (pull run);
  run.App.restart ();
  Alcotest.(check int) "parked program unwound" 1 !unwound;
  Alcotest.(check (list (option int)))
    "restarted from the first launch" [ Some 1; Some 2; None ]
    (List.init 3 (fun _ -> pull run));
  Alcotest.(check int) "program started twice" 2 !starts

(* Two different kernels built under one name:
   [same_name_kernel ~gather:false] loads a[tid] (D);
   [same_name_kernel ~gather:true] loads a[a[tid]] (N), after one more
   load that moves its branch.  The relaunch memo is keyed by the
   kernel value, not its name, so each launch, a relaunch included,
   carries its own kernel's classes and reconvergence table. *)
let same_name_kernel ~gather =
  let module B = Ptx.Builder in
  let open Ptx.Types in
  let b = B.create ~name:"same" ~params:[ Workloads.Kutil.u64 "a" ] () in
  let a = B.ld_param b "a" in
  let idx =
    if gather then B.ld b Global U32 (B.at b ~base:a ~scale:4 B.tid_x)
    else B.tid_x
  in
  B.if_ b (B.setp b Lt B.tid_x (B.int 4)) (fun () ->
      let v = B.ld b Global U32 (B.at b ~base:a ~scale:4 idx) in
      B.st b Global U32 (B.at b ~base:a ~scale:4 B.tid_x) v);
  B.finish b

let test_host_same_name_kernels () =
  let kd = same_name_kernel ~gather:false in
  let kn = same_name_kernel ~gather:true in
  let run =
    App.host ~global:(Gsim.Mem.create 128) ~check:(fun () -> true)
      (fun launch ->
        List.iter
          (fun kernel ->
            launch ~kernel ~grid:(1, 1, 1) ~block:(32, 1, 1)
              ~params:[ ("a", 0L) ])
          [ kd; kn; kd ])
  in
  let launches = ref [] in
  App.iter_launches run (fun l ->
      launches := l :: !launches;
      true);
  let reconv k = Dataflow.Depgraph.(reconvergence (of_kernel k)) in
  Alcotest.(check bool) "the two tables differ" false (reconv kd = reconv kn);
  List.iter2
    (fun (l : Gsim.Launch.t) (k, classes) ->
      Alcotest.(check bool) "its own kernel" true (l.Gsim.Launch.kernel == k);
      Alcotest.(check bool) "its own analysis" true
        (Dataflow.Depgraph.kernel l.Gsim.Launch.analysis == k);
      Alcotest.(check (pair int int)) "its own classes (D, N)" classes
        (Dataflow.Classify.count_global l.Gsim.Launch.classes);
      Alcotest.(check (array int)) "its own reconvergence table" (reconv k)
        l.Gsim.Launch.decode.Gsim.Decode.reconv)
    (List.rev !launches)
    [ (kd, (1, 0)); (kn, (1, 1)); (kd, (1, 0)) ]

(* Pulling without executing leaves bfs's frontier flag clear, so the
   host loop stops after one iteration: k1, k2. *)
let test_bfs_unexecuted_walk () =
  let app = Workloads.Suite.find "bfs" in
  let names run =
    List.map (fun l -> l.Gsim.Launch.kernel.Ptx.Kernel.kname) run
  in
  let all = ref [] in
  App.iter_launches (app.App.make App.Small) (fun l ->
      all := l :: !all;
      true);
  Alcotest.(check (list string)) "one iteration" [ "bfs_k1"; "bfs_k2" ]
    (names (List.rev !all));
  Alcotest.(check (list string)) "kernel_launches" [ "bfs_k1"; "bfs_k2" ]
    (names (App.kernel_launches (app.App.make App.Small)))

(* ---------------- restarting a host program ---------------- *)

(* A timing run walks one dataset twice: the warmup pre-pass, then,
   after the image is restored and the program restarted, the timing
   walk.  Each app's restarted walk must launch what a walk over a
   fresh [make] launches, and leave the same final image. *)
let launch_key (l : Gsim.Launch.t) =
  let x, y, z = l.Gsim.Launch.grid and bx, by, bz = l.Gsim.Launch.block in
  let params =
    Hashtbl.fold
      (fun k v acc -> Printf.sprintf "%s=%Ld" k v :: acc)
      l.Gsim.Launch.params []
  in
  Printf.sprintf "%s grid (%d,%d,%d) block (%d,%d,%d) %s"
    l.Gsim.Launch.kernel.Ptx.Kernel.kname x y z bx by bz
    (String.concat " " (List.sort compare params))

let executed_walk run =
  let keys = ref [] in
  App.iter_launches run (fun l ->
      keys := launch_key l :: !keys;
      Gsim.Funcsim.execute Gsim.Config.default l;
      true);
  List.rev !keys

(* The first address whose 64-bit word (or trailing byte) differs. *)
let first_difference a b =
  let n = Gsim.Mem.size a in
  let rec words i =
    if i + 8 > n then bytes i
    else if Int64.equal (Gsim.Mem.get_i64 a i) (Gsim.Mem.get_i64 b i) then
      words (i + 8)
    else Some i
  and bytes i =
    if i >= n then None
    else if
      Int64.equal
        (Gsim.Mem.load a Ptx.Types.U8 i)
        (Gsim.Mem.load b Ptx.Types.U8 i)
    then bytes (i + 1)
    else Some i
  in
  if Gsim.Mem.size b <> n then Some n else words 0

let test_restart_replays (app : App.t) () =
  let reference = app.App.make App.Small in
  let expected = executed_walk reference in
  let run = app.App.make App.Small in
  let fresh = Gsim.Mem.copy_image run.App.global in
  ignore (executed_walk run);
  Gsim.Mem.restore_image run.App.global fresh;
  run.App.restart ();
  Alcotest.(check (list string))
    "restarted walk launches what a fresh make launches" expected
    (executed_walk run);
  Alcotest.(check (option int))
    "first differing address of the final images" None
    (first_difference run.App.global reference.App.global)

(* No suite walk at Small moves the image's zeroed watermark, so this
   one writes past it: a counter the program bumps at an address no
   access had reached when the copy was taken (as an atomic sum into
   zero-initialized memory would).  After the restore it must read
   zero again. *)
let test_restart_past_copied_prefix () =
  let global = Gsim.Mem.create (1 lsl 20) in
  let counter = 1 lsl 19 in
  let run =
    App.host ~global ~check:(fun () -> true) (fun launch ->
        let v = Gsim.Mem.get_u32 global counter + 1 in
        Gsim.Mem.set_u32 global counter v;
        launch ~kernel:empty_kernel ~grid:(v, 1, 1) ~block:(32, 1, 1)
          ~params:[])
  in
  let walk () = List.init 2 (fun _ -> pull run) in
  let fresh = Gsim.Mem.copy_image global in
  Alcotest.(check (list (option int))) "first walk" [ Some 1; None ] (walk ());
  Gsim.Mem.restore_image global fresh;
  run.App.restart ();
  Alcotest.(check (list (option int)))
    "restarted walk reads the counter as zero" [ Some 1; None ] (walk ())

let restart_tests =
  List.map
    (fun (app : App.t) ->
      Alcotest.test_case ("restart replays " ^ app.App.name) `Quick
        (test_restart_replays app))
    Workloads.Suite.all
  @ [ Alcotest.test_case "restart past the copied prefix" `Quick
        test_restart_past_copied_prefix ]

(* ---------------- classification expectations ---------------- *)

(* The paper's Fig 1 structure: linear algebra and image processing are
   (almost) fully deterministic; spmv, srad, htw and the graph codes
   carry non-deterministic loads. *)
let expected_has_nondet = function
  | "spmv" | "srad" | "htw" | "bfs" | "sssp" | "ccl" | "mst" | "mis" -> true
  | _ -> false

let test_static_classification () =
  List.iter
    (fun (app : App.t) ->
      let r = run_func app App.Small in
      let has_n = r.Critload.Runner.fr_static_n > 0 in
      Alcotest.(check bool)
        (Printf.sprintf "%s static non-determinism" app.App.name)
        (expected_has_nondet app.App.name)
        has_n;
      Alcotest.(check bool)
        (Printf.sprintf "%s has deterministic loads too" app.App.name)
        true
        (r.Critload.Runner.fr_static_d > 0))
    Workloads.Suite.all

(* ---------------- suite registry ---------------- *)

let test_suite_registry () =
  Alcotest.(check int) "15 applications" 15 (List.length Workloads.Suite.all);
  Alcotest.(check int) "5 linear" 5
    (List.length (Workloads.Suite.by_category App.Linear));
  Alcotest.(check int) "5 image" 5
    (List.length (Workloads.Suite.by_category App.Image));
  Alcotest.(check int) "5 graph" 5
    (List.length (Workloads.Suite.by_category App.Graph));
  Alcotest.(check bool) "find works" true
    ((Workloads.Suite.find "bfs").App.name = "bfs");
  Alcotest.check_raises "unknown app"
    (Invalid_argument
       "Suite.find: unknown application nope (have: 2mm, gaus, grm, lu, \
        spmv, htw, mriq, dwt, bpr, srad, bfs, sssp, ccl, mst, mis)")
    (fun () -> ignore (Workloads.Suite.find "nope"))

(* ---------------- PRNG ---------------- *)

let test_prng_determinism () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next a) (Prng.next b)
  done;
  let c = Prng.create 43 in
  Alcotest.(check bool) "different seed differs" true
    (Prng.next (Prng.create 42) <> Prng.next c)

(* The stream itself, pinned: every dataset is drawn from it, so a
   changed word changes every app.  test/goldens/prng.golden holds one
   line per (draw kind, seed) as [prng_golden_lines] renders them; it
   was generated from the record-of-int64 generator this one
   replaced. *)
let prng_seeds = [ 0; 42; 0x5559 ]

let prng_bounds =
  [ 1; 2; 3; 7; 10; 100; 1000; 4096; 65_535; 1_000_003; 1 lsl 30;
    (1 lsl 31) - 1; 1 lsl 40; 1 lsl 61; max_int - 1; max_int ]

let prng_golden_lines () =
  let line kind seed values =
    String.concat " " (kind :: string_of_int seed :: values)
  in
  List.concat_map
    (fun seed ->
      let g = Prng.create seed in
      let next = List.init 16 (fun _ -> Printf.sprintf "%016Lx" (Prng.next g)) in
      let g = Prng.create seed in
      let ints = List.map (fun b -> string_of_int (Prng.int g b)) prng_bounds in
      let g = Prng.create seed in
      let floats = List.init 16 (fun _ -> Printf.sprintf "%h" (Prng.float g)) in
      let g = Prng.create seed in
      let arr = Array.init 16 Fun.id in
      Prng.shuffle g arr;
      let shuffled = Array.to_list (Array.map string_of_int arr) in
      [ line "next" seed next; line "int" seed ints; line "float" seed floats;
        line "shuffle" seed shuffled ])
    prng_seeds

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let test_prng_golden () =
  let path =
    List.find Sys.file_exists
      [ "goldens/prng.golden"; "test/goldens/prng.golden" ]
  in
  Alcotest.(check (list string))
    "stream equals the golden" (read_lines path) (prng_golden_lines ())

(* The state words stay unboxed: an [int] draw allocates nothing in
   native code.  ([float] boxes its result when called from another
   module, since dune's dev profile compiles with -opaque.) *)
let test_prng_no_allocation () =
  if Sys.backend_type = Sys.Native then begin
    let g = Prng.create 7 in
    let acc = ref 0 in
    let before = Gc.minor_words () in
    for i = 1 to 1000 do
      acc := !acc + Prng.int g i
    done;
    let words = Gc.minor_words () -. before in
    Alcotest.(check (float 0.)) "minor words for 1,000 draws" 0. words;
    ignore (Sys.opaque_identity !acc)
  end

let prop_prng_int_range =
  QCheck.Test.make ~count:500 ~name:"Prng.int stays in range"
    QCheck.(pair (int_range 1 10_000) small_int)
    (fun (bound, seed) ->
      let rng = Prng.create seed in
      let v = Prng.int rng bound in
      v >= 0 && v < bound)

let prop_prng_float_range =
  QCheck.Test.make ~count:500 ~name:"Prng.float in [0,1)"
    QCheck.small_int
    (fun seed ->
      let rng = Prng.create seed in
      let f = Prng.float rng in
      f >= 0.0 && f < 1.0)

let prop_shuffle_is_permutation =
  QCheck.Test.make ~count:200 ~name:"Prng.shuffle permutes"
    QCheck.(pair small_int (int_range 1 100))
    (fun (seed, n) ->
      let rng = Prng.create seed in
      let arr = Array.init n Fun.id in
      Prng.shuffle rng arr;
      let sorted = Array.copy arr in
      Array.sort compare sorted;
      sorted = Array.init n Fun.id)

(* ---------------- dataset invariants ---------------- *)

let csr_well_formed (g : Dataset.csr) =
  let ok = ref (g.Dataset.row_ptr.(0) = 0) in
  for v = 0 to g.Dataset.n_rows - 1 do
    if g.Dataset.row_ptr.(v) > g.Dataset.row_ptr.(v + 1) then ok := false
  done;
  if g.Dataset.row_ptr.(g.Dataset.n_rows) <> g.Dataset.n_edges then ok := false;
  Array.iter
    (fun c -> if c < 0 || c >= g.Dataset.n_rows then ok := false)
    (Array.sub g.Dataset.col_idx 0 g.Dataset.n_edges);
  !ok

let prop_rmat_well_formed =
  QCheck.Test.make ~count:30 ~name:"rmat CSR well-formed"
    QCheck.(pair small_int (int_range 4 9))
    (fun (seed, scale) ->
      let rng = Prng.create seed in
      let g = Dataset.rmat rng ~scale ~edge_factor:4 in
      csr_well_formed g && g.Dataset.n_rows = 1 lsl scale)

let prop_symmetrize_doubles_edges =
  QCheck.Test.make ~count:30 ~name:"symmetrize doubles edge count"
    QCheck.(pair small_int (int_range 8 64))
    (fun (seed, n) ->
      let rng = Prng.create seed in
      let g = Dataset.uniform_graph rng ~n ~edge_factor:3 in
      let s = Dataset.symmetrize g in
      csr_well_formed s && s.Dataset.n_edges = 2 * g.Dataset.n_edges)

let prop_relabel_preserves_degree_multiset =
  QCheck.Test.make ~count:30 ~name:"relabel preserves degree multiset"
    QCheck.(pair small_int (int_range 8 64))
    (fun (seed, n) ->
      let rng = Prng.create seed in
      let g = Dataset.uniform_graph rng ~n ~edge_factor:3 in
      let r = Dataset.relabel rng g in
      let degrees (x : Dataset.csr) =
        List.sort compare
          (List.init x.Dataset.n_rows (fun v ->
               x.Dataset.row_ptr.(v + 1) - x.Dataset.row_ptr.(v)))
      in
      csr_well_formed r && degrees g = degrees r)

let test_rmat_is_skewed () =
  (* power-law-ish: the max degree should far exceed the average *)
  let rng = Prng.create 99 in
  let g = Dataset.rmat rng ~scale:12 ~edge_factor:8 in
  let max_deg = ref 0 in
  for v = 0 to g.Dataset.n_rows - 1 do
    max_deg := max !max_deg (g.Dataset.row_ptr.(v + 1) - g.Dataset.row_ptr.(v))
  done;
  let avg = g.Dataset.n_edges / g.Dataset.n_rows in
  Alcotest.(check bool)
    (Printf.sprintf "max degree %d >> avg %d" !max_deg avg)
    true
    (!max_deg > 8 * avg)

let test_uniform_is_not_skewed () =
  let rng = Prng.create 99 in
  let g = Dataset.uniform_graph rng ~n:4096 ~edge_factor:8 in
  let max_deg = ref 0 in
  for v = 0 to g.Dataset.n_rows - 1 do
    max_deg := max !max_deg (g.Dataset.row_ptr.(v + 1) - g.Dataset.row_ptr.(v))
  done;
  let avg = g.Dataset.n_edges / g.Dataset.n_rows in
  Alcotest.(check bool)
    (Printf.sprintf "max degree %d stays near avg %d" !max_deg avg)
    true
    (!max_deg < 8 * avg)

(* ---------------- layout allocator ---------------- *)

let test_layout_alignment () =
  let mem = Gsim.Mem.create 4096 in
  let l = Workloads.Layout.create mem in
  let a = Workloads.Layout.alloc l 4 in
  let b = Workloads.Layout.alloc l 130 in
  let c = Workloads.Layout.alloc l 1 in
  Alcotest.(check int) "first at 0" 0 a;
  Alcotest.(check int) "second 128-aligned" 128 b;
  Alcotest.(check int) "third after padded second" 384 c;
  Alcotest.check_raises "overflow rejected"
    (Invalid_argument "Layout.alloc: 4096 bytes requested, 3584 available")
    (fun () -> ignore (Workloads.Layout.alloc l 4000))

let tests =
  app_tests @ restart_tests
  @ [
      Alcotest.test_case "static classification per app" `Quick
        test_static_classification;
      Alcotest.test_case "suite registry" `Quick test_suite_registry;
      Alcotest.test_case "host program order" `Quick test_host_order;
      Alcotest.test_case "host program end" `Quick test_host_none_after_end;
      Alcotest.test_case "host program exception" `Quick test_host_exception;
      Alcotest.test_case "host program stopped early" `Quick
        test_host_stopped_early;
      Alcotest.test_case "host program restart while parked" `Quick
        test_host_restart_parked;
      Alcotest.test_case "host program same-name kernels" `Quick
        test_host_same_name_kernels;
      Alcotest.test_case "bfs unexecuted walk" `Quick test_bfs_unexecuted_walk;
      Alcotest.test_case "prng determinism" `Quick test_prng_determinism;
      Alcotest.test_case "prng stream golden" `Quick test_prng_golden;
      Alcotest.test_case "prng draws allocate nothing" `Quick
        test_prng_no_allocation;
      QCheck_alcotest.to_alcotest prop_prng_int_range;
      QCheck_alcotest.to_alcotest prop_prng_float_range;
      QCheck_alcotest.to_alcotest prop_shuffle_is_permutation;
      QCheck_alcotest.to_alcotest prop_rmat_well_formed;
      QCheck_alcotest.to_alcotest prop_symmetrize_doubles_edges;
      QCheck_alcotest.to_alcotest prop_relabel_preserves_degree_multiset;
      Alcotest.test_case "rmat degree skew" `Quick test_rmat_is_skewed;
      Alcotest.test_case "uniform graph not skewed" `Quick
        test_uniform_is_not_skewed;
      Alcotest.test_case "layout alignment" `Quick test_layout_alignment;
    ]

let () = Alcotest.run "workloads" [ ("workloads", tests) ]
