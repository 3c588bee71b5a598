(* Property-based equivalence of the functional and cycle-level
   simulators: for randomly generated race-free kernels over random
   data, both must produce identical final memory — and so must every
   timing-policy variant (GTO, warp splitting, prefetch, bypass, the
   IAR reorder buffer, holistic management), since policies may
   reshape time but never values.

   Random kernels: a few rounds of loads (arbitrary in-bounds
   addresses), integer/float arithmetic, data-dependent branches and
   bounded data-dependent loops; each thread stores only to its own
   output slot, so there are no races. *)

open Ptx.Types
module B = Ptx.Builder

let u64 n = { Ptx.Kernel.pname = n; pty = U64 }
let u32 n = { Ptx.Kernel.pname = n; pty = U32 }

let data_words = 1024 (* input region size, in u32 words *)

(* Build a kernel from a recipe: a list of small opcodes interpreted by
   the generator below.  [acc] is the running value; all loads are
   bounds-masked into the input region. *)
type step =
  | R_load (* acc <- in[acc mod data_words] *)
  | R_add of int
  | R_mul of int
  | R_xor_tid
  | R_branch (* if acc odd then acc += 13 else acc *= 3 *)
  | R_loop of int (* bounded loop: repeat (acc = acc*5+1) (acc mod k) times *)

let build_kernel steps =
  let b = B.create ~name:"rand_eq" ~params:[ u64 "inp"; u64 "out"; u32 "n" ] () in
  let inp = B.ld_param b "inp" in
  let out = B.ld_param b "out" in
  let n = B.ld_param b "n" in
  let tid = B.global_tid b in
  let p = B.setp b Lt tid n in
  B.if_ b p (fun () ->
      let acc = B.fresh_reg b in
      B.emit b (Ptx.Instr.Mov (acc, tid));
      List.iter
        (fun step ->
          match step with
          | R_load ->
              let idx = B.rem b (Reg acc) (B.int data_words) in
              let v = B.ld b Global U32 (B.at b ~base:inp ~scale:4 idx) in
              B.emit b (Ptx.Instr.Mov (acc, v))
          | R_add k -> B.emit b (Ptx.Instr.Iop (Add, acc, Reg acc, B.int k))
          | R_mul k -> B.emit b (Ptx.Instr.Iop (Mul, acc, Reg acc, B.int k))
          | R_xor_tid -> B.emit b (Ptx.Instr.Iop (Bxor, acc, Reg acc, tid))
          | R_branch ->
              let odd = B.band b (Reg acc) (B.int 1) in
              let podd = B.setp b Eq odd (B.int 1) in
              B.if_ b podd (fun () ->
                  B.emit b (Ptx.Instr.Iop (Add, acc, Reg acc, B.int 13)));
              B.if_not b podd (fun () ->
                  B.emit b (Ptx.Instr.Iop (Mul, acc, Reg acc, B.int 3)))
          | R_loop k ->
              let trips = B.rem b (Reg acc) (B.int (max 1 k)) in
              B.for_loop b ~init:(B.int 0) ~bound:trips ~step:(B.int 1)
                (fun _ ->
                  B.emit b (Ptx.Instr.Mad (acc, Reg acc, B.int 5, B.int 1))))
        steps;
      (* mask to keep values comparable across representations *)
      B.emit b (Ptx.Instr.Iop (Band, acc, Reg acc, B.int 0x7FFFFFFF));
      B.st b Global U32 (B.at b ~base:out ~scale:4 tid) (Reg acc));
  B.finish b

let gen_step =
  QCheck.Gen.(
    frequency
      [ (3, return R_load);
        (2, map (fun k -> R_add (1 + k)) (int_bound 100));
        (2, map (fun k -> R_mul (1 + (k mod 7))) (int_bound 100));
        (1, return R_xor_tid);
        (2, return R_branch);
        (1, map (fun k -> R_loop (1 + (k mod 6))) (int_bound 100)) ])

let gen_recipe = QCheck.Gen.(list_size (int_range 1 8) gen_step)

let n_threads = 128

let run_kernel kernel inputs ~mode =
  let global = Gsim.Mem.create (1 lsl 16) in
  let inp_base = 0 in
  let out_base = 4 * data_words in
  Array.iteri
    (fun i v -> Gsim.Mem.set_u32 global (inp_base + (4 * i)) v)
    inputs;
  let launch =
    Gsim.Launch.create ~kernel
      ~grid:(n_threads / 64, 1, 1)
      ~block:(64, 1, 1)
      ~params:
        [ ("inp", Int64.of_int inp_base); ("out", Int64.of_int out_base);
          ("n", Int64.of_int n_threads) ]
      ~global
  in
  (match mode with
  | `Func -> ignore (Gsim.Funcsim.run launch)
  | `Cycle cfg -> ignore (Gsim.Gpu.run ~cfg launch));
  Array.init n_threads (fun i -> Gsim.Mem.get_u32 global (out_base + (4 * i)))

let uncapped = Gsim.Config.default |> Gsim.Config.with_caps ~max_warp_insts:0 ()

let ndet_flags fl =
  `Cycle (uncapped |> Gsim.Config.with_policy (Gsim.Config.Ndet_flags fl))

let modes =
  let open Gsim.Config in
  [
    ("cycle", `Cycle uncapped);
    ("gto", `Cycle (uncapped |> with_warp_sched Gto));
    ("split", ndet_flags { no_policy with lp_split = 8 });
    ("prefetch", ndet_flags { no_policy with lp_prefetch = true });
    ("bypass", ndet_flags { no_policy with lp_bypass = true });
    ("iar", `Cycle (uncapped |> with_policy (Iar default_iar)));
    (* a random N-class load almost always touches more than 4 lines,
       so this buffer sends nearly every one to the in-order queue *)
    ( "iar-overflow",
      `Cycle
        (uncapped |> with_policy (Iar { iar_entries = 4; iar_max_wait = 2 })) );
    (* 4 MSHRs make buffered probes fail, so batches wait out the
       backoff and entries age past the 2-cycle wait *)
    ( "iar-starved",
      `Cycle
        ({ uncapped with l1_mshr_entries = 4 }
        |> with_policy (Iar { iar_entries = 32; iar_max_wait = 2 })) );
    ("holistic", `Cycle (uncapped |> with_policy (Holistic default_holistic)));
  ]

let prop_equivalence =
  QCheck.Test.make ~count:40
    ~name:"funcsim = cycle sim (all policy variants) on random kernels"
    (QCheck.make
       QCheck.Gen.(
         pair gen_recipe
           (array_size (return data_words) (int_bound 0x7FFFFFF))))
    (fun (recipe, inputs) ->
      let kernel = build_kernel recipe in
      let reference = run_kernel kernel inputs ~mode:`Func in
      List.for_all
        (fun (_, mode) -> run_kernel kernel inputs ~mode = reference)
        modes)

(* bank conflicts slow shared accesses down but never change results *)
let test_bank_conflict_timing () =
  let mk_kernel stride =
    let b =
      B.create ~name:"banks" ~params:[ u64 "a"; u32 "n" ] ~smem_bytes:8192 ()
    in
    let a = B.ld_param b "a" in
    let _n = B.ld_param b "n" in
    let tid = B.mov b B.tid_x in
    (* stage, then read back with the given bank stride *)
    B.st b Shared U32 (B.at b ~base:(B.int 0) ~scale:4 tid) tid;
    B.bar b;
    let idx = B.rem b (B.mul b tid (B.int stride)) (B.int 2048) in
    let v = B.ld b Shared U32 (B.at b ~base:(B.int 0) ~scale:4 idx) in
    B.st b Global U32 (B.at b ~base:a ~scale:4 tid) v;
    B.finish b
  in
  let cycles stride =
    let global = Gsim.Mem.create 4096 in
    let launch =
      Gsim.Launch.create ~kernel:(mk_kernel stride) ~grid:(1, 1, 1)
        ~block:(32, 1, 1)
        ~params:[ ("a", 0L); ("n", 32L) ]
        ~global
    in
    let gpu = Gsim.Gpu.run ~cfg:uncapped launch in
    gpu.Gsim.Gpu.stats.Gsim.Stats.cycles
  in
  (* stride 32 in 4-byte words = every lane on bank 0: 32-way conflict *)
  let fast = cycles 1 in
  let slow = cycles 32 in
  Alcotest.(check bool)
    (Printf.sprintf "32-way conflict slower (%d vs %d cycles)" slow fast)
    true (slow > fast)

let tests =
  [
    QCheck_alcotest.to_alcotest prop_equivalence;
    Alcotest.test_case "bank conflicts slow shared reads" `Quick
      test_bank_conflict_timing;
  ]

let () = Alcotest.run "equivalence" [ ("equivalence", tests) ]
