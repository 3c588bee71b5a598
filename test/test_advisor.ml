(* Tests of the induction/walk detection and the policy advisor. *)

open Ptx.Types
module B = Ptx.Builder
module I = Dataflow.Induction
module A = Critload.Advisor

let u64 n = { Ptx.Kernel.pname = n; pty = U64 }
let u32 n = { Ptx.Kernel.pname = n; pty = U32 }

(* csr-style walk: for e in start..stop: v = vals[e] *)
let walk_kernel () =
  let b = B.create ~name:"walker" ~params:[ u64 "rp"; u64 "vals"; u32 "n" ] () in
  let rp = B.ld_param b "rp" in
  let vp = B.ld_param b "vals" in
  let n = B.ld_param b "n" in
  let row = B.global_tid b in
  let p = B.setp b Lt row n in
  B.if_ b p (fun () ->
      let start = B.ld b Global U32 (B.at b ~base:rp ~scale:4 row) in
      let stop = B.ld b Global U32 (B.at b ~base:rp ~scale:4 (B.add b row (B.int 1))) in
      let acc = Workloads.Kutil.f32_acc b in
      B.for_loop b ~init:start ~bound:stop ~step:(B.int 1) (fun e ->
          let v = B.ld b Global F32 (B.at b ~base:vp ~scale:4 e) in
          B.emit b (Ptx.Instr.Fop (Fadd, F32, acc, Reg acc, v)));
      B.st b Global F32 (B.at b ~base:vp ~scale:4 row) (Reg acc));
  B.finish b

let test_walk_detection () =
  let k = walk_kernel () in
  let walks = I.walking_loads (Dataflow.Depgraph.of_kernel k) in
  (* only the vals[e] load walks; the row_ptr loads do not *)
  Alcotest.(check int) "one walking load" 1 (List.length walks);
  Alcotest.(check int) "walk step = 4 bytes" 4
    (List.hd walks).I.w_step

(* pointer bumping: p = p + 8 each iteration *)
let test_pointer_bump_walk () =
  let b = B.create ~name:"bump" ~params:[ u64 "a"; u32 "n" ] () in
  let a = B.ld_param b "a" in
  let n = B.ld_param b "n" in
  let ptr = B.fresh_reg b in
  B.emit b (Ptx.Instr.Mov (ptr, a));
  B.for_loop b ~init:(B.int 0) ~bound:n ~step:(B.int 1) (fun _ ->
      let _v = B.ld b Global U32 (B.addr (Reg ptr)) in
      B.emit b (Ptx.Instr.Iop (Add, ptr, Reg ptr, B.int 8)));
  B.st b Global U32 (B.addr a) (B.int 0);
  let k = B.finish b in
  match I.walking_loads (Dataflow.Depgraph.of_kernel k) with
  | [ w ] -> Alcotest.(check int) "bump step 8" 8 w.I.w_step
  | l -> Alcotest.failf "expected one walking load, got %d" (List.length l)

(* a gather a[idx[i]] must NOT be detected as a walk *)
let test_gather_not_walk () =
  let b = B.create ~name:"gather" ~params:[ u64 "idx"; u64 "a"; u32 "n" ] () in
  let ip = B.ld_param b "idx" in
  let a = B.ld_param b "a" in
  let n = B.ld_param b "n" in
  B.for_loop b ~init:(B.int 0) ~bound:n ~step:(B.int 1) (fun i ->
      let x = B.ld b Global U32 (B.at b ~base:ip ~scale:4 i) in
      let v = B.ld b Global U32 (B.at b ~base:a ~scale:4 x) in
      B.st b Global U32 (B.at b ~base:a ~scale:4 i) v);
  let k = B.finish b in
  let walks = I.walking_loads (Dataflow.Depgraph.of_kernel k) in
  (* idx[i] walks (i is the loop induction); a[idx[i]] must not *)
  let gather_pc = List.nth (Ptx.Kernel.global_load_pcs k) 1 in
  Alcotest.(check bool) "gather not a walk" false
    (List.exists (fun w -> w.I.w_pc = gather_pc) walks)

(* ---------------- advisor ---------------- *)

let test_advice_spmv () =
  let advice = A.advise_app (Workloads.Suite.find "spmv") Workloads.App.Small in
  let by pc = List.find (fun la -> la.A.la_pc = pc) advice in
  ignore by;
  (* deterministic loads are left alone *)
  List.iter
    (fun la ->
      if la.A.la_class = Dataflow.Classify.Deterministic then
        Alcotest.(check bool) "D loads left alone" true
          (la.A.la_advice = A.Leave_alone))
    advice;
  (* the vals/col walks get prefetch, the x gather gets split *)
  let prefetches =
    List.filter
      (fun la -> match la.A.la_advice with A.Prefetch_next_line _ -> true | _ -> false)
      advice
  in
  let splits =
    List.filter
      (fun la -> match la.A.la_advice with A.Split_warp _ -> true | _ -> false)
      advice
  in
  Alcotest.(check int) "two walking loads prefetched" 2 (List.length prefetches);
  Alcotest.(check int) "one gather split" 1 (List.length splits)

let test_policies_shape () =
  let advice = A.advise_app (Workloads.Suite.find "bfs") Workloads.App.Small in
  let policies = A.policies advice in
  List.iter
    (fun ((kernel, _), (p : Gsim.Config.load_policy)) ->
      Alcotest.(check bool) "policy belongs to a bfs kernel" true
        (kernel = "bfs_k1" || kernel = "bfs_k2");
      Alcotest.(check bool) "each policy sets exactly one mechanism" true
        (List.length
           (List.filter Fun.id
              [ p.Gsim.Config.lp_prefetch; p.Gsim.Config.lp_split > 0;
                p.Gsim.Config.lp_bypass ])
        = 1))
    policies;
  Alcotest.(check bool) "bfs has overrides" true (List.length policies > 0)

(* advisor-guided run preserves results *)
let test_advisor_preserves_results () =
  let app = Workloads.Suite.find "spmv" in
  let advice = A.advise_app app Workloads.App.Small in
  let run = app.Workloads.App.make Workloads.App.Small in
  let cfg =
    Gsim.Config.default
    |> Gsim.Config.with_caps ~max_warp_insts:0 ()
    |> Gsim.Config.with_policy
         (Gsim.Config.Per_pc (A.policies advice, Gsim.Config.Baseline))
  in
  let machine = Gsim.Gpu.create_machine ~cfg () in
  Workloads.App.iter_launches run (fun l ->
      ignore (Gsim.Gpu.run_launch machine l);
      true);
  Alcotest.(check bool) "spmv verifies under advisor policies" true
    (run.Workloads.App.check ());
  Alcotest.(check bool) "prefetches fired" true
    (machine.Gsim.Gpu.stats.Gsim.Stats.prefetches_issued > 0)

let tests =
  [
    Alcotest.test_case "csr walk detection" `Quick test_walk_detection;
    Alcotest.test_case "pointer-bump walk" `Quick test_pointer_bump_walk;
    Alcotest.test_case "gather is not a walk" `Quick test_gather_not_walk;
    Alcotest.test_case "spmv advice" `Quick test_advice_spmv;
    Alcotest.test_case "policy shape (bfs)" `Quick test_policies_shape;
    Alcotest.test_case "advisor preserves results" `Slow
      test_advisor_preserves_results;
  ]

let () = Alcotest.run "advisor" [ ("advisor", tests) ]
