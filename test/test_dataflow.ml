(* Tests for the dataflow library: reaching definitions, dependence
   graph, liveness, and the load classifier on hand-built kernels. *)

open Ptx.Types
module B = Ptx.Builder

let u64 n = { Ptx.Kernel.pname = n; pty = U64 }
let u32 n = { Ptx.Kernel.pname = n; pty = U32 }

(* The classifier over the kernel's one analysis. *)
let classify k = Dataflow.Classify.classify (Dataflow.Depgraph.of_kernel k)

(* The paper's Code 1: bfs-style kernel.
   tid = ctaid.x*ntid.x + tid.x
   mask = g_mask[tid]            <- deterministic
   start = g_nodes[tid]          <- deterministic
   id = g_edges[start]           <- non-deterministic (start loaded)
   v = g_visited[id]             <- non-deterministic (id loaded) *)
let bfs_like () =
  let b =
    B.create ~name:"bfs_like"
      ~params:[ u64 "g_mask"; u64 "g_nodes"; u64 "g_edges"; u64 "g_visited"; u32 "n" ]
      ()
  in
  let mask_p = B.ld_param b "g_mask" in
  let nodes_p = B.ld_param b "g_nodes" in
  let edges_p = B.ld_param b "g_edges" in
  let visited_p = B.ld_param b "g_visited" in
  let n = B.ld_param b "n" in
  let tid = B.global_tid b in
  let in_range = B.setp b Lt tid n in
  B.if_ b in_range (fun () ->
      let mask = B.ld b Global U32 (B.at b ~base:mask_p ~scale:4 tid) in
      let active = B.setp b Ne mask (B.int 0) in
      B.if_ b active (fun () ->
          let start = B.ld b Global U32 (B.at b ~base:nodes_p ~scale:4 tid) in
          let id = B.ld b Global U32 (B.at b ~base:edges_p ~scale:4 start) in
          let v = B.ld b Global U32 (B.at b ~base:visited_p ~scale:4 id) in
          B.st b Global U32 (B.at b ~base:mask_p ~scale:4 tid) v));
  B.finish b

let classes kernel =
  let res = classify kernel in
  List.map
    (fun (li : Dataflow.Classify.load_info) -> (li.li_space, li.li_class))
    (Dataflow.Classify.global_loads res)

let test_bfs_classification () =
  let k = bfs_like () in
  let res = classify k in
  let d, n = Dataflow.Classify.count_global res in
  Alcotest.(check int) "deterministic global loads" 2 d;
  Alcotest.(check int) "non-deterministic global loads" 2 n;
  (* order: mask (D), nodes (D), edges (N), visited (N) *)
  let cls = List.map snd (classes k) in
  Alcotest.(check (list string))
    "per-load classes"
    [ "D"; "D"; "N"; "N" ]
    (List.map Dataflow.Classify.short_class cls)

(* Address from pure arithmetic on tid/param -> deterministic, even with
   a loop-carried counter. *)
let test_loop_deterministic () =
  let b = B.create ~name:"loop_det" ~params:[ u64 "a"; u32 "n" ] () in
  let a = B.ld_param b "a" in
  let n = B.ld_param b "n" in
  let tid = B.global_tid b in
  let acc = B.fresh_reg b in
  B.emit b (Ptx.Instr.Mov (acc, B.int 0));
  B.for_loop b ~init:tid ~bound:n ~step:(B.int 32) (fun i ->
      let v = B.ld b Global F32 (B.at b ~base:a ~scale:4 i) in
      B.emit b (Ptx.Instr.Fop (Fadd, F32, acc, Reg acc, v)));
  B.st b Global F32 (B.at b ~base:a ~scale:4 tid) (Reg acc);
  let k = B.finish b in
  let res = classify k in
  let d, n = Dataflow.Classify.count_global res in
  Alcotest.(check int) "deterministic" 1 d;
  Alcotest.(check int) "non-deterministic" 0 n

(* Pointer chasing: address fed by the loop-carried loaded value ->
   non-deterministic. *)
let test_pointer_chase () =
  let b = B.create ~name:"chase" ~params:[ u64 "a"; u32 "n" ] () in
  let a = B.ld_param b "a" in
  let n = B.ld_param b "n" in
  let cur = B.fresh_reg b in
  B.emit b (Ptx.Instr.Mov (cur, B.tid_x));
  B.for_loop b ~init:(B.int 0) ~bound:n ~step:(B.int 1) (fun _ ->
      let next = B.ld b Global U32 (B.at b ~base:a ~scale:4 (Reg cur)) in
      B.emit b (Ptx.Instr.Mov (cur, next)));
  B.st b Global U32 (B.addr a) (Reg cur);
  let k = B.finish b in
  let res = classify k in
  let d, n = Dataflow.Classify.count_global res in
  (* first iteration reads a[tid] but the same pc later reads a[loaded]:
     static classification must be non-deterministic *)
  Alcotest.(check int) "deterministic" 0 d;
  Alcotest.(check int) "non-deterministic" 1 n

(* Shared-memory loads classified but not counted as global. *)
let test_shared_not_global () =
  let b = B.create ~name:"sh" ~params:[ u64 "a" ] ~smem_bytes:1024 () in
  let a = B.ld_param b "a" in
  let tid = B.mov b B.tid_x in
  let s = B.ld b Shared U32 (B.at b ~base:(B.int 0) ~scale:4 tid) in
  let g = B.ld b Global U32 (B.at b ~base:a ~scale:4 s) in
  B.st b Global U32 (B.addr a) g;
  let k = B.finish b in
  let res = classify k in
  let d, n = Dataflow.Classify.count_global res in
  Alcotest.(check int) "one global load" 1 (d + n);
  Alcotest.(check int) "it is non-deterministic (indexed by shared load)" 1 n;
  Alcotest.(check int) "classified loads include shared" 2
    (List.length res.Dataflow.Classify.res_loads)

(* selp: value operands traced; choosing between two params stays D. *)
let test_selp_deterministic () =
  let b = B.create ~name:"selp_det" ~params:[ u64 "a"; u64 "bp" ] () in
  let a = B.ld_param b "a" in
  let b2 = B.ld_param b "bp" in
  let p = B.setp b Lt B.tid_x (B.int 16) in
  let base = B.selp b a b2 p in
  let v = B.ld b Global U32 (B.at b ~base ~scale:4 B.tid_x) in
  B.st b Global U32 (B.addr a) v;
  let k = B.finish b in
  let d, n = Dataflow.Classify.count_global (classify k) in
  Alcotest.(check (pair int int)) "selp of params is D" (1, 0) (d, n)

(* setp comparing against a loaded value taints selp through the
   predicate operand. *)
let test_selp_tainted_predicate () =
  let b = B.create ~name:"selp_n" ~params:[ u64 "a"; u64 "bp" ] () in
  let a = B.ld_param b "a" in
  let b2 = B.ld_param b "bp" in
  let x = B.ld b Global U32 (B.addr a) in
  let p = B.setp b Lt x (B.int 16) in
  let base = B.selp b a b2 p in
  let v = B.ld b Global U32 (B.at b ~base ~scale:4 B.tid_x) in
  B.st b Global U32 (B.addr a) v;
  let k = B.finish b in
  let d, n = Dataflow.Classify.count_global (classify k) in
  Alcotest.(check (pair int int)) "selp w/ tainted pred" (1, 1) (d, n)

let test_backward_slice () =
  let k = bfs_like () in
  let dg = Dataflow.Depgraph.of_kernel k in
  let last_ld =
    List.rev (Ptx.Kernel.global_load_pcs k) |> List.hd
  in
  let slice = Dataflow.Depgraph.slice dg ~stop:(fun _ -> false) [ last_ld ] in
  Alcotest.(check bool) "slice contains the load" true (List.mem last_ld slice);
  Alcotest.(check bool) "slice is non-trivial" true (List.length slice > 4);
  List.iter
    (fun pc -> Alcotest.(check bool) "slice pcs <= load pc" true (pc <= last_ld))
    slice

let test_liveness () =
  let k = bfs_like () in
  let lv = Dataflow.Liveness.compute (Dataflow.Depgraph.of_kernel k) in
  Alcotest.(check bool) "positive register pressure" true
    (Dataflow.Liveness.max_pressure lv > 0);
  (* the first instruction's defined register must be live somewhere *)
  let first_def = List.hd (Ptx.Instr.defs k.Ptx.Kernel.body.(0)) in
  let live_anywhere =
    Array.exists (fun _ -> true) k.Ptx.Kernel.body
    && List.exists
         (fun pc -> Dataflow.Liveness.live_in_reg lv ~pc ~reg:first_def)
         (List.init (Array.length k.Ptx.Kernel.body) Fun.id)
  in
  Alcotest.(check bool) "param register live" true live_anywhere


(* ---------- reaching definitions precision ---------- *)

(* r0 defined twice in sequence: only the latest def reaches the use. *)
let test_reaching_kill () =
  let body =
    [| Ptx.Instr.Mov (0, Imm 1L) (* 0 *);
       Ptx.Instr.Mov (0, Imm 2L) (* 1 *);
       Ptx.Instr.Iop (Add, 1, Reg 0, Imm 0L) (* 2 *);
       Ptx.Instr.Exit
    |]
  in
  let k =
    Ptx.Verify.validate
      (Ptx.Kernel.create ~name:"kill" ~params:[] ~nregs:2 ~npregs:1
         ~smem_bytes:0 body)
  in
  let cfg = Ptx.Cfg.build k in
  let r = Dataflow.Reaching.compute k cfg in
  Alcotest.(check (list int)) "only the second def reaches" [ 1 ]
    (Dataflow.Reaching.defs_reaching_reg r ~pc:2 ~reg:0)

(* both arms of a diamond define r0: both defs reach the join use. *)
let test_reaching_join () =
  let body =
    [| Ptx.Instr.Setp (Lt, S32, 0, Sreg (Tid X), Imm 4L) (* 0 *);
       Ptx.Instr.Bra (Some (true, 0), "T") (* 1 *);
       Ptx.Instr.Mov (0, Imm 1L) (* 2 *);
       Ptx.Instr.Bra (None, "J") (* 3 *);
       Ptx.Instr.Label "T" (* 4 *);
       Ptx.Instr.Mov (0, Imm 2L) (* 5 *);
       Ptx.Instr.Label "J" (* 6 *);
       Ptx.Instr.Iop (Add, 1, Reg 0, Imm 0L) (* 7 *);
       Ptx.Instr.Exit
    |]
  in
  let k =
    Ptx.Verify.validate
      (Ptx.Kernel.create ~name:"join" ~params:[] ~nregs:2 ~npregs:1
         ~smem_bytes:0 body)
  in
  let cfg = Ptx.Cfg.build k in
  let r = Dataflow.Reaching.compute k cfg in
  Alcotest.(check (list int)) "both arm defs reach the join" [ 2; 5 ]
    (List.sort compare (Dataflow.Reaching.defs_reaching_reg r ~pc:7 ~reg:0))

(* A loop-carried definition reaches the loop body from both the
   initialization and the back edge. *)
let test_reaching_loop_carried () =
  let b = B.create ~name:"loopr" ~params:[ u32 "n" ] () in
  let n = B.ld_param b "n" in
  let acc = B.fresh_reg b in
  B.emit b (Ptx.Instr.Mov (acc, Imm 0L));
  B.for_loop b ~init:(B.int 0) ~bound:n ~step:(B.int 1) (fun _ ->
      B.emit b (Ptx.Instr.Iop (Add, acc, Reg acc, Imm 1L)));
  let k = B.finish b in
  let cfg = Ptx.Cfg.build k in
  let r = Dataflow.Reaching.compute k cfg in
  (* find the Add instruction using acc *)
  (* first matching add is the accumulator's (the loop counter's own
     increment comes later in the body) *)
  let use_pc = ref (-1) in
  Array.iteri
    (fun pc i ->
      match i with
      | Ptx.Instr.Iop (Add, d, Reg s, Imm 1L) when d = s && d = acc && !use_pc < 0 ->
          use_pc := pc
      | _ -> ())
    k.Ptx.Kernel.body;
  let defs = Dataflow.Reaching.defs_reaching_reg r ~pc:!use_pc ~reg:acc in
  Alcotest.(check int) "init + loop-carried defs reach the body" 2
    (List.length defs)

(* ---------- classifier provenance ---------- *)

let test_leaf_provenance () =
  let k = bfs_like () in
  let res = classify k in
  let loads = Dataflow.Classify.global_loads res in
  let has_leaf li l = List.mem l li.Dataflow.Classify.li_leaves in
  (match loads with
  | det :: _ ->
      Alcotest.(check bool) "deterministic load sees param leaf" true
        (has_leaf det Dataflow.Classify.Leaf_param);
      Alcotest.(check bool) "deterministic load sees sreg leaf" true
        (has_leaf det Dataflow.Classify.Leaf_sreg);
      Alcotest.(check bool) "no load leaf" false
        (List.exists
           (function Dataflow.Classify.Leaf_load _ -> true | _ -> false)
           det.Dataflow.Classify.li_leaves)
  | [] -> Alcotest.fail "no loads");
  match List.rev loads with
  | nd :: _ ->
      Alcotest.(check bool) "non-deterministic load sees ld.global leaf" true
        (has_leaf nd (Dataflow.Classify.Leaf_load Global));
      Alcotest.(check bool) "slice is non-trivial" true
        (nd.Dataflow.Classify.li_slice_size > 0)
  | [] -> Alcotest.fail "no loads"

(* address taken directly from a special register (no defs at all) *)
let test_direct_sreg_address () =
  let b = B.create ~name:"sregaddr" ~params:[] () in
  let v = B.ld b Global U32 { Ptx.Types.abase = B.tid_x; aoffset = 0 } in
  B.st b Global U32 { Ptx.Types.abase = B.tid_x; aoffset = 64 } v;
  let k = B.finish b in
  let d, n = Dataflow.Classify.count_global (classify k) in
  Alcotest.(check (pair int int)) "sreg-addressed load is D" (1, 0) (d, n)

(* atomics count as loads: an address fed by an atomic's result is N *)
let test_atomic_taints () =
  let b = B.create ~name:"atomtaint" ~params:[ u64 "a" ] () in
  let a = B.ld_param b "a" in
  let old = B.atom b Aadd U32 (B.addr a) (B.int 1) in
  let v = B.ld b Global U32 (B.at b ~base:a ~scale:4 old) in
  B.st b Global U32 (B.addr a) v;
  let k = B.finish b in
  let res = classify k in
  let d, n = Dataflow.Classify.count_global res in
  (* the atomic itself is a global access (D address), the dependent
     load is N *)
  Alcotest.(check (pair int int)) "atomic D, dependent load N" (1, 1) (d, n)

(* dependence through a store is NOT tracked (registers only), matching
   the paper's register-dataflow method *)
let test_no_memory_dependence () =
  let b = B.create ~name:"memdep" ~params:[ u64 "a" ] () in
  let a = B.ld_param b "a" in
  let tid = B.mov b B.tid_x in
  B.st b Global U32 (B.addr a) tid;
  (* reload what we just stored: the classifier sees a load leaf, so the
     dependent gather is N even though the value is "really" tid *)
  let x = B.ld b Global U32 (B.addr a) in
  let v = B.ld b Global U32 (B.at b ~base:a ~scale:4 x) in
  B.st b Global U32 (B.addr a) v;
  let k = B.finish b in
  let d, n = Dataflow.Classify.count_global (classify k) in
  Alcotest.(check (pair int int)) "reloaded value taints" (1, 1) (d, n)

(* liveness precision: a value is dead after its last use and live
   between def and use across a branch *)
let test_liveness_precision () =
  let body =
    [| Ptx.Instr.Mov (0, Imm 1L) (* 0: def r0 *);
       Ptx.Instr.Mov (1, Imm 2L) (* 1: def r1 *);
       Ptx.Instr.Iop (Add, 2, Reg 0, Imm 3L) (* 2: last use of r0 *);
       Ptx.Instr.Iop (Add, 3, Reg 1, Reg 2) (* 3: uses r1, r2 *);
       Ptx.Instr.Exit
    |]
  in
  let k =
    Ptx.Verify.validate
      (Ptx.Kernel.create ~name:"lv" ~params:[] ~nregs:4 ~npregs:1
         ~smem_bytes:0 body)
  in
  let lv = Dataflow.Liveness.compute (Dataflow.Depgraph.of_kernel k) in
  Alcotest.(check bool) "r0 live into pc2" true
    (Dataflow.Liveness.live_in_reg lv ~pc:2 ~reg:0);
  Alcotest.(check bool) "r0 dead after pc2" false
    (Dataflow.Liveness.live_in_reg lv ~pc:3 ~reg:0);
  Alcotest.(check bool) "r1 live across pc2" true
    (Dataflow.Liveness.live_in_reg lv ~pc:2 ~reg:1);
  Alcotest.(check int) "max pressure is 2" 2
    (Dataflow.Liveness.max_pressure lv)

(* depgraph: uninitialized use detection *)
let test_uninitialized_use () =
  let body =
    [| Ptx.Instr.Iop (Add, 0, Reg 1, Imm 1L) (* r1 never defined *);
       Ptx.Instr.Exit
    |]
  in
  let k =
    Ptx.Verify.validate
      (Ptx.Kernel.create ~name:"uninit" ~params:[] ~nregs:2 ~npregs:1
         ~smem_bytes:0 body)
  in
  let dg = Dataflow.Depgraph.of_kernel k in
  Alcotest.(check bool) "flagged" true
    (Dataflow.Depgraph.has_uninitialized_use dg 0)

let extra_tests =
  [
    Alcotest.test_case "liveness precision" `Quick test_liveness_precision;
    Alcotest.test_case "uninitialized use" `Quick test_uninitialized_use;
    Alcotest.test_case "reaching: kill" `Quick test_reaching_kill;
    Alcotest.test_case "reaching: join" `Quick test_reaching_join;
    Alcotest.test_case "reaching: loop-carried" `Quick
      test_reaching_loop_carried;
    Alcotest.test_case "classifier leaf provenance" `Quick
      test_leaf_provenance;
    Alcotest.test_case "sreg-addressed load" `Quick test_direct_sreg_address;
    Alcotest.test_case "atomic result taints" `Quick test_atomic_taints;
    Alcotest.test_case "no memory dependence tracking" `Quick
      test_no_memory_dependence;
  ]

let tests =
  [
    Alcotest.test_case "bfs-like classification (paper Code 1)" `Quick
      test_bfs_classification;
    Alcotest.test_case "loop with deterministic addressing" `Quick
      test_loop_deterministic;
    Alcotest.test_case "pointer chase is non-deterministic" `Quick
      test_pointer_chase;
    Alcotest.test_case "shared loads classified, not global" `Quick
      test_shared_not_global;
    Alcotest.test_case "selp of params stays deterministic" `Quick
      test_selp_deterministic;
    Alcotest.test_case "selp with tainted predicate" `Quick
      test_selp_tainted_predicate;
    Alcotest.test_case "backward slice" `Quick test_backward_slice;
    Alcotest.test_case "liveness" `Quick test_liveness;
  ]

let () =
  Alcotest.run "dataflow"
    [ ("classify", tests); ("analysis", extra_tests) ]
