(* Tests for the PTX substrate: builder, printer/parser round-trip
   (including property-based random kernels), CFG construction,
   dominators and reconvergence points, and kernel validation. *)

open Ptx.Types
module B = Ptx.Builder

let u64 n = { Ptx.Kernel.pname = n; pty = U64 }
let u32 n = { Ptx.Kernel.pname = n; pty = U32 }

(* Does [msg] contain [sub]? *)
let mentions msg sub =
  let n = String.length sub and m = String.length msg in
  let rec go i = i + n <= m && (String.sub msg i n = sub || go (i + 1)) in
  go 0

(* ---------- builder and validation ---------- *)

let test_builder_basic () =
  let b = B.create ~name:"k" ~params:[ u64 "a" ] () in
  let ap = B.ld_param b "a" in
  let v = B.ld b Global U32 (B.at b ~base:ap ~scale:4 B.tid_x) in
  B.st b Global U32 (B.addr ap) v;
  let k = B.finish b in
  Alcotest.(check string) "name" "k" k.Ptx.Kernel.kname;
  Alcotest.(check bool) "ends with exit" true
    (Ptx.Instr.is_exit k.Ptx.Kernel.body.(Array.length k.Ptx.Kernel.body - 1));
  Alcotest.(check (list int)) "global load pcs" [ 2 ]
    (Ptx.Kernel.global_load_pcs k)

let test_validation_catches_bad_label () =
  let body = [| Ptx.Instr.Bra (None, "nowhere"); Ptx.Instr.Exit |] in
  let k =
    Ptx.Kernel.create ~name:"bad" ~params:[] ~nregs:1 ~npregs:1 ~smem_bytes:0
      body
  in
  Alcotest.check_raises "unknown label"
    (Ptx.Kernel.Invalid
       "bad: pc 0: error [unknown-label] branch to unresolved label nowhere \
        (known: none)")
    (fun () -> ignore (Ptx.Verify.validate k))

let test_validation_catches_bad_register () =
  let body = [| Ptx.Instr.Mov (5, Imm 0L); Ptx.Instr.Exit |] in
  let k =
    Ptx.Kernel.create ~name:"bad" ~params:[] ~nregs:2 ~npregs:1 ~smem_bytes:0
      body
  in
  Alcotest.check_raises "register range"
    (Ptx.Kernel.Invalid
       "bad: pc 0: error [register-bounds] defined register %r5 outside the \
        declared file [0,2)")
    (fun () -> ignore (Ptx.Verify.validate k))

let test_validation_requires_exit () =
  let body = [| Ptx.Instr.Mov (0, Imm 0L) |] in
  let k =
    Ptx.Kernel.create ~name:"noexit" ~params:[] ~nregs:1 ~npregs:1
      ~smem_bytes:0 body
  in
  Alcotest.check_raises "no exit"
    (Ptx.Kernel.Invalid
       "noexit: error [no-exit] no exit instruction anywhere in the body")
    (fun () -> ignore (Ptx.Verify.validate k))

(* Validation names every structural error, not only the first. *)
let test_validation_names_every_error () =
  let text =
    String.concat "\n"
      [ ".kernel two ()"; ".reg 2 .pred 1 .shared 0"; "{"; "  mov %r5, 0;";
        "  bra nowhere;"; "  exit;"; "}" ]
  in
  match Ptx.Parse.kernel_of_string text with
  | _ -> Alcotest.fail "expected Kernel.Invalid"
  | exception Ptx.Kernel.Invalid msg ->
      List.iter
        (fun code ->
          if not (mentions msg ("[" ^ code ^ "]")) then
            Alcotest.failf "%S does not name %s" msg code)
        [ "register-bounds"; "unknown-label" ]

let test_duplicate_label_rejected () =
  let body =
    [| Ptx.Instr.Label "L"; Ptx.Instr.Label "L"; Ptx.Instr.Exit |]
  in
  Alcotest.check_raises "duplicate label"
    (Ptx.Kernel.Invalid "duplicate label L") (fun () ->
      ignore
        (Ptx.Kernel.create ~name:"dup" ~params:[] ~nregs:1 ~npregs:1
           ~smem_bytes:0 body))

(* ---------- def/use ---------- *)

let test_defs_uses () =
  let i = Ptx.Instr.Mad (3, Reg 1, Imm 4L, Reg 2) in
  Alcotest.(check (list int)) "defs" [ 3 ] (Ptx.Instr.defs i);
  Alcotest.(check (list int)) "uses" [ 1; 2 ] (Ptx.Instr.uses i);
  let s = Ptx.Instr.Setp (Lt, S32, 1, Reg 0, Imm 7L) in
  Alcotest.(check (list int)) "pdefs" [ 1 ] (Ptx.Instr.pdefs s);
  Alcotest.(check (list int)) "setp defs no gpr" [] (Ptx.Instr.defs s);
  let br = Ptx.Instr.Bra (Some (false, 2), "L") in
  Alcotest.(check (list int)) "bra puses" [ 2 ] (Ptx.Instr.puses br)

(* ---------- printer / parser round-trip ---------- *)

let roundtrip k =
  let text = Ptx.Kernel.to_string k in
  let k2 = Ptx.Parse.kernel_of_string text in
  let text2 = Ptx.Kernel.to_string k2 in
  Alcotest.(check string) "print-parse-print stable" text text2

let test_roundtrip_handwritten () =
  let b =
    B.create ~name:"rt" ~params:[ u64 "a"; u32 "n" ] ~smem_bytes:64 ()
  in
  let ap = B.ld_param b "a" in
  let n = B.ld_param b "n" in
  let i = B.global_tid b in
  let p = B.setp b Lt i n in
  B.if_ b p (fun () ->
      let x = B.ld b Global F32 (B.at b ~base:ap ~scale:4 i) in
      let y = B.funary b Sqrt x in
      let z = B.fma b y y (B.float 1.5) in
      B.st b Shared F32 (B.at b ~base:(B.int 0) ~scale:4 B.tid_x) z;
      B.bar b;
      let w = B.ld b Shared F32 (B.at b ~base:(B.int 0) ~scale:4 B.tid_x) in
      ignore (B.atom b Aadd U32 (B.addr ap) (B.cvt b ~dst_ty:U32 ~src_ty:F32 w)));
  roundtrip (B.finish b)

(* random straight-line + structured kernels for the round-trip *)
let gen_kernel =
  let open QCheck.Gen in
  let gen_operand nregs =
    frequency
      [ (4, map (fun r -> Reg r) (int_bound (nregs - 1)));
        (2, map (fun i -> Imm (Int64.of_int i)) (int_bound 1000));
        (1, return (Sreg (Tid X)));
        (1, return (Sreg (Ctaid X))) ]
  in
  let gen_iop =
    oneofl [ Add; Sub; Mul; Mulhi; Div; Rem; Min; Max; Band; Bor; Bxor; Shl; Shr ]
  in
  let gen_instr nregs npregs =
    frequency
      [ ( 4,
          map3
            (fun op (d, a) b -> Ptx.Instr.Iop (op, d, a, b))
            gen_iop
            (pair (int_bound (nregs - 1)) (gen_operand nregs))
            (gen_operand nregs) );
        ( 2,
          map2 (fun d s -> Ptx.Instr.Mov (d, s)) (int_bound (nregs - 1))
            (gen_operand nregs) );
        ( 2,
          map3
            (fun (c, ty) p (a, b) -> Ptx.Instr.Setp (c, ty, p, a, b))
            (pair (oneofl [ Eq; Ne; Lt; Le; Gt; Ge ]) (oneofl [ S32; U32; S64; F32 ]))
            (int_bound (npregs - 1))
            (pair (gen_operand nregs) (gen_operand nregs)) );
        ( 1,
          map3
            (fun d a off -> Ptx.Instr.Ld (Global, U32, d, { abase = a; aoffset = off }))
            (int_bound (nregs - 1))
            (gen_operand nregs) (int_bound 64) );
        ( 1,
          map2
            (fun a v -> Ptx.Instr.St (Global, F32, { abase = a; aoffset = 0 }, v))
            (gen_operand nregs) (gen_operand nregs) ) ]
  in
  let nregs = 8 and npregs = 2 in
  map
    (fun instrs ->
      let body = Array.of_list (instrs @ [ Ptx.Instr.Exit ]) in
      Ptx.Verify.validate
        (Ptx.Kernel.create ~name:"rand" ~params:[] ~nregs ~npregs
           ~smem_bytes:0 body))
    (list_size (int_range 1 30) (gen_instr nregs npregs))

let prop_roundtrip =
  QCheck.Test.make ~count:200 ~name:"printer/parser round-trip (random kernels)"
    (QCheck.make gen_kernel)
    (fun k ->
      let text = Ptx.Kernel.to_string k in
      let k2 = Ptx.Parse.kernel_of_string text in
      Ptx.Kernel.to_string k2 = text)

(* ---------- CFG and dominators ---------- *)

let diamond_kernel () =
  (* if p then x=1 else x=2; exit — classic diamond *)
  let body =
    [| Ptx.Instr.Setp (Lt, S32, 0, Sreg (Tid X), Imm 16L) (* 0 *);
       Ptx.Instr.Bra (Some (true, 0), "THEN") (* 1 *);
       Ptx.Instr.Mov (0, Imm 2L) (* 2 *);
       Ptx.Instr.Bra (None, "JOIN") (* 3 *);
       Ptx.Instr.Label "THEN" (* 4 *);
       Ptx.Instr.Mov (0, Imm 1L) (* 5 *);
       Ptx.Instr.Label "JOIN" (* 6 *);
       Ptx.Instr.Exit (* 7 *)
    |]
  in
  Ptx.Verify.validate
    (Ptx.Kernel.create ~name:"diamond" ~params:[] ~nregs:1 ~npregs:1
       ~smem_bytes:0 body)

let test_cfg_diamond () =
  let k = diamond_kernel () in
  let cfg = Ptx.Cfg.build k in
  Alcotest.(check int) "4 blocks" 4 (Ptx.Cfg.nblocks cfg);
  let entry = Ptx.Cfg.block cfg 0 in
  Alcotest.(check int) "entry has 2 successors" 2
    (List.length entry.Ptx.Cfg.succs);
  let join = Ptx.Cfg.block_of_pc cfg 6 in
  Alcotest.(check int) "join has 2 preds" 2
    (List.length (Ptx.Cfg.block cfg join).Ptx.Cfg.preds)

let test_reconvergence_diamond () =
  let k = diamond_kernel () in
  let cfg = Ptx.Cfg.build k in
  let pdom = Ptx.Dom.post_dominators cfg in
  match Ptx.Dom.reconvergence_pc cfg pdom 1 with
  | Some pc ->
      Alcotest.(check int) "reconverges at JOIN label" 6 pc
  | None -> Alcotest.fail "expected reconvergence point"

let test_dominators_diamond () =
  let k = diamond_kernel () in
  let cfg = Ptx.Cfg.build k in
  let dom = Ptx.Dom.dominators cfg in
  (* entry dominates everything *)
  for b = 0 to Ptx.Cfg.nblocks cfg - 1 do
    Alcotest.(check bool) "entry dominates" true (Ptx.Dom.dominates dom 0 b)
  done;
  (* neither branch arm dominates the join *)
  let join = Ptx.Cfg.block_of_pc cfg 6 in
  let then_ = Ptx.Cfg.block_of_pc cfg 5 in
  let else_ = Ptx.Cfg.block_of_pc cfg 2 in
  Alcotest.(check bool) "then arm does not dominate join" false
    (Ptx.Dom.dominates dom then_ join);
  Alcotest.(check bool) "else arm does not dominate join" false
    (Ptx.Dom.dominates dom else_ join)

let loop_kernel () =
  let b = B.create ~name:"loop" ~params:[ u32 "n" ] () in
  let n = B.ld_param b "n" in
  let acc = B.fresh_reg b in
  B.emit b (Ptx.Instr.Mov (acc, Imm 0L));
  B.for_loop b ~init:(B.int 0) ~bound:n ~step:(B.int 1) (fun i ->
      B.emit b (Ptx.Instr.Iop (Add, acc, Reg acc, i)));
  B.finish b

let test_loop_cfg () =
  let k = loop_kernel () in
  let cfg = Ptx.Cfg.build k in
  (* the loop head must have two predecessors: entry and the back edge *)
  let has_back_edge =
    Array.exists
      (fun blk ->
        List.exists (fun s -> s <= blk.Ptx.Cfg.bid) blk.Ptx.Cfg.succs)
      cfg.Ptx.Cfg.blocks
  in
  Alcotest.(check bool) "has a back edge" true has_back_edge;
  (* reverse postorder visits every reachable block exactly once *)
  let rpo = Ptx.Cfg.reverse_postorder cfg in
  Alcotest.(check int) "rpo covers all blocks"
    (Ptx.Cfg.nblocks cfg) (List.length rpo);
  Alcotest.(check int) "rpo unique"
    (List.length rpo)
    (List.length (List.sort_uniq compare rpo))

(* dominator sanity on random CFGs derived from random kernels with
   branches *)
let gen_branchy_kernel =
  let open QCheck.Gen in
  map
    (fun choices ->
      let b = B.create ~name:"branchy" ~params:[ u32 "n" ] () in
      let n = B.ld_param b "n" in
      List.iteri
        (fun idx choice ->
          let p = B.setp b Lt B.tid_x n in
          match choice mod 3 with
          | 0 -> B.if_ b p (fun () -> ignore (B.add b B.tid_x (B.int idx)))
          | 1 ->
              B.if_not b p (fun () ->
                  ignore (B.mul b B.tid_x (B.int (idx + 1))))
          | _ ->
              B.for_loop b ~init:(B.int 0) ~bound:(B.int (1 + (idx mod 3)))
                ~step:(B.int 1) (fun i -> ignore (B.add b i (B.int 1))))
        choices;
      B.finish b)
    (list_size (int_range 1 6) (int_bound 2))

let prop_dominator_sanity =
  QCheck.Test.make ~count:100 ~name:"dominator properties (random CFGs)"
    (QCheck.make gen_branchy_kernel)
    (fun k ->
      let cfg = Ptx.Cfg.build k in
      let dom = Ptx.Dom.dominators cfg in
      let ok = ref true in
      (* every reachable block is dominated by the entry, and idom is a
         strict dominator *)
      List.iter
        (fun b ->
          if not (Ptx.Dom.dominates dom 0 b) then ok := false;
          match Ptx.Dom.idom dom b with
          | Some i ->
              if not (Ptx.Dom.dominates dom i b) then ok := false;
              if i = b then ok := false
          | None -> if b <> 0 then ok := false)
        (Ptx.Cfg.reverse_postorder cfg);
      !ok)

let prop_branches_have_reconvergence =
  QCheck.Test.make ~count:100
    ~name:"builder if/loop branches reconverge before exit"
    (QCheck.make gen_branchy_kernel)
    (fun k ->
      let cfg = Ptx.Cfg.build k in
      let pdom = Ptx.Dom.post_dominators cfg in
      let ok = ref true in
      Array.iteri
        (fun pc instr ->
          match instr with
          | Ptx.Instr.Bra (Some _, _) ->
              (* structured guards from the builder always reconverge *)
              if Ptx.Dom.reconvergence_pc cfg pdom pc = None then ok := false
          | _ -> ())
        k.Ptx.Kernel.body;
      !ok)

(* Parse errors carry the 1-based source line and the offending token,
   even with comments and blank lines above the bad line. *)
let test_parse_error_line_numbers () =
  let text =
    String.concat "\n"
      [ ".kernel k (.param .u64 a)";
        "// a comment line";
        ".reg 4 .pred 1 .shared 0";
        "{";
        "";
        "  mov %r0, %r1;";
        "  mov %bogus, %r0;";
        "  exit;";
        "}" ]
  in
  match Ptx.Parse.kernel_of_string text with
  | _ -> Alcotest.fail "expected a parse error"
  | exception Ptx.Parse.Error msg ->
      let contains sub =
        if not (mentions msg sub) then
          Alcotest.failf "error %S does not mention %S" msg sub
      in
      contains "line 7";
      contains "%bogus"

let tests =
  [
    Alcotest.test_case "builder basics" `Quick test_builder_basic;
    Alcotest.test_case "parse error: line number + token" `Quick
      test_parse_error_line_numbers;
    Alcotest.test_case "validation: bad label" `Quick
      test_validation_catches_bad_label;
    Alcotest.test_case "validation: bad register" `Quick
      test_validation_catches_bad_register;
    Alcotest.test_case "validation: missing exit" `Quick
      test_validation_requires_exit;
    Alcotest.test_case "validation: every error named" `Quick
      test_validation_names_every_error;
    Alcotest.test_case "validation: duplicate label" `Quick
      test_duplicate_label_rejected;
    Alcotest.test_case "def/use sets" `Quick test_defs_uses;
    Alcotest.test_case "round-trip: handwritten kernel" `Quick
      test_roundtrip_handwritten;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    Alcotest.test_case "cfg: diamond" `Quick test_cfg_diamond;
    Alcotest.test_case "reconvergence: diamond" `Quick
      test_reconvergence_diamond;
    Alcotest.test_case "dominators: diamond" `Quick test_dominators_diamond;
    Alcotest.test_case "cfg: loop back edge + rpo" `Quick test_loop_cfg;
    QCheck_alcotest.to_alcotest prop_dominator_sanity;
    QCheck_alcotest.to_alcotest prop_branches_have_reconvergence;
  ]

let () = Alcotest.run "ptx" [ ("ptx", tests) ]
