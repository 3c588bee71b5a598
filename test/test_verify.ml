(* Tests for the static kernel verifier (Ptx.Verify + Dataflow.Verify):
   every shipped workload kernel must verify clean, and a table of
   hand-built bad kernels must each produce the expected diagnostic. *)

open Ptx.Types
module Instr = Ptx.Instr
module V = Ptx.Verify

let diag_codes k =
  List.map
    (fun (d : V.diag) -> d.V.d_code)
    (fst (Dataflow.Verify.verify_kernel k))

let has_code code k = List.mem code (diag_codes k)

(* ---- golden: the whole suite verifies clean ---- *)

(* Every distinct kernel launched by every workload, at small scale. *)
let suite_kernels () =
  let seen = Hashtbl.create 32 in
  List.concat_map
    (fun (app : Workloads.App.t) ->
      List.filter_map
        (fun (launch : Gsim.Launch.t) ->
          let k = launch.Gsim.Launch.kernel in
          if Hashtbl.mem seen k.Ptx.Kernel.kname then None
          else begin
            Hashtbl.add seen k.Ptx.Kernel.kname ();
            Some k
          end)
        (Workloads.App.kernel_launches (app.make Workloads.App.Small)))
    Workloads.Suite.all

let test_suite_clean () =
  let kernels = suite_kernels () in
  Alcotest.(check bool) "found a non-trivial kernel set" true
    (List.length kernels >= 15);
  List.iter
    (fun (k : Ptx.Kernel.t) ->
      let diags = fst (Dataflow.Verify.verify_kernel k) in
      Alcotest.(check (list string))
        (Printf.sprintf "kernel %s verifies clean" k.Ptx.Kernel.kname)
        []
        (List.map V.to_string diags))
    kernels

(* ---- hand-built bad kernels ---- *)

let mk ?(params = []) ?(nregs = 8) ?(npregs = 4) body =
  (* Kernel.create skips Ptx.Verify.validate, so broken programs can
     reach the verifier *)
  Ptx.Kernel.create ~name:"bad" ~params ~nregs ~npregs ~smem_bytes:0
    (Array.of_list body)

let test_use_before_def () =
  let k =
    mk [ Instr.Iop (Add, 0, Reg 1, Imm 1L); Instr.Exit ]
  in
  Alcotest.(check bool) "undefined register flagged" true
    (has_code "use-before-def" k)

let test_use_before_def_pred () =
  let k = mk [ Instr.Bra (Some (true, 0), "l"); Instr.Label "l"; Instr.Exit ] in
  Alcotest.(check bool) "undefined predicate flagged" true
    (has_code "use-before-def" k)

let test_bad_branch_target () =
  let k = mk [ Instr.Bra (None, "nowhere"); Instr.Exit ] in
  Alcotest.(check bool) "unresolved label flagged" true
    (has_code "unknown-label" k)

let test_missing_param () =
  let k = mk [ Instr.Ld_param (0, "missing"); Instr.Exit ] in
  Alcotest.(check bool) "undeclared parameter flagged" true
    (has_code "unknown-param" k)

let test_register_bounds () =
  let k = mk ~nregs:2 [ Instr.Mov (7, Imm 0L); Instr.Exit ] in
  Alcotest.(check bool) "out-of-range register flagged" true
    (has_code "register-bounds" k)

(* a negative declared size is an error, not a crash of the dataflow
   analyses that size their arrays by it *)
let test_negative_size () =
  let k = mk ~nregs:(-5) [ Instr.Exit ] in
  Alcotest.(check (list string)) "negative size flagged" [ "negative-size" ]
    (diag_codes k)

let test_no_exit () =
  let k = mk [ Instr.Mov (0, Imm 0L) ] in
  Alcotest.(check bool) "missing exit flagged" true (has_code "no-exit" k)

let test_unreachable_warns () =
  let k =
    mk
      [ Instr.Bra (None, "l"); Instr.Mov (0, Imm 0L); Instr.Label "l";
        Instr.Exit ]
  in
  let diags = fst (Dataflow.Verify.verify_kernel k) in
  Alcotest.(check bool) "dead code warned" true
    (List.exists
       (fun (d : V.diag) ->
         d.V.d_code = "unreachable" && d.V.d_severity = V.Warning)
       diags);
  Alcotest.(check bool) "dead code is not an error" true
    (V.errors diags = [])

let test_float_address () =
  let k =
    mk
      [ Instr.Fop (Fadd, F32, 0, Fimm 1.0, Fimm 2.0);
        Instr.Ld (Global, U32, 1, { abase = Reg 0; aoffset = 0 });
        Instr.Exit ]
  in
  Alcotest.(check bool) "float-valued address base flagged" true
    (has_code "float-address" k)

(* bar.sync inside a tid-guarded arm: part of the warp branches around
   the barrier and the rest waits forever *)
let test_divergent_barrier () =
  let k =
    mk
      [ Instr.Mov (0, Sreg (Tid X));
        Instr.Setp (Eq, U32, 0, Reg 0, Imm 0L);
        Instr.Bra (Some (false, 0), "skip");
        Instr.Bar;
        Instr.Label "skip";
        Instr.Exit ]
  in
  Alcotest.(check bool) "divergent barrier flagged" true
    (has_code "divergent-barrier" k)

(* the same shape with a block-uniform guard (ctaid) is fine *)
let test_uniform_barrier_clean () =
  let k =
    mk
      [ Instr.Mov (0, Sreg (Ctaid X));
        Instr.Setp (Eq, U32, 0, Reg 0, Imm 0L);
        Instr.Bra (Some (false, 0), "skip");
        Instr.Bar;
        Instr.Label "skip";
        Instr.Exit ]
  in
  Alcotest.(check bool) "uniform-guard barrier not flagged" false
    (has_code "divergent-barrier" k);
  (* and a barrier at the reconvergence point is fine even when the
     branch itself diverges *)
  let k2 =
    mk
      [ Instr.Mov (0, Sreg (Tid X));
        Instr.Setp (Eq, U32, 0, Reg 0, Imm 0L);
        Instr.Bra (Some (false, 0), "skip");
        Instr.Mov (1, Imm 1L);
        Instr.Label "skip";
        Instr.Bar;
        Instr.Exit ]
  in
  Alcotest.(check bool) "post-reconvergence barrier not flagged" false
    (has_code "divergent-barrier" k2)

(* A barrier skipped by the branch [Bra (Some (false, p), "skip")] at
   the end of [guard], which sets predicate [p]. *)
let guarded_barrier ?params guard =
  mk ?params (guard @ [ Instr.Bar; Instr.Label "skip"; Instr.Exit ])

let test_laneid_barrier () =
  let k =
    guarded_barrier
      [ Instr.Mov (0, Sreg Laneid);
        Instr.Setp (Eq, U32, 0, Reg 0, Imm 0L);
        Instr.Bra (Some (false, 0), "skip") ]
  in
  Alcotest.(check bool) "%laneid guard flagged" true
    (has_code "divergent-barrier" k)

(* The guard's value is loaded from a[tid.x]: the slice stops at the
   load, whose value the verifier cannot see, so the guard counts as
   uniform although the load's address is thread-dependent. *)
let test_loaded_guard_clean () =
  let k =
    guarded_barrier
      ~params:[ { Ptx.Kernel.pname = "a"; pty = U64 } ]
      [ Instr.Ld_param (0, "a");
        Instr.Mov (1, Sreg (Tid X));
        Instr.Mad (2, Reg 1, Imm 4L, Reg 0);
        Instr.Ld (Global, U32, 3, { abase = Reg 2; aoffset = 0 });
        Instr.Setp (Eq, U32, 0, Reg 3, Imm 0L);
        Instr.Bra (Some (false, 0), "skip") ]
  in
  Alcotest.(check bool) "loaded guard not flagged" false
    (has_code "divergent-barrier" k)

(* Guards that reach %tid.x only through a predicate source operand. *)
let tid_pred =
  [ Instr.Mov (0, Sreg (Tid X)); Instr.Setp (Eq, U32, 0, Reg 0, Imm 0L) ]

let test_selp_predicate_edge () =
  let k =
    guarded_barrier
      (tid_pred
      @ [ Instr.Selp (1, Imm 1L, Imm 2L, 0);
          Instr.Setp (Eq, U32, 1, Reg 1, Imm 1L);
          Instr.Bra (Some (false, 1), "skip") ])
  in
  Alcotest.(check bool) "guard through selp's predicate flagged" true
    (has_code "divergent-barrier" k)

let test_pnot_predicate_edge () =
  let k =
    guarded_barrier
      (tid_pred @ [ Instr.Pnot (1, 0); Instr.Bra (Some (false, 1), "skip") ])
  in
  Alcotest.(check bool) "guard through pnot flagged" true
    (has_code "divergent-barrier" k)

(* Forms the printer spells as another instruction: an [Ld] from
   [Param] prints as ld.param, which reads a parameter by name, and a
   float op on u32 prints as its f32 twin, which rounds. *)
let test_unprintable_forms () =
  let k =
    mk
      [ Instr.Mov (0, Imm 64L);
        Instr.Ld (Param, U32, 1, { abase = Reg 0; aoffset = 4 });
        Instr.Fop (Fadd, U32, 2, Reg 1, Reg 1);
        Instr.Fop (Fadd, F64, 3, Reg 2, Reg 2);
        Instr.Exit ]
  in
  Alcotest.(check (list (pair int string)))
    "both forms rejected at their pcs"
    [ (1, "param-address"); (2, "float-op-type") ]
    (List.map (fun (d : V.diag) -> (d.V.d_pc, d.V.d_code)) (V.structural k))

(* A float immediate as an address base prints as [0x1p+0], whose
   exponent sign the parser reads as the offset separator. *)
let test_float_immediate_address () =
  let a = { abase = Fimm 1.0; aoffset = 0 } in
  let k =
    mk
      [ Instr.Ld (Global, U32, 0, a);
        Instr.St (Shared, U32, a, Reg 0);
        Instr.Atom (Aadd, U32, 1, a, Imm 1L);
        Instr.Exit ]
  in
  Alcotest.(check (list (pair int string)))
    "ld, st and atom rejected at their pcs"
    [ (0, "float-immediate-address"); (1, "float-immediate-address");
      (2, "float-immediate-address") ]
    (List.map (fun (d : V.diag) -> (d.V.d_pc, d.V.d_code)) (V.structural k))

(* Kernel, parameter and label names print bare, so one that is not an
   identifier splits its token: [.param .u64 a b], [@%p0 bra l x]. *)
let test_bad_names () =
  let named ~name ~param ~label =
    Ptx.Kernel.create ~name
      ~params:[ { Ptx.Kernel.pname = param; pty = U64 } ]
      ~nregs:2 ~npregs:1 ~smem_bytes:0
      [| Instr.Ld_param (0, param);
         Instr.Setp (Eq, U64, 0, Reg 0, Imm 0L);
         Instr.Bra (Some (true, 0), label);
         Instr.Mov (1, Imm 1L);
         Instr.Label label;
         Instr.Exit |]
  in
  Alcotest.(check (list (pair int string)))
    "kernel, parameter and label names rejected"
    [ (-1, "bad-name"); (-1, "bad-name"); (4, "bad-name") ]
    (List.map
       (fun (d : V.diag) -> (d.V.d_pc, d.V.d_code))
       (V.structural (named ~name:"k 1" ~param:"a b" ~label:"l x")));
  Alcotest.(check (list string))
    "the identifier spellings are clean" []
    (List.map V.to_string
       (V.structural (named ~name:"k_1" ~param:"a_b" ~label:"$l_x")))

(* The corrected forms — a register address base loaded with the
   immediate, identifier names — print and parse back as themselves. *)
let test_corrected_forms_roundtrip () =
  let k =
    Ptx.Kernel.create ~name:"k_1"
      ~params:[ { Ptx.Kernel.pname = "a_b"; pty = U64 } ]
      ~nregs:3 ~npregs:1 ~smem_bytes:0
      [| Instr.Ld_param (0, "a_b");
         Instr.Setp (Eq, U64, 0, Reg 0, Imm 0L);
         Instr.Bra (Some (true, 0), "$l_x");
         Instr.Mov (1, Imm 64L);
         Instr.Ld (Global, U32, 2, { abase = Reg 1; aoffset = 4 });
         Instr.St (Global, U32, { abase = Reg 1; aoffset = 8 }, Reg 2);
         Instr.Atom (Aadd, U32, 2, { abase = Reg 1; aoffset = 0 }, Imm 1L);
         Instr.Label "$l_x";
         Instr.Exit |]
  in
  let text = Ptx.Kernel.to_string (V.validate k) in
  Alcotest.(check string) "print -> parse -> print" text
    (Ptx.Kernel.to_string (Ptx.Parse.kernel_of_string text))

(* structural errors suppress the dataflow pass (whose analyses assume
   in-bounds registers) *)
let test_structural_gates_dataflow () =
  let k = mk ~nregs:1 [ Instr.Iop (Add, 5, Reg 9, Imm 0L); Instr.Exit ] in
  let codes = diag_codes k in
  Alcotest.(check bool) "bounds error reported" true
    (List.mem "register-bounds" codes);
  Alcotest.(check bool) "no dataflow diagnostics alongside" false
    (List.mem "use-before-def" codes)

let () =
  Alcotest.run "verify"
    [
      ( "golden",
        [ Alcotest.test_case "all suite kernels verify clean" `Quick
            test_suite_clean ] );
      ( "bad-kernels",
        [
          Alcotest.test_case "use before def (register)" `Quick
            test_use_before_def;
          Alcotest.test_case "use before def (predicate)" `Quick
            test_use_before_def_pred;
          Alcotest.test_case "bad branch target" `Quick test_bad_branch_target;
          Alcotest.test_case "missing parameter" `Quick test_missing_param;
          Alcotest.test_case "register out of bounds" `Quick
            test_register_bounds;
          Alcotest.test_case "no exit" `Quick test_no_exit;
          Alcotest.test_case "negative declared size" `Quick
            test_negative_size;
          Alcotest.test_case "unreachable code warns" `Quick
            test_unreachable_warns;
          Alcotest.test_case "float address base" `Quick test_float_address;
          Alcotest.test_case "divergent barrier" `Quick test_divergent_barrier;
          Alcotest.test_case "uniform barrier clean" `Quick
            test_uniform_barrier_clean;
          Alcotest.test_case "%laneid barrier guard" `Quick
            test_laneid_barrier;
          Alcotest.test_case "loaded guard is uniform" `Quick
            test_loaded_guard_clean;
          Alcotest.test_case "guard through selp's predicate" `Quick
            test_selp_predicate_edge;
          Alcotest.test_case "guard through pnot" `Quick
            test_pnot_predicate_edge;
          Alcotest.test_case "structural gates dataflow" `Quick
            test_structural_gates_dataflow;
          Alcotest.test_case "unprintable forms" `Quick
            test_unprintable_forms;
          Alcotest.test_case "float immediate address base" `Quick
            test_float_immediate_address;
          Alcotest.test_case "names that are not identifiers" `Quick
            test_bad_names;
          Alcotest.test_case "corrected forms round-trip" `Quick
            test_corrected_forms_roundtrip;
        ] );
    ]
