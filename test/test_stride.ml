(* Tests of the static lane-stride / coalescing predictor, including
   validation of its predictions against measured coalescing from the
   functional simulator. *)

open Ptx.Types
module B = Ptx.Builder
module S = Dataflow.Stride

let u64 n = { Ptx.Kernel.pname = n; pty = U64 }
let u32 n = { Ptx.Kernel.pname = n; pty = U32 }
let f32 n = { Ptx.Kernel.pname = n; pty = F32 }

let prediction =
  Alcotest.testable
    (fun ppf p -> Format.pp_print_string ppf (S.string_of_prediction p))
    ( = )

let predictions k = List.map (fun lp -> lp.S.lp_prediction) (S.predict k)

(* a[tid] with 4-byte elements: textbook coalesced *)
let test_unit_stride () =
  let b = B.create ~name:"unit" ~params:[ u64 "a" ] () in
  let a = B.ld_param b "a" in
  let i = B.global_tid b in
  let v = B.ld b Global F32 (B.at b ~base:a ~scale:4 i) in
  B.st b Global F32 (B.addr a) v;
  Alcotest.(check (list prediction)) "unit stride: one line per warp"
    [ S.Coalesced 1 ]
    (predictions (B.finish b))

(* a[tid * 33]: strided *)
let test_large_stride () =
  let b = B.create ~name:"strided" ~params:[ u64 "a" ] () in
  let a = B.ld_param b "a" in
  let i = B.mul b (B.global_tid b) (B.int 33) in
  let v = B.ld b Global F32 (B.at b ~base:a ~scale:4 i) in
  B.st b Global F32 (B.addr a) v;
  Alcotest.(check (list prediction)) "132-byte stride: one line per lane"
    [ S.Strided 32 ]
    (predictions (B.finish b))

(* a[ctaid.x]: lane-invariant broadcast *)
let test_broadcast () =
  let b = B.create ~name:"bcast" ~params:[ u64 "a" ] () in
  let a = B.ld_param b "a" in
  let v = B.ld b Global F32 (B.at b ~base:a ~scale:4 B.ctaid_x) in
  B.st b Global F32 (B.addr a) v;
  Alcotest.(check (list prediction)) "broadcast" [ S.Broadcast ]
    (predictions (B.finish b))

(* a[idx[tid]]: the gather is irregular, the index load coalesced *)
let test_gather_irregular () =
  let b = B.create ~name:"gather" ~params:[ u64 "idx"; u64 "a" ] () in
  let ip = B.ld_param b "idx" in
  let a = B.ld_param b "a" in
  let i = B.global_tid b in
  let x = B.ld b Global U32 (B.at b ~base:ip ~scale:4 i) in
  let v = B.ld b Global F32 (B.at b ~base:a ~scale:4 x) in
  B.st b Global F32 (B.addr a) v;
  Alcotest.(check (list prediction)) "index coalesced, gather irregular"
    [ S.Coalesced 1; S.Irregular ]
    (predictions (B.finish b))

(* shl-based scaling: a[tid << 1] in 4-byte elements = 8-byte stride *)
let test_shl_scaling () =
  let b = B.create ~name:"shl" ~params:[ u64 "a" ] () in
  let a = B.ld_param b "a" in
  let i = B.shl b (B.global_tid b) (B.int 1) in
  let v = B.ld b Global F32 (B.at b ~base:a ~scale:4 i) in
  B.st b Global F32 (B.addr a) v;
  Alcotest.(check (list prediction)) "8-byte stride: two lines per warp"
    [ S.Coalesced 2 ]
    (predictions (B.finish b))

(* tid.x - tid.x cancels: broadcast *)
let test_cancellation () =
  let b = B.create ~name:"cancel" ~params:[ u64 "a" ] () in
  let a = B.ld_param b "a" in
  let t = B.global_tid b in
  let z = B.sub b t t in
  let v = B.ld b Global F32 (B.at b ~base:a ~scale:4 z) in
  B.st b Global F32 (B.addr a) v;
  Alcotest.(check (list prediction)) "cancelled stride" [ S.Broadcast ]
    (predictions (B.finish b))

(* a[tid.y * w + s * sym] is grouped-affine: one unknown base per row.
   With a negative x- or lane-stride s, lanes below the base fall in the
   lines before it, so the count must be the number of distinct floor
   lines of the lane offsets s * lane. *)
let test_negative_grouped_stride () =
  let requests sym stride =
    let b = B.create ~name:"neg" ~params:[ u64 "a"; u64 "w" ] () in
    let a = B.ld_param b "a" in
    let row = B.mul b B.tid_y (B.ld_param b "w") in
    let off = B.add b row (B.mul b sym (B.int stride)) in
    let v = B.ld b Global F32 (B.addr (B.add b a off)) in
    B.st b Global F32 (B.addr a) v;
    match predictions (B.finish b) with
    | [ (S.Coalesced n | S.Strided n) ] -> n
    | ps ->
        Alcotest.failf "expected one affine load, got %s"
          (String.concat ", " (List.map S.string_of_prediction ps))
  in
  let floor_lines stride =
    List.init 32 (fun lane ->
        Float.floor (float_of_int (stride * lane) /. 128.))
    |> List.sort_uniq compare |> List.length
  in
  List.iter
    (fun (stride, lines) ->
      Alcotest.(check int)
        (Printf.sprintf "%d B: distinct floor lines" stride)
        lines (floor_lines stride);
      List.iter
        (fun (name, sym) ->
          Alcotest.(check int)
            (Printf.sprintf "%d B %s-stride" stride name)
            lines (requests sym stride))
        [ ("x", B.tid_x); ("lane", B.special Laneid) ])
    [ (-4, 2); (-8, 3) ]

(* loop-carried address: conservatively irregular *)
let test_loop_carried_conservative () =
  let b = B.create ~name:"loopy" ~params:[ u64 "a"; u32 "n" ] () in
  let a = B.ld_param b "a" in
  let n = B.ld_param b "n" in
  let acc = Workloads.Kutil.f32_acc b in
  B.for_loop b ~init:(B.global_tid b) ~bound:n ~step:(B.int 32) (fun i ->
      let v = B.ld b Global F32 (B.at b ~base:a ~scale:4 i) in
      B.emit b (Ptx.Instr.Fop (Fadd, F32, acc, Reg acc, v)));
  B.st b Global F32 (B.addr a) (Reg acc);
  match predictions (B.finish b) with
  | [ S.Irregular ] -> ()
  | [ p ] ->
      Alcotest.failf "expected conservative Irregular, got %s"
        (S.string_of_prediction p)
  | _ -> Alcotest.fail "expected one load"

(* Validation against the functional simulator: for every kernel of the
   suite, a load predicted Coalesced(<=8) must measure <= 2 requests
   per fully-active warp; Broadcast must measure 1.  We validate on the
   simple one-launch apps whose per-pc dynamic counts are available. *)
let test_predictions_vs_measurement () =
  (* dwt row pass: every load is Coalesced(8) (two pixels per lane) *)
  let app = Workloads.Suite.find "dwt" in
  let run = app.Workloads.App.make Workloads.App.Small in
  (match run.Workloads.App.next_launch () with
  | Some launch ->
      let k = launch.Gsim.Launch.kernel in
      List.iter
        (fun lp ->
          match lp.S.lp_prediction with
          | S.Coalesced n ->
              Alcotest.(check bool) "dwt loads coalesce into <= 2 lines" true
                (n <= 2)
          | p ->
              Alcotest.failf "dwt load predicted %s"
                (S.string_of_prediction p))
        (S.predict ~block:launch.Gsim.Launch.block k);
      let fs = Gsim.Funcsim.run launch in
      Alcotest.(check bool) "measured requests/warp <= 2" true
        (Gsim.Funcsim.requests_per_warp fs Dataflow.Classify.Deterministic
         <= 2.01)
  | None -> Alcotest.fail "dwt has no launch");
  (* bfs kernel 1: the edge/visited gathers must be Irregular *)
  let app = Workloads.Suite.find "bfs" in
  let run = app.Workloads.App.make Workloads.App.Small in
  match run.Workloads.App.next_launch () with
  | Some launch ->
      let k = launch.Gsim.Launch.kernel in
      let irregular =
        List.filter (fun lp -> lp.S.lp_prediction = S.Irregular) (S.predict k)
      in
      Alcotest.(check int) "bfs k1 has 2 irregular gathers" 2
        (List.length irregular);
      (* the irregular set must coincide with the N classification *)
      let classes = launch.Gsim.Launch.classes in
      List.iter
        (fun lp ->
          Alcotest.(check bool) "irregular loads are non-deterministic" true
            (Dataflow.Classify.class_of_global_load classes lp.S.lp_pc
            = Some Dataflow.Classify.Nondeterministic))
        irregular
  | None -> Alcotest.fail "bfs has no launch"

(* Predicted-coalesced loads across the whole suite must be classified
   deterministic (the converse of the paper's claim: coalescing-by-
   construction implies parameter-only addressing). *)
let test_coalesced_implies_deterministic () =
  List.iter
    (fun (app : Workloads.App.t) ->
      let run = app.Workloads.App.make Workloads.App.Small in
      let continue_ = ref true in
      while !continue_ do
        match run.Workloads.App.next_launch () with
        | None -> continue_ := false
        | Some launch ->
            let k = launch.Gsim.Launch.kernel in
            List.iter
              (fun lp ->
                match lp.S.lp_prediction with
                | S.Coalesced _ | S.Broadcast | S.Strided _ ->
                    Alcotest.(check bool)
                      (Printf.sprintf "%s pc %d: affine implies D"
                         k.Ptx.Kernel.kname lp.S.lp_pc)
                      true
                      (Dataflow.Classify.class_of_global_load
                         launch.Gsim.Launch.classes lp.S.lp_pc
                      = Some Dataflow.Classify.Deterministic)
                | S.Irregular -> ())
              (S.predict k)
      done)
    Workloads.Suite.all

(* laundering a lane-variant value through float ops must not make it
   look uniform *)
let test_float_laundering () =
  let b = B.create ~name:"launder" ~params:[ u64 "a" ] () in
  let a = B.ld_param b "a" in
  let t = B.global_tid b in
  let f = B.cvt b ~dst_ty:F32 ~src_ty:S32 t in
  let f2 = B.fmul b f (B.float 2.0) in
  let i = B.cvt b ~dst_ty:S32 ~src_ty:F32 f2 in
  let v = B.ld b Global F32 (B.at b ~base:a ~scale:4 i) in
  B.st b Global F32 (B.addr a) v;
  match predictions (B.finish b) with
  | [ S.Irregular ] -> ()
  | [ p ] ->
      Alcotest.failf "float-laundered address must be Irregular, got %s"
        (S.string_of_prediction p)
  | _ -> Alcotest.fail "expected one load"

(* but float ops over uniform values stay uniform *)
let test_float_uniform () =
  let b = B.create ~name:"funi" ~params:[ u64 "a"; f32 "s" ] () in
  let a = B.ld_param b "a" in
  let s = B.ld_param b "s" in
  let f2 = B.fmul b s (B.float 2.0) in
  let i = B.cvt b ~dst_ty:S32 ~src_ty:F32 f2 in
  let v = B.ld b Global F32 (B.at b ~base:a ~scale:4 i) in
  B.st b Global F32 (B.addr a) v;
  match predictions (B.finish b) with
  | [ S.Broadcast ] -> ()
  | [ p ] ->
      Alcotest.failf "uniform float address must be Broadcast, got %s"
        (S.string_of_prediction p)
  | _ -> Alcotest.fail "expected one load"

(* Suite-wide validation: every statically predicted coalescing class
   must be consistent with the measured requests-per-warp of that load
   in the functional simulator:
     Broadcast          -> exactly 1 request per warp
     Coalesced (<=8B)   -> at most 2+epsilon requests per warp
     Strided s          -> at most ceil(32*s/128)+1 requests per warp
   (Irregular makes no promise.) *)
let test_predictions_hold_suite_wide () =
  List.iter
    (fun (app : Workloads.App.t) ->
      let run = app.Workloads.App.make Workloads.App.Small in
      let fs = Gsim.Funcsim.create Gsim.Config.default in
      let preds = Hashtbl.create 32 in
      let continue_ = ref true in
      while !continue_ do
        match run.Workloads.App.next_launch () with
        | None -> continue_ := false
        | Some launch ->
            let k = launch.Gsim.Launch.kernel in
            let kname = k.Ptx.Kernel.kname in
            if not (Hashtbl.mem preds kname) then
              Hashtbl.add preds kname
                (S.predict ~block:launch.Gsim.Launch.block k);
            Gsim.Funcsim.run_into fs launch
      done;
      Hashtbl.iter
        (fun kname kernel_preds ->
          List.iter
            (fun (lp : S.load_prediction) ->
              match
                Gsim.Funcsim.requests_per_warp_of_pc fs ~kernel:kname
                  ~pc:lp.S.lp_pc
              with
              | None -> () (* the load never executed *)
              | Some measured -> (
                  let name =
                    Printf.sprintf "%s/%s pc %d (%s): measured %.2f"
                      app.Workloads.App.name kname lp.S.lp_pc
                      (S.string_of_prediction lp.S.lp_prediction)
                      measured
                  in
                  match lp.S.lp_prediction with
                  | S.Broadcast ->
                      Alcotest.(check bool) name true (measured <= 1.01)
                  | S.Coalesced n | S.Strided n ->
                      (* +1 slack: a warp whose base lands mid-line *)
                      Alcotest.(check bool) name true
                        (measured <= float_of_int (n + 1))
                  | S.Irregular -> ()))
            kernel_preds)
        preds)
    Workloads.Suite.all

let tests =
  [
    Alcotest.test_case "predictions hold suite-wide" `Quick
      test_predictions_hold_suite_wide;
    Alcotest.test_case "float laundering stays irregular" `Quick
      test_float_laundering;
    Alcotest.test_case "uniform float stays broadcast" `Quick
      test_float_uniform;
    Alcotest.test_case "unit stride" `Quick test_unit_stride;
    Alcotest.test_case "large stride" `Quick test_large_stride;
    Alcotest.test_case "broadcast" `Quick test_broadcast;
    Alcotest.test_case "gather irregular" `Quick test_gather_irregular;
    Alcotest.test_case "shl scaling" `Quick test_shl_scaling;
    Alcotest.test_case "term cancellation" `Quick test_cancellation;
    Alcotest.test_case "negative grouped stride" `Quick
      test_negative_grouped_stride;
    Alcotest.test_case "loop-carried conservative" `Quick
      test_loop_carried_conservative;
    Alcotest.test_case "predictions vs funcsim measurement" `Quick
      test_predictions_vs_measurement;
    Alcotest.test_case "affine implies deterministic (whole suite)" `Quick
      test_coalesced_implies_deterministic;
  ]

let () = Alcotest.run "stride" [ ("stride", tests) ]
