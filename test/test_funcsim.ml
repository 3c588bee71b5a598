(* Functional-simulator metric invariants, profiler-counter
   consistency, and parser error reporting. *)

open Ptx.Types
module B = Ptx.Builder
module App = Workloads.App

(* unchecked functional run through the unified entry point *)
let run_func app scale =
  match
    Critload.Runner.run ~mode:Critload.Runner.Func ~scale ~check:false app
  with
  | Ok r -> Critload.Runner.Report.func_exn r
  | Error e -> raise (Gsim.Sim_error.Error e)

let u64 n = { Ptx.Kernel.pname = n; pty = U64 }
let u32 n = { Ptx.Kernel.pname = n; pty = U32 }

(* stride-configurable load kernel: thread i loads a[i * stride] *)
let stride_kernel () =
  let b =
    B.create ~name:"stride" ~params:[ u64 "a"; u32 "stride"; u32 "n" ] ()
  in
  let a = B.ld_param b "a" in
  let stride = B.ld_param b "stride" in
  let n = B.ld_param b "n" in
  let i = B.global_tid b in
  let p = B.setp b Lt i n in
  B.if_ b p (fun () ->
      let v = B.ld b Global F32 (B.at b ~base:a ~scale:4 (B.mul b i stride)) in
      B.st b Global F32 (B.at b ~base:a ~scale:4 i) v);
  B.finish b

let run_stride stride =
  let kernel = stride_kernel () in
  let global = Gsim.Mem.create (1 lsl 22) in
  let n = 512 in
  let launch =
    Gsim.Launch.create ~kernel
      ~grid:(n / 128, 1, 1)
      ~block:(128, 1, 1)
      ~params:
        [ ("a", 0L); ("stride", Int64.of_int stride); ("n", Int64.of_int n) ]
      ~global
  in
  Gsim.Funcsim.run launch

(* coalescing degrades exactly with the stride, in line sized steps *)
let test_stride_coalescing () =
  let rpw s =
    Gsim.Funcsim.requests_per_warp (run_stride s)
      Dataflow.Classify.Deterministic
  in
  Alcotest.(check (float 0.01)) "stride 1 -> 1 request" 1.0 (rpw 1);
  Alcotest.(check (float 0.01)) "stride 2 -> 2 requests" 2.0 (rpw 2);
  Alcotest.(check (float 0.01)) "stride 8 -> 8 requests" 8.0 (rpw 8);
  Alcotest.(check (float 0.01)) "stride 32 -> fully uncoalesced" 32.0 (rpw 32);
  Alcotest.(check (float 0.01)) "stride 64 -> still 32 (one per lane)" 32.0
    (rpw 64)

(* counter conservation: every generated request probed the serial L1;
   every L1 miss queried the L2 *)
let test_counter_conservation () =
  List.iter
    (fun name ->
      let app = Workloads.Suite.find name in
      let r = run_func app App.Small in
      let fs = r.Critload.Runner.fr_fs in
      let c = Gsim.Funcsim.counters fs in
      Alcotest.(check int)
        (name ^ ": L1 probes = generated requests")
        (fs.Gsim.Funcsim.gld_requests.(0) + fs.Gsim.Funcsim.gld_requests.(1))
        (c.Gsim.Funcsim.l1_global_load_hit + c.Gsim.Funcsim.l1_global_load_miss);
      Alcotest.(check int)
        (name ^ ": L2 queries = L1 misses")
        c.Gsim.Funcsim.l1_global_load_miss c.Gsim.Funcsim.l2_read_queries;
      Alcotest.(check bool)
        (name ^ ": L2 hits <= queries")
        true
        (c.Gsim.Funcsim.l2_read_hits <= c.Gsim.Funcsim.l2_read_queries);
      Alcotest.(check int)
        (name ^ ": block accesses = generated requests")
        (fs.Gsim.Funcsim.gld_requests.(0) + fs.Gsim.Funcsim.gld_requests.(1))
        fs.Gsim.Funcsim.block_accesses)
    [ "2mm"; "spmv"; "bfs"; "htw" ]

let test_sharing_invariants () =
  List.iter
    (fun name ->
      let app = Workloads.Suite.find name in
      let fs = (run_func app App.Small).Critload.Runner.fr_fs in
      let sh = Gsim.Funcsim.sharing fs in
      Alcotest.(check bool) (name ^ ": ratios in [0,1]") true
        (sh.Gsim.Funcsim.sh_block_ratio >= 0.0
        && sh.Gsim.Funcsim.sh_block_ratio <= 1.0
        && sh.Gsim.Funcsim.sh_access_ratio >= 0.0
        && sh.Gsim.Funcsim.sh_access_ratio <= 1.0);
      if sh.Gsim.Funcsim.sh_block_ratio > 0.0 then
        Alcotest.(check bool) (name ^ ": shared blocks have >= 2 CTAs") true
          (sh.Gsim.Funcsim.sh_avg_ctas >= 2.0);
      (* cold-miss ratio and reuse are reciprocal views *)
      let cold = Gsim.Funcsim.cold_miss_ratio fs in
      let reuse = Gsim.Funcsim.avg_accesses_per_block fs in
      if cold > 0.0 then
        Alcotest.(check (float 0.01))
          (name ^ ": cold * reuse = 1")
          1.0 (cold *. reuse))
    [ "2mm"; "bfs"; "mriq" ]

let test_cta_histogram_sums_to_one () =
  let app = Workloads.Suite.find "2mm" in
  let fs = (run_func app App.Small).Critload.Runner.fr_fs in
  let hist = Gsim.Funcsim.cta_distance_histogram fs in
  let total = List.fold_left (fun a (_, f) -> a +. f) 0.0 hist in
  Alcotest.(check (float 0.001)) "fractions sum to 1" 1.0 total;
  List.iter
    (fun (d, f) ->
      Alcotest.(check bool) "distances positive" true (d > 0);
      Alcotest.(check bool) "fractions positive" true (f > 0.0))
    hist

(* ---------------- parser error reporting ---------------- *)

let check_parse_error text =
  match Ptx.Parse.kernel_of_string text with
  | exception Ptx.Parse.Error _ -> ()
  | exception Ptx.Kernel.Invalid _ -> ()
  | _ -> Alcotest.failf "expected a parse failure for %S" text

let test_parse_errors () =
  (* missing header *)
  check_parse_error "{ exit; }";
  (* bad register *)
  check_parse_error
    ".kernel k ()\n.reg 1 .pred 1 .shared 0\n{\n  mov %q1, 0;\n}";
  (* unknown mnemonic *)
  check_parse_error
    ".kernel k ()\n.reg 1 .pred 1 .shared 0\n{\n  frobnicate %r0, 0;\n}";
  (* arity error *)
  check_parse_error
    ".kernel k ()\n.reg 2 .pred 1 .shared 0\n{\n  add %r0, %r1;\n  exit;\n}";
  (* missing brace *)
  check_parse_error ".kernel k ()\n.reg 1 .pred 1 .shared 0\n{\n  exit;";
  (* register out of declared range -> Kernel.Invalid *)
  check_parse_error
    ".kernel k ()\n.reg 1 .pred 1 .shared 0\n{\n  mov %r5, 0;\n  exit;\n}"

let test_parse_comments_and_offsets () =
  let k =
    Ptx.Parse.kernel_of_string
      ".kernel k (.param .u64 a) // header comment\n\
       .reg 2 .pred 1 .shared 0\n\
       {\n\
      \  ld.param.u64 %r0, [a]; // load the base\n\
      \  ld.global.u32 %r1, [%r0+64];\n\
      \  exit;\n\
       }"
  in
  match k.Ptx.Kernel.body.(1) with
  | Ptx.Instr.Ld (Global, U32, 1, { abase = Reg 0; aoffset = 64 }) -> ()
  | i -> Alcotest.failf "unexpected instruction %s" (Ptx.Instr.to_string i)

(* ---------------- instruction cap ---------------- *)

(* A capped run executes exactly min(cap, total) warp instructions,
   wherever the cap falls: 2mm's Small first launch is 16 CTAs of
   equal length, and caps inside the second CTA, on a CTA boundary
   and past the end must all be honoured to the instruction. *)
let test_func_cap_exact () =
  let run cap =
    let r = (Workloads.Suite.find "2mm").App.make App.Small in
    match r.App.next_launch () with
    | Some launch -> Gsim.Funcsim.run ~max_warp_insts:cap launch
    | None -> Alcotest.fail "2mm has no launch"
  in
  let full = run 0 in
  let total = full.Gsim.Funcsim.warp_insts in
  let per_cta = total / full.Gsim.Funcsim.ctas_run in
  List.iter
    (fun cap ->
      let fs = run cap in
      Alcotest.(check int)
        (Printf.sprintf "cap %d: warp insts" cap)
        (min cap total) fs.Gsim.Funcsim.warp_insts;
      Alcotest.(check bool)
        (Printf.sprintf "cap %d: capped" cap)
        (cap < total) fs.Gsim.Funcsim.capped)
    [ 1; per_cta - 1; per_cta; per_cta * 3 / 2; 5 * per_cta; total - 1;
      total + 1 ]

(* ---------------- the lean roles against the full model ---------------- *)

(* What the application's host code launched: kernel, geometry and
   parameter bindings. *)
let launch_key (l : Gsim.Launch.t) =
  let gx, gy, gz = l.Gsim.Launch.grid and bx, by, bz = l.Gsim.Launch.block in
  let params =
    List.sort compare (List.of_seq (Hashtbl.to_seq l.Gsim.Launch.params))
    |> List.map (fun (k, v) -> Printf.sprintf "%s=%Ld" k v)
  in
  Printf.sprintf "%s grid=(%d,%d,%d) block=(%d,%d,%d) %s"
    l.Gsim.Launch.kernel.Ptx.Kernel.kname gx gy gz bx by bz
    (String.concat "," params)

(* Byte offset of the first 64-bit word where two memory images of
   equal size differ. *)
let first_difference a b =
  let n = Gsim.Mem.size a in
  let rec go addr =
    if addr + 8 > n then None
    else if
      not (Int64.equal (Gsim.Mem.get_i64 a addr) (Gsim.Mem.get_i64 b addr))
    then Some addr
    else go (addr + 8)
  in
  go 0

(* Three fresh runs of each app walk in lockstep: the reference through
   [run_into], one through [count_requests] and one through [execute].
   Each launch's count must equal the reference's [gld_requests] delta,
   the three runs must make the same launches, and the execute-only walk
   must end on the reference's memory image, which verifies. *)
let test_lean_roles_match_full_model () =
  let cfg = Gsim.Config.default in
  List.iter
    (fun (app : App.t) ->
      let name = app.App.name in
      let full = app.App.make App.Small in
      let counted = app.App.make App.Small in
      let executed = app.App.make App.Small in
      let fs = Gsim.Funcsim.create cfg in
      let requests () =
        (fs.Gsim.Funcsim.gld_requests.(0), fs.Gsim.Funcsim.gld_requests.(1))
      in
      let rec walk k =
        match
          ( full.App.next_launch (),
            counted.App.next_launch (),
            executed.App.next_launch () )
        with
        | None, None, None -> ()
        | Some lf, Some lc, Some le ->
            let what = Printf.sprintf "%s launch %d" name k in
            Alcotest.(check string)
              (what ^ ": count-only walk's launch")
              (launch_key lf) (launch_key lc);
            Alcotest.(check string)
              (what ^ ": execute-only walk's launch")
              (launch_key lf) (launch_key le);
            let d0, n0 = requests () in
            Gsim.Funcsim.run_into fs lf;
            let d1, n1 = requests () in
            Alcotest.(check (pair int int))
              (what ^ ": requests by class")
              (d1 - d0, n1 - n0)
              (Gsim.Funcsim.count_requests cfg lc);
            Gsim.Funcsim.execute cfg le;
            walk (k + 1)
        | _ -> Alcotest.failf "%s: the walks end after different launches" name
      in
      walk 0;
      Alcotest.(check int)
        (name ^ ": execute-only image size")
        (Gsim.Mem.size full.App.global)
        (Gsim.Mem.size executed.App.global);
      Alcotest.(check (option int))
        (name ^ ": execute-only image's first differing word")
        None
        (first_difference full.App.global executed.App.global);
      Alcotest.(check bool)
        (name ^ ": execute-only result verifies")
        true (executed.App.check ()))
    Workloads.Suite.all

(* ---------------- warp utility properties ---------------- *)

let prop_popcount =
  QCheck.Test.make ~count:300 ~name:"popcount matches naive count"
    QCheck.(int_bound 0xFFFFFFFF)
    (fun m ->
      let naive = ref 0 in
      for b = 0 to 31 do
        if m land (1 lsl b) <> 0 then incr naive
      done;
      Gsim.Warp.popcount m = !naive)

let test_full_mask () =
  Alcotest.(check int) "full 32" 0xFFFFFFFF (Gsim.Warp.full_mask 32);
  Alcotest.(check int) "full 1" 1 (Gsim.Warp.full_mask 1);
  Alcotest.(check int) "popcount of full" 17
    (Gsim.Warp.popcount (Gsim.Warp.full_mask 17))

(* ---------------- table rendering ---------------- *)

let test_tables_render () =
  let out =
    Critload.Tables.render ~title:"T" ~header:[ "a"; "bb" ]
      [ [ "1"; "2" ]; [ "333"; "4" ] ]
  in
  let lines = String.split_on_char '\n' out in
  (match lines with
  | title :: header :: rule :: r1 :: r2 :: _ ->
      Alcotest.(check string) "title" "T" title;
      Alcotest.(check bool) "columns aligned" true
        (String.length header = String.length rule
        && String.length r1 = String.length header
        && String.length r2 = String.length header)
  | _ -> Alcotest.fail "unexpected shape");
  Alcotest.(check string) "pct" "12.3%" (Critload.Tables.pct 0.1234);
  Alcotest.(check string) "f2" "3.14" (Critload.Tables.f2 3.14159);
  Alcotest.(check string) "f1" "3.1" (Critload.Tables.f1 3.14159)

let tests =
  [
    Alcotest.test_case "tables render" `Quick test_tables_render;
    Alcotest.test_case "stride coalescing" `Quick test_stride_coalescing;
    Alcotest.test_case "profiler counter conservation" `Quick
      test_counter_conservation;
    Alcotest.test_case "sharing invariants" `Quick test_sharing_invariants;
    Alcotest.test_case "CTA histogram normalization" `Quick
      test_cta_histogram_sums_to_one;
    Alcotest.test_case "parser error reporting" `Quick test_parse_errors;
    Alcotest.test_case "parser comments and offsets" `Quick
      test_parse_comments_and_offsets;
    Alcotest.test_case "instruction cap is exact" `Quick test_func_cap_exact;
    Alcotest.test_case "lean roles match the full model" `Slow
      test_lean_roles_match_full_model;
    QCheck_alcotest.to_alcotest prop_popcount;
    Alcotest.test_case "full_mask" `Quick test_full_mask;
  ]

let () = Alcotest.run "funcsim" [ ("funcsim", tests) ]
