(* The shipped example .ptx files must parse, classify as documented,
   and round-trip. *)

let read_file path =
  let ic = open_in path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* locate examples/ptx relative to the workspace root *)
let ptx_dir =
  let rec up dir n =
    let candidate = Filename.concat dir "examples/ptx" in
    if Sys.file_exists candidate then Some candidate
    else if n = 0 then None
    else up (Filename.dirname dir) (n - 1)
  in
  up (Sys.getcwd ()) 6

let with_file name f =
  match ptx_dir with
  | None -> Alcotest.skip ()
  | Some dir -> f (read_file (Filename.concat dir name))

let test_gather_file () =
  with_file "gather.ptx" (fun text ->
      let k = Ptx.Parse.kernel_of_string text in
      let an = Dataflow.Depgraph.of_kernel k in
      let d, n = Dataflow.Classify.count_global (Dataflow.Classify.classify an) in
      Alcotest.(check (pair int int)) "gather.ptx: 1 D, 1 N" (1, 1) (d, n);
      (* round trip *)
      let text' = Ptx.Kernel.to_string k in
      Alcotest.(check string) "stable" text'
        (Ptx.Kernel.to_string (Ptx.Parse.kernel_of_string text')))

let test_spmv_file () =
  with_file "spmv.ptx" (fun text ->
      let k = Ptx.Parse.kernel_of_string text in
      let an = Dataflow.Depgraph.of_kernel k in
      let d, n = Dataflow.Classify.count_global (Dataflow.Classify.classify an) in
      Alcotest.(check (pair int int)) "spmv.ptx: 2 D, 3 N" (2, 3) (d, n);
      (* the value/column walks are detected *)
      let walks = Dataflow.Induction.walking_loads an in
      Alcotest.(check int) "two walking loads" 2 (List.length walks);
      List.iter
        (fun w -> Alcotest.(check int) "4-byte walk" 4 w.Dataflow.Induction.w_step)
        walks)

let tests =
  [
    Alcotest.test_case "gather.ptx" `Quick test_gather_file;
    Alcotest.test_case "spmv.ptx" `Quick test_spmv_file;
  ]

let () = Alcotest.run "ptx_files" [ ("files", tests) ]
