(* Classify loads in a kernel written in the textual PTX-like syntax —
   the workflow for code that was not built with the OCaml eDSL.

     dune exec examples/classify_ptx.exe [file.ptx]

   Without an argument, a built-in example (the paper's Code 1 pattern)
   is parsed and classified. *)

let code1 =
  {|
.kernel bfs_code1 (.param .u64 g_mask, .param .u64 g_nodes, .param .u64 g_edges, .param .u64 g_visited, .param .u32 n)
.reg 16 .pred 4 .shared 0
{
  ld.param.u64 %r0, [g_mask];
  ld.param.u64 %r1, [g_nodes];
  ld.param.u64 %r2, [g_edges];
  ld.param.u64 %r3, [g_visited];
  ld.param.u64 %r4, [n];
  mad.lo %r5, %ctaid.x, %ntid.x, %tid.x;   // tid
  setp.ge.s32 %p0, %r5, %r4;
@%p0 bra DONE;
  mad.lo %r6, %r5, 4, %r0;
  ld.global.u32 %r7, [%r6];                // g_mask[tid]  (deterministic)
  setp.eq.s32 %p1, %r7, 0;
@%p1 bra DONE;
  mad.lo %r8, %r5, 4, %r1;
  ld.global.u32 %r9, [%r8];                // start = g_nodes[tid]  (D)
  mad.lo %r10, %r9, 4, %r2;
  ld.global.u32 %r11, [%r10];              // id = g_edges[start]  (N)
  mad.lo %r12, %r11, 4, %r3;
  ld.global.u32 %r13, [%r12];              // g_visited[id]  (N)
  st.global.u32 [%r6], %r13;
DONE:
  exit;
}
|}

let () =
  let text =
    if Array.length Sys.argv > 1 then begin
      let ic = open_in Sys.argv.(1) in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
    end
    else code1
  in
  match Ptx.Parse.kernel_of_string text with
  | exception Ptx.Parse.Error msg ->
      Printf.eprintf "parse error: %s\n" msg;
      exit 1
  | kernel ->
      Printf.printf "parsed kernel %s (%d instructions)\n\n"
        kernel.Ptx.Kernel.kname
        (Array.length kernel.Ptx.Kernel.body);
      let res =
        Dataflow.Classify.classify (Dataflow.Depgraph.of_kernel kernel)
      in
      Format.printf "%a@." Dataflow.Classify.pp_result res;
      let d, n = Dataflow.Classify.count_global res in
      Printf.printf "global loads: %d deterministic, %d non-deterministic\n"
        d n;
      (* round-trip check: print and reparse *)
      let text' = Ptx.Kernel.to_string kernel in
      let k2 = Ptx.Parse.kernel_of_string text' in
      Printf.printf "print/parse round-trip: %s\n"
        (if Ptx.Kernel.to_string k2 = text' then "stable" else "UNSTABLE")
