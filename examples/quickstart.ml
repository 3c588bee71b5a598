(* Quickstart: build a small kernel with the eDSL, classify its loads
   with the paper's backward-dataflow analysis, and run it on both the
   functional and the cycle simulator.

     dune exec examples/quickstart.exe *)

open Ptx.Types
module B = Ptx.Builder

let () =
  (* 1. A gather kernel: y[i] = x[idx[i]].  The idx load is
     deterministic (address from thread id + parameter); the x load is
     non-deterministic (address from the loaded index). *)
  let b =
    B.create ~name:"gather"
      ~params:
        [ { Ptx.Kernel.pname = "idx"; pty = U64 };
          { Ptx.Kernel.pname = "x"; pty = U64 };
          { Ptx.Kernel.pname = "y"; pty = U64 };
          { Ptx.Kernel.pname = "n"; pty = U32 } ]
      ()
  in
  let idx_p = B.ld_param b "idx" in
  let x_p = B.ld_param b "x" in
  let y_p = B.ld_param b "y" in
  let n = B.ld_param b "n" in
  let i = B.global_tid b in
  let in_range = B.setp b Lt i n in
  B.if_ b in_range (fun () ->
      let idx = B.ld b Global U32 (B.at b ~base:idx_p ~scale:4 i) in
      let v = B.ld b Global F32 (B.at b ~base:x_p ~scale:4 idx) in
      B.st b Global F32 (B.at b ~base:y_p ~scale:4 i) v);
  let kernel = B.finish b in

  (* 2. Set up data: a scrambled permutation.  Creating the launch
     verifies the kernel, analyzes it once and classifies its loads. *)
  let n_elems = 4096 in
  let global = Gsim.Mem.create (1 lsl 20) in
  let idx_base = 0 and x_base = 4 * n_elems and y_base = 8 * n_elems in
  for i = 0 to n_elems - 1 do
    Gsim.Mem.set_u32 global (idx_base + (4 * i)) (i * 73 mod n_elems);
    Gsim.Mem.set_f32 global (x_base + (4 * i)) (float_of_int i)
  done;
  let launch =
    Gsim.Launch.create ~kernel
      ~grid:(n_elems / 256, 1, 1)
      ~block:(256, 1, 1)
      ~params:
        [ ("idx", Int64.of_int idx_base); ("x", Int64.of_int x_base);
          ("y", Int64.of_int y_base); ("n", Int64.of_int n_elems) ]
      ~global
  in

  (* 3. Print the kernel, its load classification and the coalescing
     prediction, all read from the launch's analysis. *)
  print_string (Ptx.Kernel.to_string kernel);
  Format.printf "%a@." Dataflow.Classify.pp_result launch.Gsim.Launch.classes;
  Format.printf "static coalescing prediction:@.%a@."
    (Dataflow.Stride.pp_predictions ~block:(256, 1, 1))
    launch.Gsim.Launch.analysis;

  (* 4. Functional simulation: correct results + coalescing stats. *)
  let fs = Gsim.Funcsim.run launch in
  Printf.printf "functional: %d warp instructions, y[1] = %.1f\n"
    fs.Gsim.Funcsim.warp_insts
    (Gsim.Mem.get_f32 global (y_base + 4));
  Printf.printf "  requests/warp:  N = %.2f   D = %.2f\n"
    (Gsim.Funcsim.requests_per_warp fs Dataflow.Classify.Nondeterministic)
    (Gsim.Funcsim.requests_per_warp fs Dataflow.Classify.Deterministic);

  (* 5. Cycle simulation: turnaround per class. *)
  let gpu = Gsim.Gpu.run launch in
  let st = gpu.Gsim.Gpu.stats in
  Printf.printf "cycle sim: %d cycles, %d warp instructions\n"
    st.Gsim.Stats.cycles st.Gsim.Stats.warp_insts;
  Printf.printf "  avg turnaround: N = %.0f cycles   D = %.0f cycles\n"
    (Gsim.Stats.avg_turnaround st Dataflow.Classify.Nondeterministic)
    (Gsim.Stats.avg_turnaround st Dataflow.Classify.Deterministic)
