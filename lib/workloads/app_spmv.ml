(* spmv (Parboil): sparse matrix - dense vector multiplication in CSR
   form, one thread per row.  The row-pointer loads are deterministic
   (indexed by the thread id); the value/column loads are
   non-deterministic (the element index comes from the loaded row
   pointer) and the x-vector gather is doubly so (indexed by a loaded
   column) — the paper's example of a linear-algebra application with
   non-deterministic loads. *)

open Ptx.Types
module B = Ptx.Builder
open Kutil

let kernel () =
  let b =
    B.create ~name:"spmv_csr"
      ~params:
        [ u64 "row_ptr"; u64 "col_idx"; u64 "vals"; u64 "x"; u64 "y"; u32 "n" ]
      ()
  in
  let rp = B.ld_param b "row_ptr" in
  let cp = B.ld_param b "col_idx" in
  let vp = B.ld_param b "vals" in
  let xp = B.ld_param b "x" in
  let yp = B.ld_param b "y" in
  let n = B.ld_param b "n" in
  let row = gtid_x b in
  let p = B.setp b Lt row n in
  B.if_ b p (fun () ->
      let start = ldu b rp row in
      let stop = ldu b rp (B.add b row (B.int 1)) in
      let acc = f32_acc b in
      B.for_loop b ~init:start ~bound:stop ~step:(B.int 1) (fun e ->
          let v = ldf b vp e in
          let c = ldu b cp e in
          let xv = ldf b xp c in
          B.emit b (Ptx.Instr.Fma (F32, acc, v, xv, Reg acc)));
      stf b yp row (Reg acc));
  B.finish b

let size_of_scale = function
  | App.Small -> 1024
  | App.Default -> 8192
  | App.Large -> 32768

let make rng scale =
  let n = size_of_scale scale in
  let m = Dataset.sparse_matrix rng ~n ~avg_nnz_per_row:12 in
  let x = Array.init n (fun _ -> Prng.float_range rng (-1.0) 1.0) in
  let global = Gsim.Mem.create (32 * 1024 * 1024) in
  let layout = Layout.create global in
  let rp_base, ci_base, vs_base = Dataset.store_csr layout m in
  let x_base = Dataset.store_f32_array layout x in
  let y_base = Layout.alloc_f32 layout n in
  let kernel = kernel () in
  let program (launch : App.launch) =
    launch ~kernel
      ~grid:(cdiv n 192, 1, 1)
      ~block:(192, 1, 1)
      ~params:
        [ Layout.param "row_ptr" rp_base; Layout.param "col_idx" ci_base;
          Layout.param "vals" vs_base; Layout.param "x" x_base;
          Layout.param "y" y_base; Layout.param_int "n" n ]
  in
  let check () =
    let x32 = Array.map round_f32 x in
    let ok = ref true in
    for row = 0 to n - 1 do
      let acc = ref 0.0 in
      for e = m.Dataset.row_ptr.(row) to m.Dataset.row_ptr.(row + 1) - 1 do
        acc :=
          round_f32
            ((round_f32 m.Dataset.values.(e) *. x32.(m.Dataset.col_idx.(e)))
            +. !acc)
      done;
      if
        not (App.close_f32 !acc (Gsim.Mem.get_f32 global (y_base + (4 * row))))
      then ok := false
    done;
    !ok
  in
  App.host ~global ~check program

let app =
  App.v ~name:"spmv" ~category:App.Linear
    ~description:"CSR sparse matrix * dense vector, one thread per row"
    ~seed:0x59A7 make
