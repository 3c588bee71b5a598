(* grm (PolyBench-GPU gramschmidt): modified Gram-Schmidt QR
   decomposition.  Per column k the host launches three kernels:
   norm of column k (single-thread reduction, as in PolyBench), column
   normalization, and the projection update of the trailing columns.
   All loads are deterministic (indices from ids, k parameter and loop
   counters). *)

open Ptx.Types
module B = Ptx.Builder
open Kutil

(* r[k*n+k] = sqrt( sum_i a[i*n+k]^2 ) — one thread, as in PolyBench. *)
let norm_kernel () =
  let b =
    B.create ~name:"grm_norm" ~params:[ u64 "a"; u64 "r"; u32 "n"; u32 "k" ] ()
  in
  let ap = B.ld_param b "a" in
  let rp = B.ld_param b "r" in
  let n = B.ld_param b "n" in
  let k = B.ld_param b "k" in
  let tid = gtid_x b in
  let p0 = B.setp b Eq tid (B.int 0) in
  B.if_ b p0 (fun () ->
      let acc = f32_acc b in
      B.for_loop b ~init:(B.int 0) ~bound:n ~step:(B.int 1) (fun i ->
          let v = ldf b ap (B.add b (B.mul b i n) k) in
          B.emit b (Ptx.Instr.Fma (F32, acc, v, v, Reg acc)));
      let nrm = B.funary b Sqrt (Reg acc) in
      stf b rp (B.add b (B.mul b k n) k) nrm);
  B.finish b

(* q[i*n+k] = a[i*n+k] / r[k*n+k] *)
let qcol_kernel () =
  let b =
    B.create ~name:"grm_qcol"
      ~params:[ u64 "a"; u64 "r"; u64 "q"; u32 "n"; u32 "k" ]
      ()
  in
  let ap = B.ld_param b "a" in
  let rp = B.ld_param b "r" in
  let qp = B.ld_param b "q" in
  let n = B.ld_param b "n" in
  let k = B.ld_param b "k" in
  let i = gtid_x b in
  let p = B.setp b Lt i n in
  B.if_ b p (fun () ->
      let v = ldf b ap (B.add b (B.mul b i n) k) in
      let rkk = ldf b rp (B.add b (B.mul b k n) k) in
      stf b qp (B.add b (B.mul b i n) k) (B.fdiv b v rkk));
  B.finish b

(* for each trailing column j > k:
     r[k*n+j] = sum_i q[i*n+k]*a[i*n+j];  a[i*n+j] -= q[i*n+k]*r[k*n+j] *)
let update_kernel () =
  let b =
    B.create ~name:"grm_update"
      ~params:[ u64 "a"; u64 "r"; u64 "q"; u32 "n"; u32 "k" ]
      ()
  in
  let ap = B.ld_param b "a" in
  let rp = B.ld_param b "r" in
  let qp = B.ld_param b "q" in
  let n = B.ld_param b "n" in
  let k = B.ld_param b "k" in
  let j = B.add b (B.add b (gtid_x b) k) (B.int 1) in
  let p = B.setp b Lt j n in
  B.if_ b p (fun () ->
      let acc = f32_acc b in
      B.for_loop b ~init:(B.int 0) ~bound:n ~step:(B.int 1) (fun i ->
          let qik = ldf b qp (B.add b (B.mul b i n) k) in
          let aij = ldf b ap (B.add b (B.mul b i n) j) in
          B.emit b (Ptx.Instr.Fma (F32, acc, qik, aij, Reg acc)));
      stf b rp (B.add b (B.mul b k n) j) (Reg acc);
      B.for_loop b ~init:(B.int 0) ~bound:n ~step:(B.int 1) (fun i ->
          let qik = ldf b qp (B.add b (B.mul b i n) k) in
          let aij = ldf b ap (B.add b (B.mul b i n) j) in
          let upd = B.fsub b aij (B.fmul b qik (Reg acc)) in
          stf b ap (B.add b (B.mul b i n) j) upd));
  B.finish b

let size_of_scale = function
  | App.Small -> 32
  | App.Default -> 80
  | App.Large -> 128

let make rng scale =
  let n = size_of_scale scale in
  let a = Dataset.dense_matrix rng n n in
  let global = Gsim.Mem.create (4 * 1024 * 1024) in
  let layout = Layout.create global in
  let a_base = Dataset.store_f32_array layout a in
  let r_base = Layout.alloc_f32 layout (n * n) in
  let q_base = Layout.alloc_f32 layout (n * n) in
  let norm = norm_kernel () in
  let qcol = qcol_kernel () in
  let update = update_kernel () in
  let params k =
    [ Layout.param "a" a_base; Layout.param "r" r_base;
      Layout.param "q" q_base; Layout.param_int "n" n; Layout.param_int "k" k ]
  in
  let program (launch : App.launch) =
    for k = 0 to n - 1 do
      launch ~kernel:norm ~grid:(1, 1, 1) ~block:(32, 1, 1)
        ~params:
          [ Layout.param "a" a_base; Layout.param "r" r_base;
            Layout.param_int "n" n; Layout.param_int "k" k ];
      launch ~kernel:qcol ~grid:(cdiv n 32, 1, 1) ~block:(32, 1, 1)
        ~params:(params k);
      launch ~kernel:update ~grid:(cdiv n 32, 1, 1) ~block:(32, 1, 1)
        ~params:(params k)
    done
  in
  let check () =
    (* columns of Q orthonormal within f32 tolerance *)
    let q i j = Gsim.Mem.get_f32 global (q_base + (4 * ((i * n) + j))) in
    let dot c1 c2 =
      let acc = ref 0.0 in
      for i = 0 to n - 1 do
        acc := !acc +. (q i c1 *. q i c2)
      done;
      !acc
    in
    let ok = ref true in
    for c = 0 to min 7 (n - 1) do
      if Float.abs (dot c c -. 1.0) > 0.05 then ok := false;
      if c + 1 < n && Float.abs (dot c (c + 1)) > 0.05 then ok := false
    done;
    !ok
  in
  App.host ~global ~check program

let app =
  App.v ~name:"grm" ~category:App.Linear
    ~description:"Gram-Schmidt QR decomposition (3 kernels per column)"
    ~seed:0x9A11 make
