(* lu (PolyBench-GPU): in-place LU decomposition.  Per pivot k the host
   launches a row-scaling kernel and a trailing-submatrix update
   kernel.  All loads deterministic. *)

open Ptx.Types
module B = Ptx.Builder
open Kutil

(* a[k*n+j] /= a[k*n+k]  for j in (k, n) *)
let row_kernel () =
  let b = B.create ~name:"lu_row" ~params:[ u64 "a"; u32 "n"; u32 "k" ] () in
  let ap = B.ld_param b "a" in
  let n = B.ld_param b "n" in
  let k = B.ld_param b "k" in
  let j = B.add b (B.add b (gtid_x b) k) (B.int 1) in
  let p = B.setp b Lt j n in
  B.if_ b p (fun () ->
      let akj = ldf b ap (B.add b (B.mul b k n) j) in
      let akk = ldf b ap (B.add b (B.mul b k n) k) in
      stf b ap (B.add b (B.mul b k n) j) (B.fdiv b akj akk));
  B.finish b

(* a[i*n+j] -= a[i*n+k] * a[k*n+j]  for i,j in (k, n) *)
let sub_kernel () =
  let b = B.create ~name:"lu_sub" ~params:[ u64 "a"; u32 "n"; u32 "k" ] () in
  let ap = B.ld_param b "a" in
  let n = B.ld_param b "n" in
  let k = B.ld_param b "k" in
  let j = B.add b (B.add b (gtid_x b) k) (B.int 1) in
  let i = B.add b (B.add b (gtid_y b) k) (B.int 1) in
  let pi = B.setp b Lt i n in
  let pj = B.setp b Lt j n in
  let inside = B.pand b pi pj in
  B.if_ b inside (fun () ->
      let aik = ldf b ap (B.add b (B.mul b i n) k) in
      let akj = ldf b ap (B.add b (B.mul b k n) j) in
      let aij = ldf b ap (B.add b (B.mul b i n) j) in
      stf b ap (B.add b (B.mul b i n) j) (B.fsub b aij (B.fmul b aik akj)));
  B.finish b

let size_of_scale = function
  | App.Small -> 32
  | App.Default -> 96
  | App.Large -> 192

let make rng scale =
  let n = size_of_scale scale in
  let a =
    Array.init (n * n) (fun idx ->
        let i = idx / n and j = idx mod n in
        let v = Prng.float_range rng (-1.0) 1.0 in
        if i = j then v +. 8.0 else v)
  in
  let global = Gsim.Mem.create (4 * 1024 * 1024) in
  let layout = Layout.create global in
  let a_base = Dataset.store_f32_array layout a in
  let row = row_kernel () in
  let sub = sub_kernel () in
  let params k = [ Layout.param "a" a_base; Layout.param_int "n" n; Layout.param_int "k" k ] in
  let program (launch : App.launch) =
    for k = 0 to n - 2 do
      launch ~kernel:row
        ~grid:(cdiv (n - k - 1) 256, 1, 1)
        ~block:(256, 1, 1) ~params:(params k);
      launch ~kernel:sub
        ~grid:(cdiv (n - k - 1) 16, cdiv (n - k - 1) 16, 1)
        ~block:(16, 16, 1) ~params:(params k)
    done
  in
  let check () =
    (* Crout factors: L lower (incl. diagonal) = a[i][k] for k <= i,
       U unit-upper = a[k][j] for j > k.  L*U must reconstruct the
       input within f32 tolerance. *)
    let get i j = Gsim.Mem.get_f32 global (a_base + (4 * ((i * n) + j))) in
    let ok = ref true in
    let samples = min n 16 in
    for si = 0 to samples - 1 do
      for sj = 0 to samples - 1 do
        let i = si * n / samples and j = sj * n / samples in
        let acc = ref 0.0 in
        for k = 0 to min i j do
          let l = get i k in
          let u = if k = j then 1.0 else get k j in
          acc := !acc +. (l *. u)
        done;
        let expect = round_f32 a.((i * n) + j) in
        if not (Float.abs (!acc -. expect) <= 0.05 +. (0.05 *. Float.abs expect))
        then ok := false
      done
    done;
    !ok
  in
  App.host ~global ~check program

let app =
  App.v ~name:"lu" ~category:App.Linear
    ~description:"in-place LU decomposition (row scale + trailing update)"
    ~seed:0x10DE make
