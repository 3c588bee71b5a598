(* 2mm (PolyBench-GPU): two back-to-back dense matrix multiplications,
   tmp = A*B then out = tmp*C.  One thread per output element; all
   global loads are indexed by thread/CTA ids and the loop counter, so
   every load is deterministic. *)

open Ptx.Types
module B = Ptx.Builder
open Kutil

(* C[i][j] = sum_k A[i][k] * B[k][j]   (nk inner, nj columns) *)
let mm_kernel name =
  let b =
    B.create ~name
      ~params:[ u64 "A"; u64 "Bm"; u64 "Cm"; u32 "ni"; u32 "nk"; u32 "nj" ]
      ()
  in
  let ap = B.ld_param b "A" in
  let bp = B.ld_param b "Bm" in
  let cp = B.ld_param b "Cm" in
  let ni = B.ld_param b "ni" in
  let nk = B.ld_param b "nk" in
  let nj = B.ld_param b "nj" in
  let j = gtid_x b in
  let i = gtid_y b in
  let pi = B.setp b Lt i ni in
  let pj = B.setp b Lt j nj in
  let inside = B.pand b pi pj in
  B.if_ b inside (fun () ->
      let acc = f32_acc b in
      B.for_loop b ~init:(B.int 0) ~bound:nk ~step:(B.int 1) (fun k ->
          let a = ldf b ap (B.add b (B.mul b i nk) k) in
          let bv = ldf b bp (B.add b (B.mul b k nj) j) in
          B.emit b (Ptx.Instr.Fma (F32, acc, a, bv, Reg acc)));
      stf b cp (B.add b (B.mul b i nj) j) (Reg acc));
  B.finish b

let size_of_scale = function
  | App.Small -> 64
  | App.Default -> 160
  | App.Large -> 256

let block = (32, 8, 1)

let make rng scale =
  let n = size_of_scale scale in
  let a = Dataset.dense_matrix rng n n in
  let bm = Dataset.dense_matrix rng n n in
  let c = Dataset.dense_matrix rng n n in
  let global = Gsim.Mem.create (8 * 1024 * 1024) in
  let layout = Layout.create global in
  let a_base = Dataset.store_f32_array layout a in
  let b_base = Dataset.store_f32_array layout bm in
  let c_base = Dataset.store_f32_array layout c in
  let tmp_base = Layout.alloc_f32 layout (n * n) in
  let out_base = Layout.alloc_f32 layout (n * n) in
  let bx, by, _ = block in
  let grid = (cdiv n bx, cdiv n by, 1) in
  let kernel = mm_kernel "mm2" in
  let program (launch : App.launch) =
    let mm ~a ~b ~c =
      launch ~kernel ~grid ~block
        ~params:
          [ Layout.param "A" a; Layout.param "Bm" b; Layout.param "Cm" c;
            Layout.param_int "ni" n; Layout.param_int "nk" n;
            Layout.param_int "nj" n ]
    in
    mm ~a:a_base ~b:b_base ~c:tmp_base;
    mm ~a:tmp_base ~b:c_base ~c:out_base
  in
  (* host reference with the simulator's f32 fma rounding *)
  let reference () =
    let mm x y =
      let out = Array.make (n * n) 0.0 in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          let acc = ref 0.0 in
          for k = 0 to n - 1 do
            acc := round_f32 ((x.((i * n) + k) *. y.((k * n) + j)) +. !acc)
          done;
          out.((i * n) + j) <- !acc
        done
      done;
      out
    in
    let a32 = Array.map round_f32 a in
    let b32 = Array.map round_f32 bm in
    let c32 = Array.map round_f32 c in
    mm (mm a32 b32) c32
  in
  let check () =
    let expect = reference () in
    let ok = ref true in
    for i = 0 to (n * n) - 1 do
      if
        not
          (App.close_f32 expect.(i) (Gsim.Mem.get_f32 global (out_base + (4 * i))))
      then ok := false
    done;
    !ok
  in
  App.host ~global ~check program

let app =
  App.v ~name:"2mm" ~category:App.Linear
    ~description:"two dense matrix multiplications (tmp = A*B; out = tmp*C)"
    ~seed:0x2A2A make
