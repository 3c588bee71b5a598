(* gaus (Rodinia gaussian): Gaussian elimination.  The host loops over
   pivots; per pivot, Fan1 computes the multiplier column and Fan2
   updates the trailing submatrix and the right-hand side.  Pivot index
   [t] arrives as a kernel parameter, so all loads are deterministic —
   the paper's archetype of a many-small-launch linear-algebra code. *)

open Ptx.Types
module B = Ptx.Builder
open Kutil

(* m[i*n+t] = a[i*n+t] / a[t*n+t]  for i in (t, n) *)
let fan1_kernel () =
  let b =
    B.create ~name:"gaus_fan1" ~params:[ u64 "a"; u64 "m"; u32 "n"; u32 "t" ] ()
  in
  let ap = B.ld_param b "a" in
  let mp = B.ld_param b "m" in
  let n = B.ld_param b "n" in
  let t = B.ld_param b "t" in
  let idx = gtid_x b in
  let i = B.add b (B.add b idx t) (B.int 1) in
  let p = B.setp b Lt i n in
  B.if_ b p (fun () ->
      let ait = ldf b ap (B.add b (B.mul b i n) t) in
      let att = ldf b ap (B.add b (B.mul b t n) t) in
      let mult = B.fdiv b ait att in
      stf b mp (B.add b (B.mul b i n) t) mult);
  B.finish b

(* a[i][j] -= m[i][t] * a[t][j]; on j = t also b[i] -= m[i][t]*b[t] *)
let fan2_kernel () =
  let b =
    B.create ~name:"gaus_fan2"
      ~params:[ u64 "a"; u64 "bv"; u64 "m"; u32 "n"; u32 "t" ]
      ()
  in
  let ap = B.ld_param b "a" in
  let bvp = B.ld_param b "bv" in
  let mp = B.ld_param b "m" in
  let n = B.ld_param b "n" in
  let t = B.ld_param b "t" in
  let i = B.add b (B.add b (gtid_y b) t) (B.int 1) in
  let j = B.add b (gtid_x b) t in
  let pi = B.setp b Lt i n in
  let pj = B.setp b Lt j n in
  let inside = B.pand b pi pj in
  B.if_ b inside (fun () ->
      let mit = ldf b mp (B.add b (B.mul b i n) t) in
      let atj = ldf b ap (B.add b (B.mul b t n) j) in
      let aij = ldf b ap (B.add b (B.mul b i n) j) in
      let upd = B.fsub b aij (B.fmul b mit atj) in
      stf b ap (B.add b (B.mul b i n) j) upd;
      let pdiag = B.setp b Eq j t in
      B.if_ b pdiag (fun () ->
          let bt = ldf b bvp t in
          let bi = ldf b bvp i in
          let upd = B.fsub b bi (B.fmul b mit bt) in
          stf b bvp i upd));
  B.finish b

let size_of_scale = function
  | App.Small -> 32
  | App.Default -> 96
  | App.Large -> 192

let make rng scale =
  let n = size_of_scale scale in
  (* diagonally dominant so elimination is stable *)
  let a =
    Array.init (n * n) (fun idx ->
        let i = idx / n and j = idx mod n in
        let v = Prng.float_range rng (-1.0) 1.0 in
        if i = j then v +. 8.0 else v)
  in
  let bv = Array.init n (fun _ -> Prng.float_range rng (-1.0) 1.0) in
  let global = Gsim.Mem.create (4 * 1024 * 1024) in
  let layout = Layout.create global in
  let a_base = Dataset.store_f32_array layout a in
  let b_base = Dataset.store_f32_array layout bv in
  let m_base = Layout.alloc_f32 layout (n * n) in
  let fan1 = fan1_kernel () in
  let fan2 = fan2_kernel () in
  let program (launch : App.launch) =
    for t = 0 to n - 2 do
      launch ~kernel:fan1
        ~grid:(cdiv (n - t - 1) 16, 1, 1)
        ~block:(16, 1, 1)
        ~params:
          [ Layout.param "a" a_base; Layout.param "m" m_base;
            Layout.param_int "n" n; Layout.param_int "t" t ];
      launch ~kernel:fan2
        ~grid:(cdiv (n - t) 16, cdiv (n - t - 1) 16, 1)
        ~block:(16, 16, 1)
        ~params:
          [ Layout.param "a" a_base; Layout.param "bv" b_base;
            Layout.param "m" m_base; Layout.param_int "n" n;
            Layout.param_int "t" t ]
    done
  in
  let check () =
    (* below-diagonal entries must be (numerically) eliminated *)
    let ok = ref true in
    for i = 1 to n - 1 do
      for j = 0 to i - 1 do
        let v = Gsim.Mem.get_f32 global (a_base + (4 * ((i * n) + j))) in
        if Float.abs v > 1e-2 then ok := false
      done
    done;
    !ok
  in
  App.host ~global ~check program

let app =
  App.v ~name:"gaus" ~category:App.Linear
    ~description:"Gaussian elimination (Fan1/Fan2 per pivot)" ~seed:0x6A05
    make
