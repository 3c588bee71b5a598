(* dwt (Rodinia dwt2d): one level of a 2-D Haar wavelet transform,
   rows then columns.  Threads near the frame boundary take a divergent
   mirroring path, reproducing the paper's remark that image kernels
   diverge around frame edges.  All loads deterministic. *)

open Ptx.Types
module B = Ptx.Builder
open Kutil

let inv_sqrt2 = 0.70710678

(* Row pass with transposed writes: loads stay coalesced (row-major),
   the transpose happens on the store side — the idiom Rodinia's dwt2d
   uses.  Applying the pass twice yields the full 2-D transform.
     dst[j][i]       = (src[i][2j] + src[i][2j+1]) * inv_sqrt2
     dst[j+w/2][i]   = (src[i][2j] - src[i][2j+1]) * inv_sqrt2
   Odd-width frames mirror the last pixel (divergent path). *)
let pass_kernel ~name =
  let b =
    B.create ~name ~params:[ u64 "src"; u64 "dst"; u32 "w"; u32 "h" ] ()
  in
  let sp = B.ld_param b "src" in
  let dp = B.ld_param b "dst" in
  let w = B.ld_param b "w" in
  let h = B.ld_param b "h" in
  let jx = gtid_x b in
  let i = gtid_y b in
  let half = B.shr b w (B.int 1) in
  let pj = B.setp b Lt jx half in
  let pi = B.setp b Lt i h in
  let inside = B.pand b pj pi in
  let index row col = B.add b (B.mul b row w) col in
  let src_at row col = ldf b sp (index row col) in
  let dst_at row col v = stf b dp (index row col) v in
  B.if_ b inside (fun () ->
      let c0 = B.mul b jx (B.int 2) in
      let c1 = B.add b c0 (B.int 1) in
      let a = src_at i c0 in
      (* mirror the final column when 2j+1 runs past the edge *)
      let bv = B.fresh_reg b in
      let p_edge = B.setp b Ge c1 w in
      let in_range = B.pnot b p_edge in
      B.if_ b in_range (fun () ->
          B.emit b (Ptx.Instr.Mov (bv, src_at i c1)));
      B.if_ b p_edge (fun () -> B.emit b (Ptx.Instr.Mov (bv, a)));
      let lo = B.fmul b (B.fadd b a (Reg bv)) (B.float inv_sqrt2) in
      let hi = B.fmul b (B.fsub b a (Reg bv)) (B.float inv_sqrt2) in
      dst_at jx i lo;
      dst_at (B.add b jx half) i hi);
  B.finish b

let size_of_scale = function
  | App.Small -> (64, 64)
  | App.Default -> (192, 192)
  | App.Large -> (512, 512)

let make rng scale =
  let w, h = size_of_scale scale in
  let img = Dataset.image rng w h in
  let global = Gsim.Mem.create (16 * 1024 * 1024) in
  let layout = Layout.create global in
  let src = Dataset.store_f32_array layout img in
  let tmp = Layout.alloc_f32 layout (w * h) in
  let out = Layout.alloc_f32 layout (w * h) in
  let rows = pass_kernel ~name:"dwt_rows" in
  let cols = pass_kernel ~name:"dwt_cols" in
  let program (launch : App.launch) =
    let pass kernel ~s ~d =
      launch ~kernel
        ~grid:(cdiv (w / 2) 16, cdiv h 16, 1)
        ~block:(16, 16, 1)
        ~params:
          [ Layout.param "src" s; Layout.param "dst" d;
            Layout.param_int "w" w; Layout.param_int "h" h ]
    in
    pass rows ~s:src ~d:tmp;
    pass cols ~s:tmp ~d:out
  in
  let check () =
    (* host reference: two row passes with transposed writes *)
    let img32 = Array.map round_f32 img in
    let pass src_arr dst_arr =
      for i = 0 to h - 1 do
        for j = 0 to (w / 2) - 1 do
          let a = src_arr.((i * w) + (2 * j)) in
          let b =
            if (2 * j) + 1 < w then src_arr.((i * w) + (2 * j) + 1) else a
          in
          dst_arr.((j * w) + i) <- round_f32 (round_f32 (a +. b) *. inv_sqrt2);
          dst_arr.(((j + (w / 2)) * w) + i) <-
            round_f32 (round_f32 (a -. b) *. inv_sqrt2)
        done
      done
    in
    let tmp_h = Array.make (w * h) 0.0 in
    let out_h = Array.make (w * h) 0.0 in
    pass img32 tmp_h;
    pass tmp_h out_h;
    let ok = ref true in
    for idx = 0 to (w * h) - 1 do
      if
        not
          (App.close_f32 out_h.(idx) (Gsim.Mem.get_f32 global (out + (4 * idx))))
      then ok := false
    done;
    !ok
  in
  App.host ~global ~check program

let app =
  App.v ~name:"dwt" ~category:App.Image
    ~description:"2-D Haar wavelet transform (row pass + column pass)"
    ~seed:0xD3A7 make
