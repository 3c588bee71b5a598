(* srad (Rodinia): speckle-reducing anisotropic diffusion.  As in
   Rodinia, the four neighbour indices of each row/column are
   precomputed in index arrays (iN/iS/jW/jE); the image gathers through
   those loaded indices, so the neighbour loads are non-deterministic
   even though the access pattern is in fact regular — the paper's
   example of "hidden" regularity. *)

open Ptx.Types
module B = Ptx.Builder
open Kutil

(* diffusion-coefficient kernel (SRAD kernel 1, simplified shape):
   reads the 4 neighbours through index arrays, computes the
   normalized gradient magnitude and the coefficient c = 1/(1+g). *)
let srad1_kernel () =
  let b =
    B.create ~name:"srad_k1"
      ~params:
        [ u64 "img"; u64 "c"; u64 "iN"; u64 "iS"; u64 "jW"; u64 "jE";
          u32 "rows"; u32 "cols" ]
      ()
  in
  let img = B.ld_param b "img" in
  let cp = B.ld_param b "c" in
  let inp = B.ld_param b "iN" in
  let isp = B.ld_param b "iS" in
  let jwp = B.ld_param b "jW" in
  let jep = B.ld_param b "jE" in
  let rows = B.ld_param b "rows" in
  let cols = B.ld_param b "cols" in
  let col = gtid_x b in
  let row = gtid_y b in
  let pr = B.setp b Lt row rows in
  let pc = B.setp b Lt col cols in
  let inside = B.pand b pr pc in
  B.if_ b inside (fun () ->
      let idx = B.add b (B.mul b row cols) col in
      let jc = ldf b img idx in
      (* neighbour indices loaded from the index arrays -> the image
         gathers below are non-deterministic loads *)
      let i_n = ldu b inp row in
      let i_s = ldu b isp row in
      let j_w = ldu b jwp col in
      let j_e = ldu b jep col in
      let jn = ldf b img (B.add b (B.mul b i_n cols) col) in
      let js = ldf b img (B.add b (B.mul b i_s cols) col) in
      let jw = ldf b img (B.add b (B.mul b row cols) j_w) in
      let je = ldf b img (B.add b (B.mul b row cols) j_e) in
      let dn = B.fsub b jn jc in
      let ds = B.fsub b js jc in
      let dw = B.fsub b jw jc in
      let de = B.fsub b je jc in
      let g2 =
        B.fadd b
          (B.fadd b (B.fmul b dn dn) (B.fmul b ds ds))
          (B.fadd b (B.fmul b dw dw) (B.fmul b de de))
      in
      (* c = 1 / (1 + g2 / (jc*jc + 1e-6)) *)
      let denom = B.fadd b (B.fmul b jc jc) (B.float 1e-6) in
      let q = B.fdiv b g2 denom in
      let cval = B.funary b Rcp (B.fadd b (B.float 1.0) q) in
      stf b cp idx cval);
  B.finish b

(* statistics kernel (Rodinia srad's prepare/reduce stage): per-CTA
   partial sums of the image and its squares via a shared-memory tree
   reduction, used by the host to derive the q0 normalizer. *)
let stats_kernel () =
  let b =
    B.create ~name:"srad_stats"
      ~params:
        [ u64 "img"; u64 "psum"; u64 "psum2"; u32 "rows"; u32 "cols" ]
      ~smem_bytes:(2 * 256 * 4)
      ()
  in
  let img = B.ld_param b "img" in
  let psum = B.ld_param b "psum" in
  let psum2 = B.ld_param b "psum2" in
  let rows = B.ld_param b "rows" in
  let cols = B.ld_param b "cols" in
  let col = gtid_x b in
  let row = gtid_y b in
  let lin = B.add b (B.mul b (B.mov b B.tid_y) (B.int 16)) (B.mov b B.tid_x) in
  let sh_sum i = B.at b ~base:(B.int 0) ~scale:4 i in
  let sh_sum2 i = B.at b ~base:(B.int 1024) ~scale:4 i in
  let pr = B.setp b Lt row rows in
  let pc = B.setp b Lt col cols in
  let inside = B.pand b pr pc in
  (* stage value (or 0 outside the frame) into shared *)
  B.st b Shared F32 (sh_sum lin) (B.float 0.0);
  B.st b Shared F32 (sh_sum2 lin) (B.float 0.0);
  B.if_ b inside (fun () ->
      let v = ldf b img (B.add b (B.mul b row cols) col) in
      B.st b Shared F32 (sh_sum lin) v;
      B.st b Shared F32 (sh_sum2 lin) (B.fmul b v v));
  B.bar b;
  List.iter
    (fun stride ->
      let p_active = B.setp b Lt lin (B.int stride) in
      B.if_ b p_active (fun () ->
          let a = B.ld b Shared F32 (sh_sum lin) in
          let a' = B.ld b Shared F32 (sh_sum (B.add b lin (B.int stride))) in
          B.st b Shared F32 (sh_sum lin) (B.fadd b a a');
          let q = B.ld b Shared F32 (sh_sum2 lin) in
          let q' = B.ld b Shared F32 (sh_sum2 (B.add b lin (B.int stride))) in
          B.st b Shared F32 (sh_sum2 lin) (B.fadd b q q'));
      B.bar b)
    [ 128; 64; 32; 16; 8; 4; 2; 1 ];
  let p0 = B.setp b Eq lin (B.int 0) in
  B.if_ b p0 (fun () ->
      let cta = B.mad b B.ctaid_y B.nctaid_x B.ctaid_x in
      let s = B.ld b Shared F32 (sh_sum (B.int 0)) in
      let s2 = B.ld b Shared F32 (sh_sum2 (B.int 0)) in
      stf b psum cta s;
      stf b psum2 cta s2);
  B.finish b

(* update kernel (SRAD kernel 2 shape): img += 0.25*lambda*div, where
   the divergence uses the coefficient at the S/E neighbours (again
   through the index arrays). *)
let srad2_kernel () =
  let b =
    B.create ~name:"srad_k2"
      ~params:
        [ u64 "img"; u64 "c"; u64 "iS"; u64 "jE"; u32 "rows"; u32 "cols";
          f32 "lambda" ]
      ()
  in
  let img = B.ld_param b "img" in
  let cp = B.ld_param b "c" in
  let isp = B.ld_param b "iS" in
  let jep = B.ld_param b "jE" in
  let rows = B.ld_param b "rows" in
  let cols = B.ld_param b "cols" in
  let lambda = B.ld_param b "lambda" in
  let col = gtid_x b in
  let row = gtid_y b in
  let pr = B.setp b Lt row rows in
  let pc = B.setp b Lt col cols in
  let inside = B.pand b pr pc in
  B.if_ b inside (fun () ->
      let idx = B.add b (B.mul b row cols) col in
      let i_s = ldu b isp row in
      let j_e = ldu b jep col in
      let cc = ldf b cp idx in
      let cs = ldf b cp (B.add b (B.mul b i_s cols) col) in
      let ce = ldf b cp (B.add b (B.mul b row cols) j_e) in
      let d = B.fadd b (B.fadd b cc cs) ce in
      let jc = ldf b img idx in
      let upd = B.fma b (B.fmul b (B.float 0.25) lambda) d jc in
      stf b img idx upd);
  B.finish b

let size_of_scale = function
  | App.Small -> (48, 48)
  | App.Default -> (128, 128)
  | App.Large -> (384, 384)

let make rng scale =
  let rows, cols = size_of_scale scale in
  let img = Dataset.image rng cols rows in
  let global = Gsim.Mem.create (16 * 1024 * 1024) in
  let layout = Layout.create global in
  let img_base = Dataset.store_f32_array layout img in
  let c_base = Layout.alloc_f32 layout (rows * cols) in
  let in_arr = Array.init rows (fun i -> max 0 (i - 1)) in
  let is_arr = Array.init rows (fun i -> min (rows - 1) (i + 1)) in
  let jw_arr = Array.init cols (fun j -> max 0 (j - 1)) in
  let je_arr = Array.init cols (fun j -> min (cols - 1) (j + 1)) in
  let in_b = Dataset.store_u32_array layout in_arr in
  let is_b = Dataset.store_u32_array layout is_arr in
  let jw_b = Dataset.store_u32_array layout jw_arr in
  let je_b = Dataset.store_u32_array layout je_arr in
  let k1 = srad1_kernel () in
  let k2 = srad2_kernel () in
  let kstats = stats_kernel () in
  let grid = (cdiv cols 16, cdiv rows 16, 1) in
  let block = (16, 16, 1) in
  let n_ctas = cdiv cols 16 * cdiv rows 16 in
  let psum_base = Layout.alloc_f32 layout n_ctas in
  let psum2_base = Layout.alloc_f32 layout n_ctas in
  let lambda = 0.5 in
  let iters = 2 in
  let program (launch : App.launch) =
    launch ~kernel:kstats ~grid ~block
      ~params:
        [ Layout.param "img" img_base; Layout.param "psum" psum_base;
          Layout.param "psum2" psum2_base; Layout.param_int "rows" rows;
          Layout.param_int "cols" cols ];
    for _ = 1 to iters do
      launch ~kernel:k1 ~grid ~block
        ~params:
          [ Layout.param "img" img_base; Layout.param "c" c_base;
            Layout.param "iN" in_b; Layout.param "iS" is_b;
            Layout.param "jW" jw_b; Layout.param "jE" je_b;
            Layout.param_int "rows" rows; Layout.param_int "cols" cols ];
      launch ~kernel:k2 ~grid ~block
        ~params:
          [ Layout.param "img" img_base; Layout.param "c" c_base;
            Layout.param "iS" is_b; Layout.param "jE" je_b;
            Layout.param_int "rows" rows; Layout.param_int "cols" cols;
            ("lambda", Int64.bits_of_float lambda) ]
    done
  in
  let check () =
    (* smoothing sanity: all pixels finite and the total variation of
       the image does not increase *)
    let tv a =
      let acc = ref 0.0 in
      for i = 0 to rows - 1 do
        for j = 0 to cols - 2 do
          acc := !acc +. Float.abs (a ((i * cols) + j) -. a ((i * cols) + j + 1))
        done
      done;
      !acc
    in
    let before = tv (fun k -> round_f32 img.(k)) in
    let after = tv (fun k -> Gsim.Mem.get_f32 global (img_base + (4 * k))) in
    let finite = ref true in
    for k = 0 to (rows * cols) - 1 do
      if not (Float.is_finite (Gsim.Mem.get_f32 global (img_base + (4 * k))))
      then finite := false
    done;
    (* the stats kernel ran once on the original image: its per-CTA
       partial sums must match a host tree reduction exactly *)
    let ctas_x = cdiv cols 16 in
    let stats_ok = ref true in
    for c = 0 to min (n_ctas - 1) 15 do
      let cx = c mod ctas_x and cy = c / ctas_x in
      let vals =
        Array.init 256 (fun lin ->
            let ty = lin / 16 and tx = lin mod 16 in
            let r = (cy * 16) + ty and co = (cx * 16) + tx in
            if r < rows && co < cols then round_f32 img.((r * cols) + co)
            else 0.0)
      in
      let stride = ref 128 in
      while !stride >= 1 do
        for lin = 0 to !stride - 1 do
          vals.(lin) <- round_f32 (vals.(lin) +. vals.(lin + !stride))
        done;
        stride := !stride / 2
      done;
      let got = Gsim.Mem.get_f32 global (psum_base + (4 * c)) in
      if not (App.close_f32 vals.(0) got) then stats_ok := false
    done;
    !finite && after <= before *. 1.05 && !stats_ok
  in
  App.host ~global ~check program

let app =
  App.v ~name:"srad" ~category:App.Image
    ~description:
      "speckle-reducing anisotropic diffusion (index-array neighbour gathers)"
    ~seed:0x5AAD make
