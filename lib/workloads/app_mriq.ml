(* mriq (Parboil): MRI reconstruction Q-matrix computation.  Threads
   iterate over all k-space samples (held in constant memory, as in
   Parboil) computing sin/cos phase contributions for their voxel.
   Global loads are only the per-voxel coordinates — the paper's
   lowest global-load-fraction application (0.03%) — and the kernel is
   SFU-heavy. *)

open Ptx.Types
module B = Ptx.Builder
open Kutil

let two_pi = 6.2831853

(* phiMag[k] = phiR[k]^2 + phiI[k]^2 — Parboil's first kernel. *)
let phimag_kernel () =
  let b =
    B.create ~name:"mriq_phimag"
      ~params:[ u64 "phiR"; u64 "phiI"; u64 "phiMag"; u32 "nk" ]
      ()
  in
  let rp = B.ld_param b "phiR" in
  let ip = B.ld_param b "phiI" in
  let mp = B.ld_param b "phiMag" in
  let nk = B.ld_param b "nk" in
  let k = gtid_x b in
  let p = B.setp b Lt k nk in
  B.if_ b p (fun () ->
      let re = ldf b rp k in
      let im = ldf b ip k in
      stf b mp k (B.fadd b (B.fmul b re re) (B.fmul b im im)));
  B.finish b

(* k-space sample record: kx, ky, kz, phi — stored SoA in const space *)
let kernel () =
  let b =
    B.create ~name:"mriq_computeq"
      ~params:
        [ u64 "xs"; u64 "ys"; u64 "zs"; u64 "kx"; u64 "ky"; u64 "kz";
          u64 "phi"; u64 "qr"; u64 "qi"; u32 "nx"; u32 "nk" ]
      ()
  in
  let xs = B.ld_param b "xs" in
  let ys = B.ld_param b "ys" in
  let zs = B.ld_param b "zs" in
  let kx = B.ld_param b "kx" in
  let ky = B.ld_param b "ky" in
  let kz = B.ld_param b "kz" in
  let phi = B.ld_param b "phi" in
  let qr = B.ld_param b "qr" in
  let qi = B.ld_param b "qi" in
  let nx = B.ld_param b "nx" in
  let nk = B.ld_param b "nk" in
  let i = gtid_x b in
  let p = B.setp b Lt i nx in
  B.if_ b p (fun () ->
      let x = ldf b xs i in
      let y = ldf b ys i in
      let z = ldf b zs i in
      let accr = f32_acc b in
      let acci = f32_acc b in
      B.for_loop b ~init:(B.int 0) ~bound:nk ~step:(B.int 1) (fun k ->
          let ldc base idx = B.ld b Const F32 (B.at b ~base ~scale:4 idx) in
          let kxv = ldc kx k in
          let kyv = ldc ky k in
          let kzv = ldc kz k in
          let phiv = ldc phi k in
          let dot =
            B.fadd b
              (B.fadd b (B.fmul b kxv x) (B.fmul b kyv y))
              (B.fmul b kzv z)
          in
          let arg = B.fmul b (B.float two_pi) dot in
          let c = B.funary b Cos arg in
          let s = B.funary b Sin arg in
          B.emit b (Ptx.Instr.Fma (F32, accr, phiv, c, Reg accr));
          B.emit b (Ptx.Instr.Fma (F32, acci, phiv, s, Reg acci)));
      stf b qr i (Reg accr);
      stf b qi i (Reg acci));
  B.finish b

let size_of_scale = function
  | App.Small -> (512, 64) (* voxels, k-samples *)
  | App.Default -> (4096, 192)
  | App.Large -> (16384, 512)

let make rng scale =
  let nx, nk = size_of_scale scale in
  let mk n = Array.init n (fun _ -> Prng.float_range rng (-1.0) 1.0) in
  let xs = mk nx and ys = mk nx and zs = mk nx in
  let kxa = mk nk and kya = mk nk and kza = mk nk in
  let phir = mk nk and phii = mk nk in
  (* phi = phiR^2 + phiI^2, computed on-device by the phimag kernel *)
  let phia =
    Array.init nk (fun i ->
        let r = round_f32 phir.(i) and im = round_f32 phii.(i) in
        round_f32 (round_f32 (r *. r) +. round_f32 (im *. im)))
  in
  let global = Gsim.Mem.create (8 * 1024 * 1024) in
  let layout = Layout.create global in
  let xs_b = Dataset.store_f32_array layout xs in
  let ys_b = Dataset.store_f32_array layout ys in
  let zs_b = Dataset.store_f32_array layout zs in
  let kx_b = Dataset.store_f32_array layout kxa in
  let ky_b = Dataset.store_f32_array layout kya in
  let kz_b = Dataset.store_f32_array layout kza in
  let phir_b = Dataset.store_f32_array layout phir in
  let phii_b = Dataset.store_f32_array layout phii in
  let phi_b = Layout.alloc_f32 layout nk in
  let qr_b = Layout.alloc_f32 layout nx in
  let qi_b = Layout.alloc_f32 layout nx in
  let kernel = kernel () in
  let phimag = phimag_kernel () in
  let program (launch : App.launch) =
    launch ~kernel:phimag
      ~grid:(cdiv nk 256, 1, 1)
      ~block:(256, 1, 1)
      ~params:
        [ Layout.param "phiR" phir_b; Layout.param "phiI" phii_b;
          Layout.param "phiMag" phi_b; Layout.param_int "nk" nk ];
    launch ~kernel
      ~grid:(cdiv nx 256, 1, 1)
      ~block:(256, 1, 1)
      ~params:
        [ Layout.param "xs" xs_b; Layout.param "ys" ys_b;
          Layout.param "zs" zs_b; Layout.param "kx" kx_b;
          Layout.param "ky" ky_b; Layout.param "kz" kz_b;
          Layout.param "phi" phi_b; Layout.param "qr" qr_b;
          Layout.param "qi" qi_b; Layout.param_int "nx" nx;
          Layout.param_int "nk" nk ]
  in
  let check () =
    let ok = ref true in
    let r = Array.map round_f32 in
    let xs = r xs and ys = r ys and zs = r zs in
    let kxa = r kxa and kya = r kya and kza = r kza and phia = r phia in
    (* sample voxels; replicate the f32 rounding of the kernel *)
    for s = 0 to 15 do
      let i = s * nx / 16 in
      let accr = ref 0.0 and acci = ref 0.0 in
      for k = 0 to nk - 1 do
        let dot =
          round_f32
            (round_f32 (round_f32 (kxa.(k) *. xs.(i)) +. round_f32 (kya.(k) *. ys.(i)))
            +. round_f32 (kza.(k) *. zs.(i)))
        in
        (* the kernel's float immediate is a double, as in Fimm *)
        let arg = round_f32 (two_pi *. dot) in
        accr := round_f32 ((phia.(k) *. round_f32 (Float.cos arg)) +. !accr);
        acci := round_f32 ((phia.(k) *. round_f32 (Float.sin arg)) +. !acci)
      done;
      if not (App.close_f32 !accr (Gsim.Mem.get_f32 global (qr_b + (4 * i))))
      then ok := false;
      if not (App.close_f32 !acci (Gsim.Mem.get_f32 global (qi_b + (4 * i))))
      then ok := false
    done;
    !ok
  in
  App.host ~global ~check program

let app =
  App.v ~name:"mriq" ~category:App.Image
    ~description:"MRI Q-matrix computation (SFU-heavy, const k-space)"
    ~seed:0x3319 make
