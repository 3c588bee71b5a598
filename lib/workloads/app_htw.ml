(* htw (Rodinia heartwall): ultrasound heart-wall tracking.  One CTA per
   tracked sample point: the point's coordinates are read from input
   arrays (deterministic, indexed by CTA id), the surrounding frame
   window is gathered at addresses derived from those loaded
   coordinates (non-deterministic), correlated against a per-point
   template, and reduced in shared memory. *)

open Ptx.Types
module B = Ptx.Builder
open Kutil

let win = 16 (* window side; one CTA = 16x16 threads *)

let kernel () =
  let b =
    B.create ~name:"htw_track"
      ~params:
        [ u64 "frame"; u64 "tmpl"; u64 "px"; u64 "py"; u64 "ssd";
          u32 "fw"; u32 "fh" ]
      ~smem_bytes:(win * win * 4)
      ()
  in
  let frame = B.ld_param b "frame" in
  let tmpl = B.ld_param b "tmpl" in
  let pxp = B.ld_param b "px" in
  let pyp = B.ld_param b "py" in
  let ssd = B.ld_param b "ssd" in
  let fw = B.ld_param b "fw" in
  let _fh = B.ld_param b "fh" in
  let tx = B.mov b B.tid_x in
  let ty = B.mov b B.tid_y in
  let point = B.mov b B.ctaid_x in
  (* point epicenter, loaded from the sample-point arrays *)
  let cx = ldu b pxp point in
  let cy = ldu b pyp point in
  (* frame pixel at (cy+ty, cx+tx): address depends on loaded coords *)
  let frow = B.add b cy ty in
  let fcol = B.add b cx tx in
  let pix = ldf b frame (B.add b (B.mul b frow fw) fcol) in
  (* per-point template pixel: deterministic (ctaid/tid indexing) *)
  let tidx =
    B.add b
      (B.mul b point (B.int (win * win)))
      (B.add b (B.mul b ty (B.int win)) tx)
  in
  let tpix = ldf b tmpl tidx in
  let diff = B.fsub b pix tpix in
  let sh_addr i = B.at b ~base:(B.int 0) ~scale:4 i in
  let lin = B.add b (B.mul b ty (B.int win)) tx in
  B.st b Shared F32 (sh_addr lin) (B.fmul b diff diff);
  B.bar b;
  (* tree-reduce the 256 squared differences *)
  List.iter
    (fun stride ->
      let p_active = B.setp b Lt lin (B.int stride) in
      B.if_ b p_active (fun () ->
          let mine = B.ld b Shared F32 (sh_addr lin) in
          let other = B.ld b Shared F32 (sh_addr (B.add b lin (B.int stride))) in
          B.st b Shared F32 (sh_addr lin) (B.fadd b mine other));
      B.bar b)
    [ 128; 64; 32; 16; 8; 4; 2; 1 ];
  let p0 = B.setp b Eq lin (B.int 0) in
  B.if_ b p0 (fun () ->
      let v = B.ld b Shared F32 (sh_addr (B.int 0)) in
      stf b ssd point v);
  B.finish b

let size_of_scale = function
  | App.Small -> (96, 96, 16) (* frame w, h, points *)
  | App.Default -> (256, 256, 48)
  | App.Large -> (640, 512, 128)

let make rng scale =
  let fw, fh, npoints = size_of_scale scale in
  let frame = Dataset.image rng fw fh in
  let tmplv =
    Array.init (npoints * win * win) (fun _ -> Prng.float_range rng 0.0 255.0)
  in
  let px = Array.init npoints (fun _ -> Prng.int rng (fw - win)) in
  let py = Array.init npoints (fun _ -> Prng.int rng (fh - win)) in
  let global = Gsim.Mem.create (16 * 1024 * 1024) in
  let layout = Layout.create global in
  let frame_b = Dataset.store_f32_array layout frame in
  let tmpl_b = Dataset.store_f32_array layout tmplv in
  let px_b = Dataset.store_u32_array layout px in
  let py_b = Dataset.store_u32_array layout py in
  let ssd_b = Layout.alloc_f32 layout npoints in
  let kernel = kernel () in
  let program (launch : App.launch) =
    launch ~kernel ~grid:(npoints, 1, 1) ~block:(win, win, 1)
      ~params:
        [ Layout.param "frame" frame_b; Layout.param "tmpl" tmpl_b;
          Layout.param "px" px_b; Layout.param "py" py_b;
          Layout.param "ssd" ssd_b; Layout.param_int "fw" fw;
          Layout.param_int "fh" fh ]
  in
  let check () =
    let ok = ref true in
    for p = 0 to npoints - 1 do
      (* host SSD with matching reduction order *)
      let vals =
        Array.init (win * win) (fun lin ->
            let ty = lin / win and tx = lin mod win in
            let fpix =
              round_f32 frame.(((py.(p) + ty) * fw) + px.(p) + tx)
            in
            let tpix = round_f32 tmplv.((p * win * win) + lin) in
            let d = round_f32 (fpix -. tpix) in
            round_f32 (d *. d))
      in
      let stride = ref 128 in
      while !stride >= 1 do
        for lin = 0 to !stride - 1 do
          vals.(lin) <- round_f32 (vals.(lin) +. vals.(lin + !stride))
        done;
        stride := !stride / 2
      done;
      let got = Gsim.Mem.get_f32 global (ssd_b + (4 * p)) in
      if not (App.close_f32 vals.(0) got) then ok := false
    done;
    !ok
  in
  App.host ~global ~check program

let app =
  App.v ~name:"htw" ~category:App.Image
    ~description:"heart-wall tracking (windowed SSD around loaded points)"
    ~seed:0x47EA make
