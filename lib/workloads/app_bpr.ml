(* bpr (Rodinia backprop): neural-network layer forward pass.  Each
   16x16 CTA stages a slice of the input layer in shared memory,
   multiplies by the weight matrix, and tree-reduces partial sums with
   barriers — the suite's heaviest shared-memory user (paper Fig 9).
   Global loads deterministic. *)

open Ptx.Types
module B = Ptx.Builder
open Kutil

let height = 16 (* threads per CTA dimension *)

(* shared layout: sh_in[16] floats at 0, sh_w[16][16] at 64 bytes *)
let kernel () =
  let b =
    B.create ~name:"bpr_layerforward"
      ~params:[ u64 "input"; u64 "weights"; u64 "partial"; u32 "hid" ]
      ~smem_bytes:((height * 4) + (height * height * 4))
      ()
  in
  let inp = B.ld_param b "input" in
  let wp = B.ld_param b "weights" in
  let pp = B.ld_param b "partial" in
  let hid = B.ld_param b "hid" in
  let tx = B.mov b B.tid_x in
  let ty = B.mov b B.tid_y in
  let by = B.mov b B.ctaid_y in
  (* index of this CTA's input slice element ty *)
  let index_in = B.add b (B.mul b by (B.int height)) ty in
  let sh_in_addr i = B.at b ~base:(B.int 0) ~scale:4 i in
  let sh_w_addr row col =
    B.at b ~base:(B.int (height * 4)) ~scale:4
      (B.add b (B.mul b row (B.int height)) col)
  in
  (* one column of threads stages the input slice *)
  let p_tx0 = B.setp b Eq tx (B.int 0) in
  B.if_ b p_tx0 (fun () ->
      let v = ldf b inp index_in in
      B.st b Shared F32 (sh_in_addr ty) v);
  B.bar b;
  (* weight elements: w[index_in * hid + tx] *)
  let widx = B.add b (B.mul b index_in hid) tx in
  let w = ldf b wp widx in
  let shin = B.ld b Shared F32 (sh_in_addr ty) in
  B.st b Shared F32 (sh_w_addr ty tx) (B.fmul b w shin);
  B.bar b;
  (* tree reduction over ty: stride 1,2,4,8 as power-of-two steps *)
  List.iter
    (fun stride ->
      let rem = B.rem b ty (B.int (2 * stride)) in
      let p_active = B.setp b Eq rem (B.int 0) in
      B.if_ b p_active (fun () ->
          let mine = B.ld b Shared F32 (sh_w_addr ty tx) in
          let other =
            B.ld b Shared F32 (sh_w_addr (B.add b ty (B.int stride)) tx)
          in
          B.st b Shared F32 (sh_w_addr ty tx) (B.fadd b mine other));
      B.bar b)
    [ 1; 2; 4; 8 ];
  (* row 0 of threads writes the partial sums *)
  let p_ty0 = B.setp b Eq ty (B.int 0) in
  B.if_ b p_ty0 (fun () ->
      let out_idx = B.add b (B.mul b by hid) tx in
      let v = B.ld b Shared F32 (sh_w_addr (B.int 0) tx) in
      stf b pp out_idx v);
  B.finish b

let size_of_scale = function
  | App.Small -> 1024 (* input units *)
  | App.Default -> 16384
  | App.Large -> 65536

let make rng scale =
  let n_in = size_of_scale scale in
  let hid = height in
  let input = Array.init n_in (fun _ -> Prng.float_range rng 0.0 1.0) in
  let weights =
    Array.init (n_in * hid) (fun _ -> Prng.float_range rng (-0.5) 0.5)
  in
  let n_blocks = n_in / height in
  let global = Gsim.Mem.create (16 * 1024 * 1024) in
  let layout = Layout.create global in
  let in_base = Dataset.store_f32_array layout input in
  let w_base = Dataset.store_f32_array layout weights in
  let p_base = Layout.alloc_f32 layout (n_blocks * hid) in
  let kernel = kernel () in
  let program (launch : App.launch) =
    launch ~kernel ~grid:(1, n_blocks, 1)
      ~block:(height, height, 1)
      ~params:
        [ Layout.param "input" in_base; Layout.param "weights" w_base;
          Layout.param "partial" p_base; Layout.param_int "hid" hid ]
  in
  let check () =
    let input32 = Array.map round_f32 input in
    let weights32 = Array.map round_f32 weights in
    let ok = ref true in
    for by = 0 to min (n_blocks - 1) 31 do
      for tx = 0 to hid - 1 do
        (* replicate the tree reduction's f32 rounding order *)
        let vals =
          Array.init height (fun ty ->
              let idx = (by * height) + ty in
              round_f32 (weights32.((idx * hid) + tx) *. input32.(idx)))
        in
        let stride = ref 1 in
        while !stride < height do
          let ty = ref 0 in
          while !ty < height do
            if !ty + !stride < height then
              vals.(!ty) <- round_f32 (vals.(!ty) +. vals.(!ty + !stride));
            ty := !ty + (2 * !stride)
          done;
          stride := !stride * 2
        done;
        let got = Gsim.Mem.get_f32 global (p_base + (4 * ((by * hid) + tx))) in
        if not (App.close_f32 vals.(0) got) then ok := false
      done
    done;
    !ok
  in
  App.host ~global ~check program

let app =
  App.v ~name:"bpr" ~category:App.Image
    ~description:"back-propagation layer forward (shared-memory reduction)"
    ~seed:0xB6B6 make
