(* CTA instantiation: builds the warps of one thread block, its shared
   memory, and the memory interface its threads use.

   Local memory is modelled as a per-CTA scratch buffer indexed by the
   thread-local addresses the kernel computes; const and tex spaces
   read the global image (their caches are not modelled). *)

type t = { warps : Warp.t array; launch : Launch.t }

let shared_size kernel =
  max 256 kernel.Ptx.Kernel.smem_bytes

let create (launch : Launch.t) ~warp_size ~cta_lin =
  let kernel = launch.Launch.kernel in
  let nthreads = Launch.threads_per_cta launch in
  let nwarps = (nthreads + warp_size - 1) / warp_size in
  let shared = Mem.create (shared_size kernel) in
  let local = Mem.create (max 256 (nthreads * 64)) in
  let mem =
    { Warp.m_global = launch.Launch.global; m_shared = shared; m_local = local }
  in
  let ctaid = Launch.cta_coords launch cta_lin in
  let gx, gy, gz = launch.Launch.grid in
  let bx, by, bz = launch.Launch.block in
  let warps =
    Array.init nwarps (fun w ->
        let env =
          {
            Exec.ctaid;
            ntid = (bx, by, bz);
            nctaid = (gx, gy, gz);
            warp_in_cta = w;
          }
        in
        let base = w * warp_size in
        let lanes = min warp_size (nthreads - base) in
        let state =
          Exec.create_state env ~width:warp_size ~nregs:kernel.Ptx.Kernel.nregs
            ~npregs:kernel.Ptx.Kernel.npregs
        in
        for lane = 0 to lanes - 1 do
          Exec.set_tid state lane (Launch.thread_coords launch (base + lane))
        done;
        Warp.create ~warp_id:w ~cta_lin ~decode:launch.Launch.decode ~state
          ~valid_mask:(Warp.full_mask lanes)
          ~params:launch.Launch.params ~mem kernel)
  in
  { warps; launch }

let n_warps t = Array.length t.warps

let all_finished t = Array.for_all Warp.finished t.warps
