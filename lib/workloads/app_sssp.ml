(* sssp (LonestarGPU): single-source shortest paths, Bellman-Ford
   style.  Each thread relaxes the out-edges of one vertex; distance
   updates go through atomic-min on the destination (a non-deterministic
   access through the loaded edge target).  The host relaunches until a
   fixpoint. *)

open Ptx.Types
module B = Ptx.Builder
open Kutil

let inf = 0x3FFFFFFF

let kernel () =
  let b =
    B.create ~name:"sssp_relax"
      ~params:
        [ u64 "row_ptr"; u64 "edges"; u64 "w"; u64 "dist"; u64 "flag";
          u32 "n" ]
      ()
  in
  let rp = B.ld_param b "row_ptr" in
  let ep = B.ld_param b "edges" in
  let wp = B.ld_param b "w" in
  let dp = B.ld_param b "dist" in
  let flag = B.ld_param b "flag" in
  let n = B.ld_param b "n" in
  let v = gtid_x b in
  let pin = B.setp b Lt v n in
  B.if_ b pin (fun () ->
      let dv = ldu b dp v in
      let preach = B.setp b Lt dv (B.int inf) in
      B.if_ b preach (fun () ->
          let start = ldu b rp v in
          let stop = ldu b rp (B.add b v (B.int 1)) in
          B.for_loop b ~init:start ~bound:stop ~step:(B.int 1) (fun e ->
              let dst = ldu b ep e in
              let wt = ldu b wp e in
              let alt = B.add b dv wt in
              let old = ldu b dp dst in
              let pbetter = B.setp b Lt alt old in
              B.if_ b pbetter (fun () ->
                  let prev =
                    B.atom b Amin U32 (B.at b ~base:dp ~scale:4 dst) alt
                  in
                  let pimproved = B.setp b Lt alt prev in
                  B.if_ b pimproved (fun () ->
                      B.st b Global U32 (B.addr flag) (B.int 1))))));
  B.finish b

let size_of_scale = function
  | App.Small -> (10, 4)
  | App.Default -> (14, 8)
  | App.Large -> (16, 8)

let make rng scale =
  let sc, ef = size_of_scale scale in
  let g =
    Dataset.relabel rng
      (Dataset.symmetrize (Dataset.rmat rng ~scale:sc ~edge_factor:ef))
  in
  let n = g.Dataset.n_rows in
  (* integer weights in [1, 100] *)
  let weights =
    Array.init g.Dataset.n_edges (fun e ->
        ignore e;
        1 + Prng.int rng 100)
  in
  let global = Gsim.Mem.create (64 * 1024 * 1024) in
  let layout = Layout.create global in
  let rp_base = Dataset.store_u32_array layout g.Dataset.row_ptr in
  let ep_base = Dataset.store_u32_array layout g.Dataset.col_idx in
  let w_base = Dataset.store_u32_array layout weights in
  let d_base = Layout.alloc_u32 layout n in
  let flag = Layout.alloc_u32 layout 1 in
  let source = Dataset.max_degree_vertex g in
  Layout.fill_u32 layout d_base n (fun v -> if v = source then 0 else inf);
  let kernel = kernel () in
  (* host program: relax until no distance improves *)
  let program (launch : App.launch) =
    App.while_flag ~global ~flag ~max_iters:64 (fun () ->
        launch ~kernel
          ~grid:(cdiv n 512, 1, 1)
          ~block:(512, 1, 1)
          ~params:
            [ Layout.param "row_ptr" rp_base; Layout.param "edges" ep_base;
              Layout.param "w" w_base; Layout.param "dist" d_base;
              Layout.param "flag" flag; Layout.param_int "n" n ])
  in
  let check () =
    (* host Dijkstra via simple Bellman-Ford (small graphs) *)
    let dist = Array.make n inf in
    dist.(source) <- 0;
    let changed = ref true in
    while !changed do
      changed := false;
      for v = 0 to n - 1 do
        if dist.(v) < inf then
          for e = g.Dataset.row_ptr.(v) to g.Dataset.row_ptr.(v + 1) - 1 do
            let d = g.Dataset.col_idx.(e) in
            let alt = dist.(v) + weights.(e) in
            if alt < dist.(d) then begin
              dist.(d) <- alt;
              changed := true
            end
          done
      done
    done;
    let ok = ref true in
    for v = 0 to n - 1 do
      if Gsim.Mem.get_u32 global (d_base + (4 * v)) <> dist.(v) then ok := false
    done;
    !ok
  in
  App.host ~global ~check program

let app =
  App.v ~name:"sssp" ~category:App.Graph
    ~description:"single-source shortest paths (Bellman-Ford, atomic-min)"
    ~seed:0x5559 make
