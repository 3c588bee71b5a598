(* bfs (Rodinia): frontier-based breadth-first search — the paper's
   running example (Code 1).  The mask/cost loads are deterministic
   (indexed by tid); the edge and visited gathers are non-deterministic
   (indexed by loaded values).  The host relaunches the two kernels
   until the frontier empties. *)

open Ptx.Types
module B = Ptx.Builder
open Kutil

(* Kernel 1: expand the frontier. *)
let k1 () =
  let b =
    B.create ~name:"bfs_k1"
      ~params:
        [ u64 "starts"; u64 "degs"; u64 "edges"; u64 "mask"; u64 "umask";
          u64 "visited"; u64 "cost"; u32 "n" ]
      ()
  in
  let starts = B.ld_param b "starts" in
  let degs = B.ld_param b "degs" in
  let edges = B.ld_param b "edges" in
  let mask = B.ld_param b "mask" in
  let umask = B.ld_param b "umask" in
  let visited = B.ld_param b "visited" in
  let cost = B.ld_param b "cost" in
  let n = B.ld_param b "n" in
  let tid = gtid_x b in
  let pin = B.setp b Lt tid n in
  B.if_ b pin (fun () ->
      let mv = ldu b mask tid in
      let pactive = B.setp b Ne mv (B.int 0) in
      B.if_ b pactive (fun () ->
          stu b mask tid (B.int 0);
          let start = ldu b starts tid in
          let deg = ldu b degs tid in
          let stop = B.add b start deg in
          let my_cost = ldu b cost tid in
          B.for_loop b ~init:start ~bound:stop ~step:(B.int 1) (fun i ->
              let id = ldu b edges i in
              let vis = ldu b visited id in
              let punvis = B.setp b Eq vis (B.int 0) in
              B.if_ b punvis (fun () ->
                  stu b cost id (B.add b my_cost (B.int 1));
                  stu b umask id (B.int 1)))));
  B.finish b

(* Kernel 2: commit the new frontier and raise the continue flag. *)
let k2 () =
  let b =
    B.create ~name:"bfs_k2"
      ~params:[ u64 "mask"; u64 "umask"; u64 "visited"; u64 "flag"; u32 "n" ]
      ()
  in
  let mask = B.ld_param b "mask" in
  let umask = B.ld_param b "umask" in
  let visited = B.ld_param b "visited" in
  let flag = B.ld_param b "flag" in
  let n = B.ld_param b "n" in
  let tid = gtid_x b in
  let pin = B.setp b Lt tid n in
  B.if_ b pin (fun () ->
      let uv = ldu b umask tid in
      let pu = B.setp b Ne uv (B.int 0) in
      B.if_ b pu (fun () ->
          stu b mask tid (B.int 1);
          stu b visited tid (B.int 1);
          stu b umask tid (B.int 0);
          B.st b Global U32 (B.addr flag) (B.int 1)));
  B.finish b

(* Rodinia's graph1M input is a uniform random graph (avg degree 6);
   near-uniform degrees keep warps converged through the edge loop, the
   source of the paper's ~26-requests-per-warp bursts. *)
let size_of_scale = function
  | App.Small -> (1024, 4) (* vertices, avg degree *)
  | App.Default -> (65536, 6)
  | App.Large -> (262144, 6)

let make rng scale =
  let nv, ef = size_of_scale scale in
  let g = Dataset.uniform_graph rng ~n:nv ~edge_factor:ef in
  let n = g.Dataset.n_rows in
  let global = Gsim.Mem.create (64 * 1024 * 1024) in
  let layout = Layout.create global in
  let starts = Dataset.store_u32_array layout (Array.sub g.Dataset.row_ptr 0 n) in
  let degs =
    Dataset.store_u32_array layout
      (Array.init n (fun v -> g.Dataset.row_ptr.(v + 1) - g.Dataset.row_ptr.(v)))
  in
  let edges = Dataset.store_u32_array layout g.Dataset.col_idx in
  let mask = Layout.alloc_u32 layout n in
  let umask = Layout.alloc_u32 layout n in
  let visited = Layout.alloc_u32 layout n in
  let cost = Layout.alloc_u32 layout n in
  let flag = Layout.alloc_u32 layout 1 in
  let source = Dataset.max_degree_vertex g in
  Layout.fill_u32 layout cost n (fun _ -> 0xFFFFFF);
  Gsim.Mem.set_u32 global (mask + (4 * source)) 1;
  Gsim.Mem.set_u32 global (visited + (4 * source)) 1;
  Gsim.Mem.set_u32 global (cost + (4 * source)) 0;
  let k1 = k1 () and k2 = k2 () in
  let grid = (cdiv n 256, 1, 1) and block = (256, 1, 1) in
  (* host program: do { flag = 0; k1; k2 } while (flag && i < 64) *)
  let program (launch : App.launch) =
    App.while_flag ~global ~flag ~max_iters:64 (fun () ->
        launch ~kernel:k1 ~grid ~block
          ~params:
            [ Layout.param "starts" starts; Layout.param "degs" degs;
              Layout.param "edges" edges; Layout.param "mask" mask;
              Layout.param "umask" umask; Layout.param "visited" visited;
              Layout.param "cost" cost; Layout.param_int "n" n ];
        launch ~kernel:k2 ~grid ~block
          ~params:
            [ Layout.param "mask" mask; Layout.param "umask" umask;
              Layout.param "visited" visited; Layout.param "flag" flag;
              Layout.param_int "n" n ])
  in
  let check () =
    (* host BFS depths *)
    let dist = Array.make n (-1) in
    dist.(source) <- 0;
    let q = Queue.create () in
    Queue.push source q;
    while not (Queue.is_empty q) do
      let v = Queue.pop q in
      for e = g.Dataset.row_ptr.(v) to g.Dataset.row_ptr.(v + 1) - 1 do
        let d = g.Dataset.col_idx.(e) in
        if dist.(d) < 0 then begin
          dist.(d) <- dist.(v) + 1;
          Queue.push d q
        end
      done
    done;
    let ok = ref true in
    for v = 0 to n - 1 do
      let got = Gsim.Mem.get_u32 global (cost + (4 * v)) in
      let expect = if dist.(v) < 0 then 0xFFFFFF else dist.(v) in
      if got <> expect then ok := false
    done;
    !ok
  in
  App.host ~global ~check program

let app =
  App.v ~name:"bfs" ~category:App.Graph
    ~description:"frontier-based breadth-first search (paper Code 1)"
    ~seed:0xBF5 make
