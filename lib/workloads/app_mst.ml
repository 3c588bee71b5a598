(* mst (LonestarGPU): minimum spanning forest, Boruvka's algorithm.
   Per round: every component finds its minimum-weight outgoing edge
   (packed (weight << 16) | edge into an atomic-min cell), roots merge
   along those edges (mutual pairs tie-break on component id), and
   pointer-jumping compresses the component map.  comp[comp[v]] is the
   classic non-deterministic indirect load. *)

open Ptx.Types
module B = Ptx.Builder
open Kutil

(* cand[tid] = INF *)
let reset_kernel () =
  let b = B.create ~name:"mst_reset" ~params:[ u64 "cand"; u32 "n" ] () in
  let cp = B.ld_param b "cand" in
  let n = B.ld_param b "n" in
  let v = gtid_x b in
  let pin = B.setp b Lt v n in
  B.if_ b pin (fun () -> stu b cp v (B.int64 0xFFFFFFFFL));
  B.finish b

(* each vertex offers its cheapest cross-component edge to its root *)
let find_kernel () =
  let b =
    B.create ~name:"mst_find"
      ~params:
        [ u64 "row_ptr"; u64 "edges"; u64 "w"; u64 "comp"; u64 "cand"; u32 "n" ]
      ()
  in
  let rp = B.ld_param b "row_ptr" in
  let ep = B.ld_param b "edges" in
  let wp = B.ld_param b "w" in
  let comp = B.ld_param b "comp" in
  let cand = B.ld_param b "cand" in
  let n = B.ld_param b "n" in
  let v = gtid_x b in
  let pin = B.setp b Lt v n in
  B.if_ b pin (fun () ->
      let c = ldu b comp v in
      let start = ldu b rp v in
      let stop = ldu b rp (B.add b v (B.int 1)) in
      B.for_loop b ~init:start ~bound:stop ~step:(B.int 1) (fun e ->
          let d = ldu b ep e in
          let cd = ldu b comp d in
          let pcross = B.setp b Ne cd c in
          B.if_ b pcross (fun () ->
              let wt = ldu b wp e in
              let pack = B.add b (B.mul b wt (B.int 65536)) e in
              ignore (B.atom b Amin U32 (B.at b ~base:cand ~scale:4 c) pack))));
  B.finish b

(* roots merge along their candidate edges *)
let merge_kernel () =
  let b =
    B.create ~name:"mst_merge"
      ~params:
        [ u64 "edges"; u64 "comp"; u64 "cand"; u64 "sum"; u64 "flag"; u32 "n" ]
      ()
  in
  let ep = B.ld_param b "edges" in
  let comp = B.ld_param b "comp" in
  let cand = B.ld_param b "cand" in
  let sum = B.ld_param b "sum" in
  let flag = B.ld_param b "flag" in
  let n = B.ld_param b "n" in
  let c = gtid_x b in
  let pin = B.setp b Lt c n in
  B.if_ b pin (fun () ->
      let pk = ldu b cand c in
      let phas = B.setp b Ne pk (B.int64 0xFFFFFFFFL) in
      B.if_ b phas (fun () ->
          let e = B.band b pk (B.int 0xFFFF) in
          let wt = B.shr b pk (B.int 16) in
          let d = ldu b ep e in
          let cd = ldu b comp d in
          let pcross = B.setp b Ne cd c in
          B.if_ b pcross (fun () ->
              (* mutual-pair tie-break: when cand[cd] leads back to c,
                 only the larger id merges *)
              let skip = B.fresh_reg b in
              B.emit b (Ptx.Instr.Mov (skip, B.int 0));
              let pk2 = ldu b cand cd in
              let phas2 = B.setp b Ne pk2 (B.int64 0xFFFFFFFFL) in
              B.if_ b phas2 (fun () ->
                  let e2 = B.band b pk2 (B.int 0xFFFF) in
                  let d2 = ldu b ep e2 in
                  let cd2 = ldu b comp d2 in
                  let pback = B.setp b Eq cd2 c in
                  let plower = B.setp b Lt c cd in
                  let pmutual_skip = B.pand b pback plower in
                  B.if_ b pmutual_skip (fun () ->
                      B.emit b (Ptx.Instr.Mov (skip, B.int 1))));
              let pgo = B.setp b Eq (Reg skip) (B.int 0) in
              B.if_ b pgo (fun () ->
                  stu b comp c cd;
                  ignore (B.atom b Aadd U32 (B.addr sum) wt);
                  B.st b Global U32 (B.addr flag) (B.int 1)))));
  B.finish b

(* comp[v] <- comp[comp[v]] until stable *)
let jump_kernel () =
  let b =
    B.create ~name:"mst_jump" ~params:[ u64 "comp"; u64 "flag"; u32 "n" ] ()
  in
  let comp = B.ld_param b "comp" in
  let flag = B.ld_param b "flag" in
  let n = B.ld_param b "n" in
  let v = gtid_x b in
  let pin = B.setp b Lt v n in
  B.if_ b pin (fun () ->
      let c1 = ldu b comp v in
      let c2 = ldu b comp c1 in
      let pch = B.setp b Ne c2 c1 in
      B.if_ b pch (fun () ->
          stu b comp v c2;
          B.st b Global U32 (B.addr flag) (B.int 1)));
  B.finish b

let size_of_scale = function
  | App.Small -> (256, 3)
  | App.Default -> (2048, 4)
  | App.Large -> (4096, 4)

let make rng scale =
  let n, ef = size_of_scale scale in
  (* undirected multigraph with one unique weight per undirected edge
     (both directed copies share it) — required for Boruvka *)
  let n_base = n * ef in
  let base =
    Array.init n_base (fun i -> (Prng.int rng n, Prng.int rng n, i + 1))
  in
  let dir_edges = ref [] and dir_vals = ref [] in
  Array.iter
    (fun (u, v, w) ->
      dir_edges := (u, v) :: (v, u) :: !dir_edges;
      dir_vals := float_of_int w :: float_of_int w :: !dir_vals)
    base;
  let g = Dataset.csr_of_edges ~n_rows:n !dir_edges !dir_vals in
  let m = g.Dataset.n_edges in
  assert (m < 65536);
  (* per-directed-copy weights, aligned with the CSR edge order *)
  let weights = Array.map int_of_float g.Dataset.values in
  let global = Gsim.Mem.create (64 * 1024 * 1024) in
  let layout = Layout.create global in
  let rp_base = Dataset.store_u32_array layout g.Dataset.row_ptr in
  let ep_base = Dataset.store_u32_array layout g.Dataset.col_idx in
  let w_base = Dataset.store_u32_array layout weights in
  let comp = Layout.alloc_u32 layout n in
  let cand = Layout.alloc_u32 layout n in
  let sum = Layout.alloc_u32 layout 1 in
  let flag = Layout.alloc_u32 layout 1 in
  Layout.fill_u32 layout comp n (fun v -> v);
  let reset = reset_kernel () in
  let find = find_kernel () in
  let merge = merge_kernel () in
  let jump = jump_kernel () in
  let grid = (cdiv n 384, 1, 1) and block = (384, 1, 1) in
  (* host program: rounds of reset-find-merge, then pointer-jumping to
     a fixpoint, until a round merges nothing (at most 24 rounds) *)
  let program (launch : App.launch) =
    let rec round r =
      launch ~kernel:reset ~grid ~block
        ~params:[ Layout.param "cand" cand; Layout.param_int "n" n ];
      Gsim.Mem.set_u32 global flag 0;
      launch ~kernel:find ~grid ~block
        ~params:
          [ Layout.param "row_ptr" rp_base; Layout.param "edges" ep_base;
            Layout.param "w" w_base; Layout.param "comp" comp;
            Layout.param "cand" cand; Layout.param_int "n" n ];
      launch ~kernel:merge ~grid ~block
        ~params:
          [ Layout.param "edges" ep_base; Layout.param "comp" comp;
            Layout.param "cand" cand; Layout.param "sum" sum;
            Layout.param "flag" flag; Layout.param_int "n" n ];
      if Gsim.Mem.get_u32 global flag <> 0 then begin
        App.while_flag ~global ~flag ~max_iters:max_int (fun () ->
            launch ~kernel:jump ~grid ~block
              ~params:
                [ Layout.param "comp" comp; Layout.param "flag" flag;
                  Layout.param_int "n" n ]);
        if r + 1 < 24 then round (r + 1)
      end
    in
    round 0
  in
  let check () =
    (* host Kruskal over the undirected base edges *)
    let parent = Array.init n Fun.id in
    let rec findp x =
      if parent.(x) = x then x
      else begin
        parent.(x) <- findp parent.(x);
        parent.(x)
      end
    in
    let edge_list =
      Array.to_list (Array.map (fun (u, v, w) -> (w, u, v)) base)
      |> List.sort compare
    in
    let total = ref 0 in
    List.iter
      (fun (w, u, v) ->
        let a = findp u and b = findp v in
        if a <> b then begin
          parent.(a) <- b;
          total := !total + w
        end)
      edge_list;
    Gsim.Mem.get_u32 global sum = !total
  in
  App.host ~global ~check program

let app =
  App.v ~name:"mst" ~category:App.Graph
    ~description:"Boruvka minimum spanning forest (atomic-min candidates)"
    ~seed:0x357 make
