(* ccl: connected-component labeling by pull-style label propagation.
   Every vertex repeatedly adopts the minimum label among its
   neighbours; labels converge to the minimum vertex id of each
   component.  Neighbour label loads are non-deterministic. *)

open Ptx.Types
module B = Ptx.Builder
open Kutil

let kernel () =
  let b =
    B.create ~name:"ccl_propagate"
      ~params:[ u64 "row_ptr"; u64 "edges"; u64 "label"; u64 "flag"; u32 "n" ]
      ()
  in
  let rp = B.ld_param b "row_ptr" in
  let ep = B.ld_param b "edges" in
  let lp = B.ld_param b "label" in
  let flag = B.ld_param b "flag" in
  let n = B.ld_param b "n" in
  let v = gtid_x b in
  let pin = B.setp b Lt v n in
  B.if_ b pin (fun () ->
      let lv = ldu b lp v in
      let best = B.fresh_reg b in
      B.emit b (Ptx.Instr.Mov (best, lv));
      let start = ldu b rp v in
      let stop = ldu b rp (B.add b v (B.int 1)) in
      B.for_loop b ~init:start ~bound:stop ~step:(B.int 1) (fun e ->
          let u = ldu b ep e in
          let lu = ldu b lp u in
          B.emit b (Ptx.Instr.Iop (Min, best, Reg best, lu)));
      let pbetter = B.setp b Lt (Reg best) lv in
      B.if_ b pbetter (fun () ->
          stu b lp v (Reg best);
          B.st b Global U32 (B.addr flag) (B.int 1)));
  B.finish b

let size_of_scale = function
  | App.Small -> (512, 3)
  | App.Default -> (8192, 6)
  | App.Large -> (32768, 8)

let make rng scale =
  let n, ef = size_of_scale scale in
  let g = Dataset.symmetrize (Dataset.uniform_graph rng ~n ~edge_factor:ef) in
  let global = Gsim.Mem.create (64 * 1024 * 1024) in
  let layout = Layout.create global in
  let rp_base = Dataset.store_u32_array layout g.Dataset.row_ptr in
  let ep_base = Dataset.store_u32_array layout g.Dataset.col_idx in
  let l_base = Layout.alloc_u32 layout n in
  let flag = Layout.alloc_u32 layout 1 in
  Layout.fill_u32 layout l_base n (fun v -> v);
  let kernel = kernel () in
  (* host program: propagate until no label changes *)
  let program (launch : App.launch) =
    App.while_flag ~global ~flag ~max_iters:200 (fun () ->
        launch ~kernel
          ~grid:(cdiv n 256, 1, 1)
          ~block:(256, 1, 1)
          ~params:
            [ Layout.param "row_ptr" rp_base; Layout.param "edges" ep_base;
              Layout.param "label" l_base; Layout.param "flag" flag;
              Layout.param_int "n" n ])
  in
  let check () =
    (* host union-find components; device label must equal the minimum
       vertex id of the component *)
    let parent = Array.init n Fun.id in
    let rec find x = if parent.(x) = x then x else begin
        parent.(x) <- find parent.(x);
        parent.(x)
      end
    in
    for v = 0 to n - 1 do
      for e = g.Dataset.row_ptr.(v) to g.Dataset.row_ptr.(v + 1) - 1 do
        let a = find v and b = find g.Dataset.col_idx.(e) in
        if a <> b then parent.(max a b) <- min a b
      done
    done;
    let min_label = Array.make n max_int in
    for v = 0 to n - 1 do
      let r = find v in
      if v < min_label.(r) then min_label.(r) <- v
    done;
    let ok = ref true in
    for v = 0 to n - 1 do
      if Gsim.Mem.get_u32 global (l_base + (4 * v)) <> min_label.(find v) then
        ok := false
    done;
    !ok
  in
  App.host ~global ~check program

let app =
  App.v ~name:"ccl" ~category:App.Graph
    ~description:"connected-component labeling (min-label propagation)"
    ~seed:0xCC1 make
