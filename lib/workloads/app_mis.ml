(* mis: maximal independent set, Luby's algorithm.  Vertices carry
   distinct random priorities (input data); an undecided vertex joins
   the set when no undecided neighbour outranks it, and leaves the
   candidate pool when a neighbour joined.  Neighbour status/priority
   loads are non-deterministic. *)

open Ptx.Types
module B = Ptx.Builder
open Kutil

let st_undecided = 0
let st_in = 1
let st_out = 2

(* Kernel 1: select local priority maxima into the set. *)
let select_kernel () =
  let b =
    B.create ~name:"mis_select"
      ~params:
        [ u64 "row_ptr"; u64 "edges"; u64 "prio"; u64 "state"; u64 "flag";
          u32 "n" ]
      ()
  in
  let rp = B.ld_param b "row_ptr" in
  let ep = B.ld_param b "edges" in
  let pp = B.ld_param b "prio" in
  let sp = B.ld_param b "state" in
  let flag = B.ld_param b "flag" in
  let n = B.ld_param b "n" in
  let v = gtid_x b in
  let pin = B.setp b Lt v n in
  B.if_ b pin (fun () ->
      let sv = ldu b sp v in
      let pund = B.setp b Eq sv (B.int st_undecided) in
      B.if_ b pund (fun () ->
          let pv = ldu b pp v in
          (* best = 1 while no undecided neighbour has higher priority *)
          let best = B.fresh_reg b in
          B.emit b (Ptx.Instr.Mov (best, B.int 1));
          let start = ldu b rp v in
          let stop = ldu b rp (B.add b v (B.int 1)) in
          B.for_loop b ~init:start ~bound:stop ~step:(B.int 1) (fun e ->
              let u = ldu b ep e in
              let su = ldu b sp u in
              let pu = ldu b pp u in
              let p_u_undecided = B.setp b Ne su (B.int st_out) in
              let p_higher = B.setp b Gt pu pv in
              let p_loses = B.pand b p_u_undecided p_higher in
              B.if_ b p_loses (fun () ->
                  B.emit b (Ptx.Instr.Mov (best, B.int 0))));
          let pwin = B.setp b Eq (Reg best) (B.int 1) in
          B.if_ b pwin (fun () ->
              stu b sp v (B.int st_in);
              B.st b Global U32 (B.addr flag) (B.int 1))));
  B.finish b

(* Kernel 2: exclude neighbours of set members. *)
let exclude_kernel () =
  let b =
    B.create ~name:"mis_exclude"
      ~params:[ u64 "row_ptr"; u64 "edges"; u64 "state"; u32 "n" ]
      ()
  in
  let rp = B.ld_param b "row_ptr" in
  let ep = B.ld_param b "edges" in
  let sp = B.ld_param b "state" in
  let n = B.ld_param b "n" in
  let v = gtid_x b in
  let pin = B.setp b Lt v n in
  B.if_ b pin (fun () ->
      let sv = ldu b sp v in
      let pund = B.setp b Eq sv (B.int st_undecided) in
      B.if_ b pund (fun () ->
          let start = ldu b rp v in
          let stop = ldu b rp (B.add b v (B.int 1)) in
          B.for_loop b ~init:start ~bound:stop ~step:(B.int 1) (fun e ->
              let u = ldu b ep e in
              let su = ldu b sp u in
              let pin_set = B.setp b Eq su (B.int st_in) in
              B.if_ b pin_set (fun () -> stu b sp v (B.int st_out)))));
  B.finish b

let size_of_scale = function
  | App.Small -> (512, 3)
  | App.Default -> (8192, 6)
  | App.Large -> (32768, 8)

(* distinct priorities: multiplication by an odd constant is a
   bijection mod 2^30 *)
let priority v = v * 0x9E3779B land 0x3FFFFFFF

let make rng scale =
  let n, ef = size_of_scale scale in
  let g = Dataset.symmetrize (Dataset.uniform_graph rng ~n ~edge_factor:ef) in
  let global = Gsim.Mem.create (64 * 1024 * 1024) in
  let layout = Layout.create global in
  let rp_base = Dataset.store_u32_array layout g.Dataset.row_ptr in
  let ep_base = Dataset.store_u32_array layout g.Dataset.col_idx in
  let prio = Dataset.store_u32_array layout (Array.init n priority) in
  let state = Layout.alloc_u32 layout n in
  let flag = Layout.alloc_u32 layout 1 in
  let select = select_kernel () in
  let exclude = exclude_kernel () in
  let grid = (cdiv n 512, 1, 1) and block = (512, 1, 1) in
  let program (launch : App.launch) =
    App.while_flag ~global ~flag ~max_iters:64 (fun () ->
        launch ~kernel:select ~grid ~block
          ~params:
            [ Layout.param "row_ptr" rp_base; Layout.param "edges" ep_base;
              Layout.param "prio" prio; Layout.param "state" state;
              Layout.param "flag" flag; Layout.param_int "n" n ];
        launch ~kernel:exclude ~grid ~block
          ~params:
            [ Layout.param "row_ptr" rp_base; Layout.param "edges" ep_base;
              Layout.param "state" state; Layout.param_int "n" n ])
  in
  let check () =
    let st v = Gsim.Mem.get_u32 global (state + (4 * v)) in
    let ok = ref true in
    for v = 0 to n - 1 do
      (* everyone decided *)
      if st v = st_undecided then ok := false;
      (* independence + maximality *)
      let has_in_neighbour = ref false in
      for e = g.Dataset.row_ptr.(v) to g.Dataset.row_ptr.(v + 1) - 1 do
        let u = g.Dataset.col_idx.(e) in
        if u <> v && st u = st_in then has_in_neighbour := true;
        if u <> v && st v = st_in && st u = st_in then ok := false
      done;
      if st v = st_out && not !has_in_neighbour then ok := false
    done;
    !ok
  in
  App.host ~global ~check program

let app =
  App.v ~name:"mis" ~category:App.Graph
    ~description:"maximal independent set (Luby's algorithm)" ~seed:0x315
    make
