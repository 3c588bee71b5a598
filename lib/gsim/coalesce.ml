(* The memory-access coalescer.  Sits in front of the L1 (as in the
   paper's Section VI): the lane addresses of one warp memory
   instruction are grouped into distinct cache-line requests.  A fully
   coalesced warp load touches one line; a worst-case gather touches
   one line per active lane. *)

(* Distinct line addresses touched by the access, in first-lane order.
   Dedup is a linear membership scan of the (at most warp-size long,
   typically 1-2 long) accumulator — cheaper than hashing on the hot
   path and allocation-free beyond the result list itself. *)
let lines ~line_size ~mask ~addrs =
  let out = ref [] in
  let m = ref mask in
  let lane = ref 0 in
  while !m <> 0 do
    if !m land 1 <> 0 then begin
      let la = addrs.(!lane) / line_size * line_size in
      if not (List.memq la !out) then out := la :: !out
    end;
    m := !m lsr 1;
    incr lane
  done;
  List.rev !out

(* [count]'s distinct lines so far: one row for every call, since the
   simulators run on one domain.  A mask has at most [Sys.int_size]
   lanes. *)
let distinct = Array.make Sys.int_size 0

(* [List.length (lines ...)] without the list: a lane counts only when
   its line is not among the distinct lines the earlier active lanes
   found.  One division per lane, as in [lines], and no allocation. *)
let count ~line_size ~mask ~addrs =
  let n = ref 0 in
  let m = ref mask in
  let lane = ref 0 in
  while !m <> 0 do
    if !m land 1 <> 0 then begin
      let line = addrs.(!lane) / line_size in
      let k = ref 0 in
      while !k < !n && distinct.(!k) <> line do
        incr k
      done;
      if !k = !n then begin
        distinct.(!n) <- line;
        incr n
      end
    end;
    m := !m lsr 1;
    incr lane
  done;
  !n

(* Ascending-address ordering of a coalesced line list — the order the
   IAR reorder unit buffers entries in, so same-line requests from
   different warps batch into one probe.  The in-order LD/ST queue
   keeps first-lane order; only the reorder buffer re-sorts. *)
let sort_lines ls = List.sort compare ls

(* Split the lane mask into sub-warps of [width] lanes each — the
   Section X.A warp-splitting ablation.  Returns the per-sub-warp line
   lists, dropping empty sub-warps. *)
let split_lines ~line_size ~width ~mask ~addrs =
  if width <= 0 then [ lines ~line_size ~mask ~addrs ]
  else begin
    let groups = ref [] in
    let lane = ref 0 in
    let nlanes = Array.length addrs in
    while !lane < nlanes do
      let gmask = ref 0 in
      for l = !lane to min (nlanes - 1) (!lane + width - 1) do
        if mask land (1 lsl l) <> 0 then gmask := !gmask lor (1 lsl l)
      done;
      if !gmask <> 0 then
        groups := lines ~line_size ~mask:!gmask ~addrs :: !groups;
      lane := !lane + width
    done;
    List.rev !groups
  end
