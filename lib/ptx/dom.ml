(* Dominators and post-dominators via the Cooper–Harvey–Kennedy
   iterative algorithm ("A Simple, Fast Dominance Algorithm").

   Post-dominators are computed on the reversed CFG augmented with a
   virtual exit node that succeeds every exit block; the immediate
   post-dominator of a divergent branch gives the SIMT reconvergence
   point used by the simulator. *)

type t = {
  idom : int array; (* immediate dominator per node; -1 if unreachable *)
}

(* Generic CHK over a graph with [n] nodes, an [entry], and edge
   functions.  Returns idom with idom.(entry) = entry. *)
let compute ~n ~entry ~succs ~preds =
  let rpo_index = Array.make n (-1) in
  let order = ref [] in
  let visited = Array.make n false in
  let rec dfs v =
    if not visited.(v) then begin
      visited.(v) <- true;
      List.iter dfs (succs v);
      order := v :: !order
    end
  in
  dfs entry;
  let rpo = Array.of_list !order in
  Array.iteri (fun i v -> rpo_index.(v) <- i) rpo;
  let idom = Array.make n (-1) in
  idom.(entry) <- entry;
  let rec intersect b1 b2 =
    if b1 = b2 then b1
    else if rpo_index.(b1) > rpo_index.(b2) then intersect idom.(b1) b2
    else intersect b1 idom.(b2)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun b ->
        if b <> entry then begin
          let processed =
            List.filter (fun p -> idom.(p) <> -1 && rpo_index.(p) >= 0)
              (preds b)
          in
          match processed with
          | [] -> ()
          | first :: rest ->
              let new_idom = List.fold_left intersect first rest in
              if idom.(b) <> new_idom then begin
                idom.(b) <- new_idom;
                changed := true
              end
        end)
      rpo
  done;
  { idom }

let dominators (cfg : Cfg.t) =
  let n = Cfg.nblocks cfg in
  compute ~n ~entry:0
    ~succs:(fun b -> (Cfg.block cfg b).Cfg.succs)
    ~preds:(fun b -> (Cfg.block cfg b).Cfg.preds)

(* Node [n] is the virtual exit. *)
let post_dominators (cfg : Cfg.t) =
  let n = Cfg.nblocks cfg in
  let exits = Cfg.exit_blocks cfg in
  let succs b =
    if b = n then List.map (fun e -> e) exits
    else (Cfg.block cfg b).Cfg.preds
  in
  let preds b =
    if b = n then []
    else
      let fwd = (Cfg.block cfg b).Cfg.succs in
      if List.mem b exits then n :: fwd else fwd
  in
  compute ~n:(n + 1) ~entry:n ~succs ~preds

let idom t b = if t.idom.(b) = b then None else Some t.idom.(b)

let dominates t a b =
  let rec go b = if b = a then true else if t.idom.(b) = b || t.idom.(b) = -1 then false else go t.idom.(b) in
  a = b || go b

(* Reconvergence pc for the (divergent) branch at [pc]: the first pc of
   the branch block's immediate post-dominator.  [None] when the branch
   only reconverges at kernel exit. *)
let reconvergence_pc (cfg : Cfg.t) (pdom : t) pc =
  let b = Cfg.block_of_pc cfg pc in
  let virt = Cfg.nblocks cfg in
  let ip = pdom.idom.(b) in
  if ip = -1 || ip = virt then None else Some (Cfg.block cfg ip).Cfg.first
