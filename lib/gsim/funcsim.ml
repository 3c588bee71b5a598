(* Functional (trace-based) simulator.

   Executes a launch without timing, in one of three roles:

   - the full model ([run_into]) records the event counts the paper
     measured on real hardware with the CUDA profiler (Table I,
     Table III, Figs 1 and 9) and the address-trace locality metrics
     (Figs 10–12): per-128B-block access counts, the set of CTAs
     touching each block, and the derived cold-miss /
     inter-CTA-sharing / CTA-distance statistics;
   - count-only ([count_requests]) returns the launch's coalesced
     global-load requests by class, which is all the warmup pre-pass
     reads;
   - execute-only ([execute]) runs the launch for its memory effects
     alone, to replay the launches a timing run skips.

   CTAs run to completion one at a time (warps round-robin between
   barriers), each on the SM [Config.home_sm] gives it, so the per-SM
   L1s (the timing model's [Cache], probed with [Cache.touch]) see the
   same working sets as the timing model's.  All three roles drive the
   same CTA loop ([exec_cta]) and differ only in what they do with each
   memory op, so they execute in the same order and leave the same
   memory image: atomics and racing stores make that image depend on
   the order, and iterative apps pick their next launch from it. *)

type cls = Dataflow.Classify.load_class

(* Per-128B-block record for the locality study.  [bl_ctas] is kept as
   a sorted list of distinct linearized CTA ids. *)
type block_info = {
  mutable bl_count : int;
  mutable bl_ctas : int list;
  mutable bl_nctas : int;
}

type t = {
  cfg : Config.t;
  mutable warp_insts : int;
  mutable thread_insts : int;
  gld_warps : int array; (* D / N warp-level global loads *)
  gld_requests : int array; (* coalesced requests *)
  gld_active_threads : int array;
  gld_warps_by_pc : (string * int, int) Hashtbl.t; (* (kernel, pc) -> warps *)
  gld_requests_by_pc : (string * int, int) Hashtbl.t;
  mutable shared_load_warps : int;
  mutable global_store_warps : int;
  mutable atom_warps : int;
  blocks : (int, block_info) Hashtbl.t;
  mutable block_accesses : int; (* total load requests to global blocks *)
  l1s : Cache.t array;
  l2 : Cache.t;
  mutable l2_queries : int; (* line-granularity queries *)
  mutable l2_sector_queries : int; (* 32B-sector granularity, as the
                                      CUDA profiler counts them *)
  mutable l2_hits : int;
  mutable ctas_run : int;
  mutable capped : bool; (* stopped at the instruction cap *)
}

let cls_index = Stats.cls_index

let create cfg =
  {
    cfg;
    warp_insts = 0;
    thread_insts = 0;
    gld_warps = Array.make 2 0;
    gld_requests = Array.make 2 0;
    gld_active_threads = Array.make 2 0;
    gld_warps_by_pc = Hashtbl.create 32;
    gld_requests_by_pc = Hashtbl.create 32;
    shared_load_warps = 0;
    global_store_warps = 0;
    atom_warps = 0;
    blocks = Hashtbl.create (1 lsl 16);
    block_accesses = 0;
    l1s =
      Array.init cfg.Config.n_sms (fun _ ->
          Cache.create ~sets:cfg.Config.l1_sets ~ways:cfg.Config.l1_ways
            ~line_size:cfg.Config.line_size ~mshr_entries:0 ~mshr_max_merge:0);
    l2 =
      Cache.create
        ~sets:(cfg.Config.l2_sets * cfg.Config.n_mem_partitions)
        ~ways:cfg.Config.l2_ways ~line_size:cfg.Config.line_size
        ~mshr_entries:0 ~mshr_max_merge:0;
    l2_queries = 0;
    l2_sector_queries = 0;
    l2_hits = 0;
    ctas_run = 0;
    capped = false;
  }

let rec insert_sorted x = function
  | [] -> [ x ]
  | y :: rest as l ->
      if x = y then l
      else if x < y then x :: l
      else y :: insert_sorted x rest

let record_block t ~cta la =
  t.block_accesses <- t.block_accesses + 1;
  match Hashtbl.find_opt t.blocks la with
  | Some b ->
      b.bl_count <- b.bl_count + 1;
      if not (List.mem cta b.bl_ctas) then begin
        b.bl_ctas <- insert_sorted cta b.bl_ctas;
        b.bl_nctas <- b.bl_nctas + 1
      end
  | None ->
      Hashtbl.add t.blocks la { bl_count = 1; bl_ctas = [ cta ]; bl_nctas = 1 }

let record_mem t ~launch ~sm ~cta (m : Warp.mem_op) =
  let cfg = t.cfg in
  match (m.Warp.m_space, m.Warp.m_kind) with
  | Ptx.Types.Global, Warp.Load | Ptx.Types.Global, Warp.Atomic ->
      if m.Warp.m_kind = Warp.Atomic then t.atom_warps <- t.atom_warps + 1;
      let cls = Launch.load_class launch m.Warp.m_pc in
      let i = cls_index cls in
      let lines =
        Coalesce.lines ~line_size:cfg.Config.line_size ~mask:m.Warp.m_mask
          ~addrs:m.Warp.m_addrs
      in
      t.gld_warps.(i) <- t.gld_warps.(i) + 1;
      t.gld_requests.(i) <- t.gld_requests.(i) + List.length lines;
      t.gld_active_threads.(i) <-
        t.gld_active_threads.(i) + Warp.popcount m.Warp.m_mask;
      let pc_key =
        (launch.Launch.kernel.Ptx.Kernel.kname, m.Warp.m_pc)
      in
      Hashtbl.replace t.gld_warps_by_pc pc_key
        (1 + Option.value ~default:0 (Hashtbl.find_opt t.gld_warps_by_pc pc_key));
      Hashtbl.replace t.gld_requests_by_pc pc_key
        (List.length lines
        + Option.value ~default:0 (Hashtbl.find_opt t.gld_requests_by_pc pc_key));
      (* distinct 32B sectors touched per line (the profiler's
         sector-query granularity) *)
      let sectors_of la =
        let seen = ref 0 in
        Warp.iter_active m.Warp.m_mask (fun lane ->
            let a = m.Warp.m_addrs.(lane) in
            if a / cfg.Config.line_size * cfg.Config.line_size = la then
              seen := !seen lor (1 lsl (a mod cfg.Config.line_size / 32)));
        Warp.popcount !seen
      in
      List.iter
        (fun la ->
          record_block t ~cta la;
          if not (Cache.touch t.l1s.(sm) ~line_addr:la) then begin
            t.l2_queries <- t.l2_queries + 1;
            t.l2_sector_queries <- t.l2_sector_queries + sectors_of la;
            if Cache.touch t.l2 ~line_addr:la then t.l2_hits <- t.l2_hits + 1
          end)
        lines
  | Ptx.Types.Global, Warp.Store ->
      t.global_store_warps <- t.global_store_warps + 1
  | Ptx.Types.Shared, Warp.Load -> t.shared_load_warps <- t.shared_load_warps + 1
  | _, _ -> ()

(* Run one CTA to completion: warps advance round-robin, pausing at
   barriers until the whole CTA arrives.  Each memory op goes to
   [on_mem] before its warp steps again; [budget] bounds the warp
   instructions the CTA may execute. *)
let exec_cta ~warp_size ~budget (launch : Launch.t) cta_lin on_mem =
  let cta = Cta.create launch ~warp_size ~cta_lin in
  let n = Cta.n_warps cta in
  let at_barrier = Array.make n false in
  let local_insts = ref 0 in
  let budget_left () = !local_insts < budget in
  let progress = ref true in
  while (not (Cta.all_finished cta)) && !progress && budget_left () do
    progress := false;
    (* release a completed barrier *)
    let waiting = ref 0 and alive = ref 0 in
    Array.iteri
      (fun i w ->
        if not (Warp.finished w) then begin
          incr alive;
          if at_barrier.(i) then incr waiting
        end)
      cta.Cta.warps;
    if !alive > 0 && !waiting = !alive then Array.fill at_barrier 0 n false;
    Array.iteri
      (fun i w ->
        if (not (Warp.finished w)) && (not at_barrier.(i)) && budget_left ()
        then begin
          progress := true;
          let stop = ref false in
          while (not !stop) && budget_left () do
            incr local_insts;
            match Warp.step w with
            | Warp.S_alu _ -> ()
            | Warp.S_mem m -> on_mem m
            | Warp.S_barrier ->
                at_barrier.(i) <- true;
                stop := true
            | Warp.S_exit_partial -> ()
            | Warp.S_exit_warp -> stop := true
          done
        end)
      cta.Cta.warps
  done;
  cta

(* The full model's CTA: [record_mem] observes every memory op, and
   the CTA stops where the launch-wide instruction cap falls. *)
let run_cta t ~launch ~max_warp_insts cta_lin =
  let cfg = t.cfg in
  let sm = Config.home_sm cfg cta_lin in
  let budget =
    if max_warp_insts = 0 then max_int else max_warp_insts - t.warp_insts
  in
  let cta =
    exec_cta ~warp_size:cfg.Config.warp_size ~budget launch cta_lin
      (record_mem t ~launch ~sm ~cta:cta_lin)
  in
  let wi = Array.fold_left (fun a w -> a + w.Warp.warp_insts) 0 cta.Cta.warps in
  let ti =
    Array.fold_left (fun a w -> a + w.Warp.thread_insts) 0 cta.Cta.warps
  in
  t.warp_insts <- t.warp_insts + wi;
  t.thread_insts <- t.thread_insts + ti;
  t.ctas_run <- t.ctas_run + 1;
  if max_warp_insts <> 0 && t.warp_insts >= max_warp_insts then
    t.capped <- true

(* Run one launch, accumulating into [t] (multi-kernel applications
   share one stats object across their launches). *)
let run_into t ?(max_warp_insts = 0) (launch : Launch.t) =
  let n = Launch.n_ctas launch in
  let i = ref 0 in
  while !i < n && not t.capped do
    run_cta t ~launch ~max_warp_insts !i;
    incr i
  done

(* The lean roles run every CTA of the launch, uncapped, and keep no
   state beyond what [on_mem] gathers. *)
let exec_launch cfg (launch : Launch.t) on_mem =
  for cta_lin = 0 to Launch.n_ctas launch - 1 do
    ignore
      (exec_cta ~warp_size:cfg.Config.warp_size ~budget:max_int launch
         cta_lin on_mem)
  done

let count_requests cfg (launch : Launch.t) =
  let line_size = cfg.Config.line_size in
  let requests = Array.make 2 0 in
  exec_launch cfg launch (fun (m : Warp.mem_op) ->
      match (m.Warp.m_space, m.Warp.m_kind) with
      | Ptx.Types.Global, (Warp.Load | Warp.Atomic) ->
          let i = cls_index (Launch.load_class launch m.Warp.m_pc) in
          requests.(i) <-
            requests.(i)
            + Coalesce.count ~line_size ~mask:m.Warp.m_mask
                ~addrs:m.Warp.m_addrs
      | _, _ -> ());
  (requests.(0), requests.(1))

let execute cfg launch = exec_launch cfg launch (fun (_ : Warp.mem_op) -> ())

let run ?(cfg = Config.default) ?(max_warp_insts = 0) (launch : Launch.t) =
  let t = create cfg in
  run_into t ~max_warp_insts launch;
  t

(* ------------- derived metrics ------------- *)

let total_gld_warps t = t.gld_warps.(0) + t.gld_warps.(1)

(* Measured requests per warp for one load instruction. *)
let requests_per_warp_of_pc t ~kernel ~pc =
  match
    ( Hashtbl.find_opt t.gld_warps_by_pc (kernel, pc),
      Hashtbl.find_opt t.gld_requests_by_pc (kernel, pc) )
  with
  | Some w, Some r when w > 0 -> Some (float_of_int r /. float_of_int w)
  | _ -> None

(* Fig 1: fraction of global load warps that are deterministic. *)
let deterministic_fraction t =
  let total = total_gld_warps t in
  if total = 0 then 1.0 else float_of_int t.gld_warps.(0) /. float_of_int total

let requests_per_warp t (c : cls) =
  let i = cls_index c in
  if t.gld_warps.(i) = 0 then 0.0
  else float_of_int t.gld_requests.(i) /. float_of_int t.gld_warps.(i)

let requests_per_active_thread t (c : cls) =
  let i = cls_index c in
  if t.gld_active_threads.(i) = 0 then 0.0
  else float_of_int t.gld_requests.(i) /. float_of_int t.gld_active_threads.(i)

(* Fig 9: shared-memory loads per global load. *)
let shared_per_global t =
  let g = total_gld_warps t in
  if g = 0 then 0.0 else float_of_int t.shared_load_warps /. float_of_int g

(* Fig 10: cold misses = first touches of distinct 128B blocks. *)
let cold_miss_ratio t =
  if t.block_accesses = 0 then 0.0
  else float_of_int (Hashtbl.length t.blocks) /. float_of_int t.block_accesses

let avg_accesses_per_block t =
  let blocks = Hashtbl.length t.blocks in
  if blocks = 0 then 0.0
  else float_of_int t.block_accesses /. float_of_int blocks

(* Fig 11 metrics. *)
type sharing = {
  sh_block_ratio : float; (* blocks touched by >= 2 CTAs / all blocks *)
  sh_access_ratio : float; (* accesses to such blocks / all accesses *)
  sh_avg_ctas : float; (* avg #CTAs per multi-CTA block *)
}

let sharing t =
  let blocks = Hashtbl.length t.blocks in
  let shared_blocks = ref 0 and shared_accesses = ref 0 in
  let cta_sum = ref 0 in
  Hashtbl.iter
    (fun _ b ->
      if b.bl_nctas >= 2 then begin
        incr shared_blocks;
        shared_accesses := !shared_accesses + b.bl_count;
        cta_sum := !cta_sum + b.bl_nctas
      end)
    t.blocks;
  {
    sh_block_ratio =
      (if blocks = 0 then 0.0
       else float_of_int !shared_blocks /. float_of_int blocks);
    sh_access_ratio =
      (if t.block_accesses = 0 then 0.0
       else float_of_int !shared_accesses /. float_of_int t.block_accesses);
    sh_avg_ctas =
      (if !shared_blocks = 0 then 0.0
       else float_of_int !cta_sum /. float_of_int !shared_blocks);
  }

(* Fig 12: histogram of distances between consecutive distinct CTA ids
   (sorted order) over blocks shared by multiple CTAs.  Returns
   distance -> fraction of all recorded pair-distances. *)
let cta_distance_histogram t =
  let hist = Hashtbl.create 64 in
  let total = ref 0 in
  Hashtbl.iter
    (fun _ b ->
      if b.bl_nctas >= 2 then begin
        let rec pairs = function
          | a :: (c :: _ as rest) ->
              let d = c - a in
              Hashtbl.replace hist d
                (1 + Option.value ~default:0 (Hashtbl.find_opt hist d));
              incr total;
              pairs rest
          | [ _ ] | [] -> ()
        in
        pairs b.bl_ctas
      end)
    t.blocks;
  let total = max 1 !total in
  Hashtbl.fold
    (fun d c acc -> (d, float_of_int c /. float_of_int total) :: acc)
    hist []
  |> List.sort compare

(* Table III style counters. *)
type counters = {
  gld_request : int;
  shared_load : int;
  l1_global_load_hit : int;
  l1_global_load_miss : int;
  l2_read_hits : int;
  l2_read_queries : int;
  l2_read_sector_queries : int;
}

(* [record_mem] touches the L1 once per block access, and each L1 miss
   is one L2 query. *)
let counters t =
  {
    gld_request = total_gld_warps t;
    shared_load = t.shared_load_warps;
    l1_global_load_hit = t.block_accesses - t.l2_queries;
    l1_global_load_miss = t.l2_queries;
    l2_read_hits = t.l2_hits;
    l2_read_queries = t.l2_queries;
    l2_read_sector_queries = t.l2_sector_queries;
  }
