(* Profile reducer: folds the Trace event stream into the per-PC and
   per-category derived metrics the paper's figures plot — turnaround
   histograms in log-2 buckets (Figs 5-6), reservation-fail attribution
   by load category (Fig 3), MSHR-merge inter- vs intra-CTA locality
   (Figs 8-9), and per-SM MSHR / LD-ST queue occupancy timelines.

   A profile is an ordinary commutative-monoid accumulator: profiles
   built from disjoint event streams can be [merge]d in any order and
   serialize to identical JSON (the associativity test_profile checks).
   In a parallel sweep each job carries its own profile in its result
   document; nothing merges them. *)

type cls = Dataflow.Classify.load_class

module Json = Stats_io.Json

(* ---- log-2 latency histogram ---- *)

(* Bucket 0 holds latency <= 0; bucket i >= 1 holds [2^(i-1), 2^i);
   the last bucket additionally absorbs everything above 2^22. *)
let n_buckets = 24

let bucket_of_latency lat =
  if lat <= 0 then 0
  else begin
    (* bit length = floor(log2 lat) + 1 *)
    let rec bits acc v = if v = 0 then acc else bits (acc + 1) (v lsr 1) in
    min (n_buckets - 1) (bits 0 lat)
  end

let bucket_lo = function 0 -> 0 | i -> 1 lsl (i - 1)

let bucket_label i =
  if i = 0 then "0"
  else if i = n_buckets - 1 then Printf.sprintf "[%d,inf)" (bucket_lo i)
  else Printf.sprintf "[%d,%d)" (bucket_lo i) (1 lsl i)

(* ---- accumulators ---- *)

let n_fail = 3 (* tags / mshr / icnt, Fig 3's three reservation fails *)

let fail_index = function
  | Cache.Fail_tags -> 0
  | Cache.Fail_mshr -> 1
  | Cache.Fail_icnt -> 2

type class_profile = {
  mutable cp_issues : int; (* warp-level loads issued *)
  mutable cp_returns : int; (* warp-level loads completed *)
  mutable cp_sum_turnaround : int;
  mutable cp_max_turnaround : int;
  cp_hist : int array; (* n_buckets turnaround buckets *)
  mutable cp_l1_hit : int;
  mutable cp_l1_merge : int;
  mutable cp_l1_miss : int;
  cp_l1_fail : int array; (* reservation fails by kind *)
  mutable cp_l2_access : int;
  mutable cp_l2_miss : int;
  cp_l2_fail : int array;
}

let empty_class_profile () =
  {
    cp_issues = 0;
    cp_returns = 0;
    cp_sum_turnaround = 0;
    cp_max_turnaround = 0;
    cp_hist = Array.make n_buckets 0;
    cp_l1_hit = 0;
    cp_l1_merge = 0;
    cp_l1_miss = 0;
    cp_l1_fail = Array.make n_fail 0;
    cp_l2_access = 0;
    cp_l2_miss = 0;
    cp_l2_fail = Array.make n_fail 0;
  }

type pc_profile = {
  pp_kernel : string;
  pp_pc : int;
  pp_cls : cls;
  mutable pp_issues : int;
  mutable pp_returns : int;
  mutable pp_sum_turnaround : int;
  pp_hist : int array;
}

(* Per-SM occupancy timeline sample. *)
type occ_sample = { oc_sm : int; oc_cycle : int; oc_mshr : int; oc_ldst : int }

type t = {
  per_class : class_profile array; (* D, N — Stats.cls_index order *)
  per_pc : (string * int, pc_profile) Hashtbl.t;
  mutable store_ok : int; (* store probes that went downstream *)
  st_fail : int array; (* L1 store reservation fails by kind *)
  mutable l2_store_fail : int;
  mutable prefetch_probes : int;
  mutable prefetch_misses : int;
  (* MSHR merge locality: did the merging request come from the CTA
     that allocated the in-flight entry (intra) or another one (inter)? *)
  mutable l1_merge_intra : int;
  mutable l1_merge_inter : int;
  mutable l2_merge_intra : int;
  mutable l2_merge_inter : int;
  mutable dram_reads : int;
  mutable dram_writes : int;
  mutable icnt_req_enq : int;
  mutable icnt_req_deq : int;
  mutable icnt_resp_enq : int;
  mutable icnt_resp_deq : int;
  mutable occ : occ_sample list; (* reverse emission order *)
}

let create () =
  {
    per_class = [| empty_class_profile (); empty_class_profile () |];
    per_pc = Hashtbl.create 64;
    store_ok = 0;
    st_fail = Array.make n_fail 0;
    l2_store_fail = 0;
    prefetch_probes = 0;
    prefetch_misses = 0;
    l1_merge_intra = 0;
    l1_merge_inter = 0;
    l2_merge_intra = 0;
    l2_merge_inter = 0;
    dram_reads = 0;
    dram_writes = 0;
    icnt_req_enq = 0;
    icnt_req_deq = 0;
    icnt_resp_enq = 0;
    icnt_resp_deq = 0;
    occ = [];
  }

let class_profile t c = t.per_class.(Stats.cls_index c)

let new_pc_profile kernel pc c =
  { pp_kernel = kernel; pp_pc = pc; pp_cls = c; pp_issues = 0;
    pp_returns = 0; pp_sum_turnaround = 0; pp_hist = Array.make n_buckets 0 }

let pc_profile t kernel pc c =
  match Hashtbl.find_opt t.per_pc (kernel, pc) with
  | Some pp -> pp
  | None ->
      let pp = new_pc_profile kernel pc c in
      Hashtbl.add t.per_pc (kernel, pc) pp;
      pp

let add t (ev : Trace.event) =
  match ev with
  | Trace.Ev_load_issue e ->
      (class_profile t e.cls).cp_issues <-
        (class_profile t e.cls).cp_issues + 1;
      let pp = pc_profile t e.kernel e.pc e.cls in
      pp.pp_issues <- pp.pp_issues + 1
  | Trace.Ev_load_return e ->
      let cp = class_profile t e.cls in
      cp.cp_returns <- cp.cp_returns + 1;
      cp.cp_sum_turnaround <- cp.cp_sum_turnaround + e.turnaround;
      if e.turnaround > cp.cp_max_turnaround then
        cp.cp_max_turnaround <- e.turnaround;
      let b = bucket_of_latency e.turnaround in
      cp.cp_hist.(b) <- cp.cp_hist.(b) + 1;
      let pp = pc_profile t e.kernel e.pc e.cls in
      pp.pp_returns <- pp.pp_returns + 1;
      pp.pp_sum_turnaround <- pp.pp_sum_turnaround + e.turnaround;
      pp.pp_hist.(b) <- pp.pp_hist.(b) + 1
  | Trace.Ev_access e -> (
      match (e.where, e.src) with
      | Trace.S_l1 _, Trace.A_load c -> (
          let cp = class_profile t c in
          match e.outcome with
          | Cache.Hit -> cp.cp_l1_hit <- cp.cp_l1_hit + 1
          | Cache.Hit_reserved -> cp.cp_l1_merge <- cp.cp_l1_merge + 1
          | Cache.Miss -> cp.cp_l1_miss <- cp.cp_l1_miss + 1
          | Cache.Rsrv_fail k ->
              let i = fail_index k in
              cp.cp_l1_fail.(i) <- cp.cp_l1_fail.(i) + 1)
      | Trace.S_l1 _, Trace.A_store -> (
          match e.outcome with
          | Cache.Rsrv_fail k ->
              let i = fail_index k in
              t.st_fail.(i) <- t.st_fail.(i) + 1
          | Cache.Hit | Cache.Hit_reserved | Cache.Miss ->
              t.store_ok <- t.store_ok + 1)
      | Trace.S_l1 _, Trace.A_prefetch ->
          t.prefetch_probes <- t.prefetch_probes + 1;
          if e.outcome = Cache.Miss then
            t.prefetch_misses <- t.prefetch_misses + 1
      | Trace.S_l2 _, Trace.A_load c -> (
          let cp = class_profile t c in
          match e.outcome with
          | Cache.Hit | Cache.Hit_reserved ->
              cp.cp_l2_access <- cp.cp_l2_access + 1
          | Cache.Miss ->
              cp.cp_l2_access <- cp.cp_l2_access + 1;
              cp.cp_l2_miss <- cp.cp_l2_miss + 1
          | Cache.Rsrv_fail k ->
              let i = fail_index k in
              cp.cp_l2_fail.(i) <- cp.cp_l2_fail.(i) + 1)
      | Trace.S_l2 _, (Trace.A_store | Trace.A_prefetch) -> (
          match e.outcome with
          | Cache.Rsrv_fail _ -> t.l2_store_fail <- t.l2_store_fail + 1
          | _ -> ()))
  | Trace.Ev_mshr_merge e -> (
      let intra = e.cta >= 0 && e.cta = e.owner_cta in
      match e.where with
      | Trace.S_l1 _ ->
          if intra then t.l1_merge_intra <- t.l1_merge_intra + 1
          else t.l1_merge_inter <- t.l1_merge_inter + 1
      | Trace.S_l2 _ ->
          if intra then t.l2_merge_intra <- t.l2_merge_intra + 1
          else t.l2_merge_inter <- t.l2_merge_inter + 1)
  | Trace.Ev_mshr_alloc _ | Trace.Ev_mshr_free _ -> ()
  | Trace.Ev_icnt_enq e ->
      if e.dir = Trace.Dir_req then t.icnt_req_enq <- t.icnt_req_enq + 1
      else t.icnt_resp_enq <- t.icnt_resp_enq + 1
  | Trace.Ev_icnt_deq e ->
      if e.dir = Trace.Dir_req then t.icnt_req_deq <- t.icnt_req_deq + 1
      else t.icnt_resp_deq <- t.icnt_resp_deq + 1
  | Trace.Ev_dram_enq e ->
      if e.write then t.dram_writes <- t.dram_writes + 1
      else t.dram_reads <- t.dram_reads + 1
  | Trace.Ev_dram_deq _ -> ()
  | Trace.Ev_occupancy e ->
      t.occ <-
        { oc_sm = e.sm; oc_cycle = e.cycle; oc_mshr = e.mshr;
          oc_ldst = e.ldst_q }
        :: t.occ

(* A trace sink that feeds this profile. *)
let sink t = Trace.stream (add t)

(* ---- merge (per-worker / per-SM aggregation) ---- *)

let add_arrays dst src = Array.iteri (fun i v -> dst.(i) <- dst.(i) + v) src

let merge_class ~(dst : class_profile) ~(src : class_profile) =
  dst.cp_issues <- dst.cp_issues + src.cp_issues;
  dst.cp_returns <- dst.cp_returns + src.cp_returns;
  dst.cp_sum_turnaround <- dst.cp_sum_turnaround + src.cp_sum_turnaround;
  dst.cp_max_turnaround <- max dst.cp_max_turnaround src.cp_max_turnaround;
  add_arrays dst.cp_hist src.cp_hist;
  dst.cp_l1_hit <- dst.cp_l1_hit + src.cp_l1_hit;
  dst.cp_l1_merge <- dst.cp_l1_merge + src.cp_l1_merge;
  dst.cp_l1_miss <- dst.cp_l1_miss + src.cp_l1_miss;
  add_arrays dst.cp_l1_fail src.cp_l1_fail;
  dst.cp_l2_access <- dst.cp_l2_access + src.cp_l2_access;
  dst.cp_l2_miss <- dst.cp_l2_miss + src.cp_l2_miss;
  add_arrays dst.cp_l2_fail src.cp_l2_fail

let merge ~dst ~src =
  Array.iteri
    (fun i s -> merge_class ~dst:dst.per_class.(i) ~src:s)
    src.per_class;
  Hashtbl.iter
    (fun key (sp : pc_profile) ->
      match Hashtbl.find_opt dst.per_pc key with
      | None ->
          Hashtbl.add dst.per_pc key
            { sp with pp_hist = Array.copy sp.pp_hist }
      | Some dp ->
          dp.pp_issues <- dp.pp_issues + sp.pp_issues;
          dp.pp_returns <- dp.pp_returns + sp.pp_returns;
          dp.pp_sum_turnaround <- dp.pp_sum_turnaround + sp.pp_sum_turnaround;
          add_arrays dp.pp_hist sp.pp_hist)
    src.per_pc;
  dst.store_ok <- dst.store_ok + src.store_ok;
  add_arrays dst.st_fail src.st_fail;
  dst.l2_store_fail <- dst.l2_store_fail + src.l2_store_fail;
  dst.prefetch_probes <- dst.prefetch_probes + src.prefetch_probes;
  dst.prefetch_misses <- dst.prefetch_misses + src.prefetch_misses;
  dst.l1_merge_intra <- dst.l1_merge_intra + src.l1_merge_intra;
  dst.l1_merge_inter <- dst.l1_merge_inter + src.l1_merge_inter;
  dst.l2_merge_intra <- dst.l2_merge_intra + src.l2_merge_intra;
  dst.l2_merge_inter <- dst.l2_merge_inter + src.l2_merge_inter;
  dst.dram_reads <- dst.dram_reads + src.dram_reads;
  dst.dram_writes <- dst.dram_writes + src.dram_writes;
  dst.icnt_req_enq <- dst.icnt_req_enq + src.icnt_req_enq;
  dst.icnt_req_deq <- dst.icnt_req_deq + src.icnt_req_deq;
  dst.icnt_resp_enq <- dst.icnt_resp_enq + src.icnt_resp_enq;
  dst.icnt_resp_deq <- dst.icnt_resp_deq + src.icnt_resp_deq;
  dst.occ <- src.occ @ dst.occ

(* ---- derived metrics ---- *)

let l1_loads t c =
  let cp = class_profile t c in
  cp.cp_l1_hit + cp.cp_l1_merge + cp.cp_l1_miss

(* Occupancy samples in deterministic (cycle, sm) order regardless of
   merge order. *)
let occ_sorted t =
  List.sort
    (fun a b ->
      match compare a.oc_cycle b.oc_cycle with
      | 0 -> compare a.oc_sm b.oc_sm
      | c -> c)
    t.occ

(* ---- JSON (rides stats_io through the parsweep pipeline) ---- *)

open Stats_io.Codec

let class_codec =
  obj
    [ field "issues" int (fun c -> c.cp_issues)
        (fun c x -> c.cp_issues <- x; c);
      field "returns" int (fun c -> c.cp_returns)
        (fun c x -> c.cp_returns <- x; c);
      field "sum_turnaround" int (fun c -> c.cp_sum_turnaround)
        (fun c x -> c.cp_sum_turnaround <- x; c);
      field "max_turnaround" int (fun c -> c.cp_max_turnaround)
        (fun c x -> c.cp_max_turnaround <- x; c);
      field "hist" (int_array n_buckets) (fun c -> c.cp_hist)
        (fun c x -> { c with cp_hist = x });
      field "l1_hit" int (fun c -> c.cp_l1_hit)
        (fun c x -> c.cp_l1_hit <- x; c);
      field "l1_merge" int (fun c -> c.cp_l1_merge)
        (fun c x -> c.cp_l1_merge <- x; c);
      field "l1_miss" int (fun c -> c.cp_l1_miss)
        (fun c x -> c.cp_l1_miss <- x; c);
      field "l1_fail" (int_array n_fail) (fun c -> c.cp_l1_fail)
        (fun c x -> { c with cp_l1_fail = x });
      field "l2_access" int (fun c -> c.cp_l2_access)
        (fun c x -> c.cp_l2_access <- x; c);
      field "l2_miss" int (fun c -> c.cp_l2_miss)
        (fun c x -> c.cp_l2_miss <- x; c);
      field "l2_fail" (int_array n_fail) (fun c -> c.cp_l2_fail)
        (fun c x -> { c with cp_l2_fail = x }) ]
    empty_class_profile

let pc_codec =
  obj
    [ field "kernel" string (fun p -> p.pp_kernel)
        (fun p x -> { p with pp_kernel = x });
      field "pc" int (fun p -> p.pp_pc) (fun p x -> { p with pp_pc = x });
      field "cls" load_class (fun p -> p.pp_cls)
        (fun p x -> { p with pp_cls = x });
      field "issues" int (fun p -> p.pp_issues)
        (fun p x -> p.pp_issues <- x; p);
      field "returns" int (fun p -> p.pp_returns)
        (fun p x -> p.pp_returns <- x; p);
      field "sum_turnaround" int (fun p -> p.pp_sum_turnaround)
        (fun p x -> p.pp_sum_turnaround <- x; p);
      field "hist" (int_array n_buckets) (fun p -> p.pp_hist)
        (fun p x -> { p with pp_hist = x }) ]
    (fun () -> new_pc_profile "" 0 Dataflow.Classify.Deterministic)

(* A sample is the array [cycle, sm, mshr, ldst].  Samples go out in
   (cycle, sm) order and [t.occ] holds them newest first, so the decoder
   reverses as it reads. *)
let occupancy =
  let sample s =
    Json.Arr
      [ Json.Int s.oc_cycle; Json.Int s.oc_sm; Json.Int s.oc_mshr;
        Json.Int s.oc_ldst ]
  in
  let of_sample v =
    match Json.get_list v with
    | [ c; sm; m; l ] ->
        { oc_cycle = Json.get_int c; oc_sm = Json.get_int sm;
          oc_mshr = Json.get_int m; oc_ldst = Json.get_int l }
    | l ->
        raise
          (Json.Parse_error
             (Printf.sprintf "expected 4 entries, got %d" (List.length l)))
  in
  {
    enc = (fun samples -> Json.Arr (List.map sample samples));
    dec = (fun v -> List.rev_map of_sample (Json.get_list v));
  }

let codec =
  obj
    [ tag "schema" "critload-profile-v1";
      field "class_d" class_codec (fun t -> t.per_class.(0))
        (fun t x -> t.per_class.(0) <- x; t);
      field "class_n" class_codec (fun t -> t.per_class.(1))
        (fun t x -> t.per_class.(1) <- x; t);
      field "per_pc"
        (table ~size:64
           (map snd (fun p -> ((p.pp_kernel, p.pp_pc), p)) pc_codec))
        (fun t -> t.per_pc)
        (fun t x -> { t with per_pc = x });
      field "store_ok" int (fun t -> t.store_ok)
        (fun t x -> t.store_ok <- x; t);
      field "st_fail" (int_array n_fail) (fun t -> t.st_fail)
        (fun t x -> { t with st_fail = x });
      field "l2_store_fail" int (fun t -> t.l2_store_fail)
        (fun t x -> t.l2_store_fail <- x; t);
      field "prefetch_probes" int (fun t -> t.prefetch_probes)
        (fun t x -> t.prefetch_probes <- x; t);
      field "prefetch_misses" int (fun t -> t.prefetch_misses)
        (fun t x -> t.prefetch_misses <- x; t);
      field "l1_merge_intra" int (fun t -> t.l1_merge_intra)
        (fun t x -> t.l1_merge_intra <- x; t);
      field "l1_merge_inter" int (fun t -> t.l1_merge_inter)
        (fun t x -> t.l1_merge_inter <- x; t);
      field "l2_merge_intra" int (fun t -> t.l2_merge_intra)
        (fun t x -> t.l2_merge_intra <- x; t);
      field "l2_merge_inter" int (fun t -> t.l2_merge_inter)
        (fun t x -> t.l2_merge_inter <- x; t);
      field "dram_reads" int (fun t -> t.dram_reads)
        (fun t x -> t.dram_reads <- x; t);
      field "dram_writes" int (fun t -> t.dram_writes)
        (fun t x -> t.dram_writes <- x; t);
      field "icnt_req_enq" int (fun t -> t.icnt_req_enq)
        (fun t x -> t.icnt_req_enq <- x; t);
      field "icnt_req_deq" int (fun t -> t.icnt_req_deq)
        (fun t x -> t.icnt_req_deq <- x; t);
      field "icnt_resp_enq" int (fun t -> t.icnt_resp_enq)
        (fun t x -> t.icnt_resp_enq <- x; t);
      field "icnt_resp_deq" int (fun t -> t.icnt_resp_deq)
        (fun t x -> t.icnt_resp_deq <- x; t);
      field "occupancy" occupancy occ_sorted (fun t x -> t.occ <- x; t) ]
    create

let to_json = codec.enc
let of_json = codec.dec

(* ---- human-readable summary (`critload trace APP --format summary`) ---- *)

let pp_summary ppf t =
  let pr fmt = Format.fprintf ppf fmt in
  let class_block c =
    let cp = class_profile t c in
    pr "%s loads: %d issued, %d returned, avg turnaround %.1f, max %d@."
      (Dataflow.Classify.short_class c) cp.cp_issues cp.cp_returns
      (if cp.cp_returns = 0 then 0.0
       else float_of_int cp.cp_sum_turnaround /. float_of_int cp.cp_returns)
      cp.cp_max_turnaround;
    let total = Array.fold_left ( + ) 0 cp.cp_hist in
    if total > 0 then begin
      pr "  turnaround histogram (cycles):@.";
      Array.iteri
        (fun i n ->
          if n > 0 then
            pr "    %-14s %8d  %5.1f%%@." (bucket_label i) n
              (100.0 *. float_of_int n /. float_of_int total))
        cp.cp_hist
    end;
    pr "  L1: %d hit, %d merge, %d miss; rsrv fails: %d tags, %d mshr, %d icnt@."
      cp.cp_l1_hit cp.cp_l1_merge cp.cp_l1_miss cp.cp_l1_fail.(0)
      cp.cp_l1_fail.(1) cp.cp_l1_fail.(2);
    pr "  L2: %d access, %d miss; rsrv fails: %d tags, %d mshr, %d icnt@."
      cp.cp_l2_access cp.cp_l2_miss cp.cp_l2_fail.(0) cp.cp_l2_fail.(1)
      cp.cp_l2_fail.(2)
  in
  List.iter class_block Dataflow.Classify.load_classes;
  pr "stores: %d accepted; rsrv fails: %d tags, %d mshr, %d icnt; %d L2 fails@."
    t.store_ok t.st_fail.(0) t.st_fail.(1) t.st_fail.(2) t.l2_store_fail;
  let l1m = t.l1_merge_intra + t.l1_merge_inter in
  let l2m = t.l2_merge_intra + t.l2_merge_inter in
  pr "MSHR merges: L1 %d (%d intra-CTA, %d inter-CTA), L2 %d (%d intra, %d inter)@."
    l1m t.l1_merge_intra t.l1_merge_inter l2m t.l2_merge_intra
    t.l2_merge_inter;
  pr "DRAM: %d reads, %d writes; icnt: %d req, %d resp@." t.dram_reads
    t.dram_writes t.icnt_req_enq t.icnt_resp_enq;
  (match occ_sorted t with
  | [] -> ()
  | samples ->
      let by_sm = Hashtbl.create 16 in
      List.iter
        (fun s ->
          let sum, peak, n =
            Option.value (Hashtbl.find_opt by_sm s.oc_sm) ~default:(0, 0, 0)
          in
          Hashtbl.replace by_sm s.oc_sm
            (sum + s.oc_mshr, max peak s.oc_mshr, n + 1))
        samples;
      let sms = Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_sm [] in
      let sms = List.sort compare sms in
      pr "MSHR occupancy (%d samples):@." (List.length samples);
      List.iter
        (fun (sm, (sum, peak, n)) ->
          pr "  SM %2d: avg %5.1f, peak %3d@." sm
            (float_of_int sum /. float_of_int (max 1 n))
            peak)
        sms);
  let hot =
    Hashtbl.fold (fun _ pp acc -> pp :: acc) t.per_pc []
    |> List.sort (fun a b ->
           match compare b.pp_sum_turnaround a.pp_sum_turnaround with
           | 0 -> compare (a.pp_kernel, a.pp_pc) (b.pp_kernel, b.pp_pc)
           | c -> c)
    |> List.filteri (fun i _ -> i < 10)
  in
  if hot <> [] then begin
    pr "hottest loads by total turnaround:@.";
    List.iter
      (fun pp ->
        pr "  %-16s pc %3d %s  %8d returns, avg turnaround %8.1f@."
          pp.pp_kernel pp.pp_pc
          (Dataflow.Classify.short_class pp.pp_cls)
          pp.pp_returns
          (if pp.pp_returns = 0 then 0.0
           else
             float_of_int pp.pp_sum_turnaround /. float_of_int pp.pp_returns))
      hot
  end

let summary_to_string t = Format.asprintf "%a" pp_summary t
