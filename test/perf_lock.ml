(* Shared digest harness for the perf-lock differential suite.

   One pinned run configuration, used identically by the golden
   generator (gen_perf_lock.ml), the full differential test
   (test_perf_lock.ml), and the @perf-smoke single-app check
   (validate_perf_smoke.ml).  The run exercises the production path —
   fast-forward on, tracing and the profile reducer attached — so the
   digests lock the complete observable surface of the cycle core:

     dg_stats    MD5 of the Stats.t JSON document
     dg_profile  MD5 of the Profile.t JSON document
     dg_trace    MD5 of the full JSONL trace event stream

   The instruction cap keeps a 15-app sweep inside test-suite budgets
   while still driving every app through launch, issue, coalescing,
   L1/MSHR, interconnect, L2 and DRAM paths.  Rows run with warmup off
   unless they say otherwise; the "warmup/<app>" rows pin the warmup
   pre-pass and the functional replay of the launches it skips.

   The "func/<app>" rows pin the functional simulator instead: an
   uncapped [Funcsim.run_into] walk of every launch, digested as

     dg_stats    the full model's counters: instruction counts, the
                 Table III counters and the per-pc global-load tables
     dg_profile  the final global-memory image, word by word
     dg_trace    the locality model: every 128B block's access count
                 and CTA set, and the cold-miss, sharing and
                 CTA-distance metrics derived from them

   so the functional executor that both simulators step through is
   pinned without the cycle core in the way. *)

module R = Critload.Runner
module Json = Gsim.Stats_io.Json

let cap_cfg =
  Gsim.Config.default |> Gsim.Config.with_caps ~max_warp_insts:6_000 ()

(* spmv and the graph apps, whose N-class loads go through the IAR
   reorder buffer: their "iar/<app>" rows pin the buffer's selection
   order, which the Baseline rows never reach. *)
let iar_apps = [ "spmv"; "bfs"; "sssp"; "ccl"; "mst"; "mis" ]

let iar_cfg =
  cap_cfg |> Gsim.Config.with_policy (Gsim.Config.Iar Gsim.Config.default_iar)

(* The apps whose Small warmup answer is nonzero: their warmup-on runs
   replay a skipped prefix, so their "warmup/<app>" rows differ from
   their Baseline rows (an app that skips nothing would repeat its
   Baseline row). *)
let warmup_apps = [ "gaus"; "lu"; "mriq"; "srad"; "bfs"; "mst" ]

type row = { key : string; app : string; run : run }

and run = Timing of { cfg : Gsim.Config.t; warmup : bool } | Func

let suite_names =
  List.map (fun (a : Workloads.App.t) -> a.Workloads.App.name) Workloads.Suite.all

(* Every golden row: one Baseline row per suite app, keyed by its name,
   then the "iar/<app>", "warmup/<app>" and "func/<app>" rows. *)
let rows =
  List.map
    (fun app -> { key = app; app; run = Timing { cfg = cap_cfg; warmup = false } })
    suite_names
  @ List.map
      (fun app ->
        { key = "iar/" ^ app; app; run = Timing { cfg = iar_cfg; warmup = false } })
      iar_apps
  @ List.map
      (fun app ->
        { key = "warmup/" ^ app; app; run = Timing { cfg = cap_cfg; warmup = true } })
      warmup_apps
  @ List.map (fun app -> { key = "func/" ^ app; app; run = Func }) suite_names

let find_row key = List.find_opt (fun r -> r.key = key) rows

(* What each of a row's three digests covers, for failure messages. *)
let columns row =
  match row.run with
  | Timing _ -> ("Stats.t JSON", "profile JSON", "trace stream")
  | Func -> ("functional counters", "global image", "locality metrics")

type digests = { dg_stats : string; dg_profile : string; dg_trace : string }

let digest_app ?(cfg = cap_cfg) ?(warmup = false) (app : Workloads.App.t) =
  let buf = Buffer.create (1 lsl 16) in
  let trace =
    Gsim.Trace.stream (fun ev ->
        Buffer.add_string buf (Json.to_string (Gsim.Trace.event_to_json ev));
        Buffer.add_char buf '\n')
  in
  match
    R.run ~cfg ~scale:Workloads.App.Small ~warmup ~profile:true ~trace app
  with
  | Error e ->
      failwith
        (Printf.sprintf "perf_lock: %s failed: %s" app.Workloads.App.name
           (Gsim.Sim_error.to_string e))
  | Ok rep ->
      let stats_doc =
        Json.to_string (Gsim.Stats_io.stats_to_json (R.Report.stats_exn rep))
      in
      let profile_doc =
        match rep.R.Report.profile with
        | Some p -> Json.to_string (Gsim.Profile.to_json p)
        | None -> failwith "perf_lock: profile missing from timing report"
      in
      {
        dg_stats = Digest.to_hex (Digest.string stats_doc);
        dg_profile = Digest.to_hex (Digest.string profile_doc);
        dg_trace = Digest.to_hex (Digest.string (Buffer.contents buf));
      }

(* The final global image, read 64-bit word by word through [Mem] (and
   a byte at a time past the last whole word). *)
let image_digest mem =
  let n = Gsim.Mem.size mem in
  let b = Bytes.create n in
  let words = n / 8 in
  for i = 0 to words - 1 do
    Bytes.set_int64_le b (8 * i) (Gsim.Mem.get_i64 mem (8 * i))
  done;
  for a = 8 * words to n - 1 do
    Bytes.set b a
      (Char.chr (Int64.to_int (Gsim.Mem.load mem Ptx.Types.U8 a)))
  done;
  Digest.to_hex (Digest.bytes b)

(* Floats print as exact hexadecimal so a digest moves with any bit. *)
let hex f = Printf.sprintf "%h" f

let sorted_table tbl =
  List.sort compare (List.of_seq (Hashtbl.to_seq tbl))

let func_counters (fs : Gsim.Funcsim.t) =
  let b = Buffer.create 4096 in
  let p fmt = Printf.bprintf b fmt in
  let ints name a =
    p "%s %s\n" name
      (String.concat " " (Array.to_list (Array.map string_of_int a)))
  in
  let open Gsim.Funcsim in
  p "warp_insts %d thread_insts %d ctas_run %d capped %b\n" fs.warp_insts
    fs.thread_insts fs.ctas_run fs.capped;
  ints "gld_warps" fs.gld_warps;
  ints "gld_requests" fs.gld_requests;
  ints "gld_active_threads" fs.gld_active_threads;
  p "shared_load_warps %d global_store_warps %d atom_warps %d\n"
    fs.shared_load_warps fs.global_store_warps fs.atom_warps;
  let c = counters fs in
  p "gld_request %d shared_load %d l1_hit %d l1_miss %d\n" c.gld_request
    c.shared_load c.l1_global_load_hit c.l1_global_load_miss;
  p "l2_read_hits %d l2_read_queries %d l2_read_sector_queries %d\n"
    c.l2_read_hits c.l2_read_queries c.l2_read_sector_queries;
  List.iter
    (fun ((k, pc), n) -> p "gld_warps_by_pc %s %d %d\n" k pc n)
    (sorted_table fs.gld_warps_by_pc);
  List.iter
    (fun ((k, pc), n) -> p "gld_requests_by_pc %s %d %d\n" k pc n)
    (sorted_table fs.gld_requests_by_pc);
  Digest.to_hex (Digest.string (Buffer.contents b))

let func_locality (fs : Gsim.Funcsim.t) =
  let b = Buffer.create (1 lsl 16) in
  let p fmt = Printf.bprintf b fmt in
  let open Gsim.Funcsim in
  List.iter
    (fun (la, bl) ->
      p "block %d %d %d %s\n" la bl.bl_count bl.bl_nctas
        (String.concat "," (List.map string_of_int bl.bl_ctas)))
    (sorted_table fs.blocks);
  p "block_accesses %d cold_miss %s per_block %s\n" fs.block_accesses
    (hex (cold_miss_ratio fs))
    (hex (avg_accesses_per_block fs));
  let sh = sharing fs in
  p "sharing %s %s %s\n" (hex sh.sh_block_ratio) (hex sh.sh_access_ratio)
    (hex sh.sh_avg_ctas);
  List.iter
    (fun (d, f) -> p "cta_distance %d %s\n" d (hex f))
    (cta_distance_histogram fs);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* An uncapped functional walk of every launch of [app] at Small. *)
let digest_func (app : Workloads.App.t) =
  let run = app.Workloads.App.make Workloads.App.Small in
  let fs = Gsim.Funcsim.create Gsim.Config.default in
  Workloads.App.iter_launches run (fun launch ->
      Gsim.Funcsim.run_into fs launch;
      true);
  {
    dg_stats = func_counters fs;
    dg_profile = image_digest run.Workloads.App.global;
    dg_trace = func_locality fs;
  }

let digest_row row =
  let app = Workloads.Suite.find row.app in
  match row.run with
  | Timing { cfg; warmup } -> digest_app ~cfg ~warmup app
  | Func -> digest_func app

(* Parse a golden file: one "<key> <stats> <profile> <trace>" line per
   row; '#' comments and blank lines ignored. *)
let read_golden path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | exception End_of_file ->
        close_in ic;
        List.rev acc
    | line ->
        let line = String.trim line in
        if line = "" || line.[0] = '#' then go acc
        else
          match String.split_on_char ' ' line with
          | [ app; s; p; t ] ->
              go ((app, { dg_stats = s; dg_profile = p; dg_trace = t }) :: acc)
          | _ ->
              close_in ic;
              failwith
                (Printf.sprintf "perf_lock: malformed golden line: %S" line)
  in
  go []
