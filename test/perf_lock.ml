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
   pre-pass and the functional replay of the launches it skips. *)

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

type row = { key : string; app : string; cfg : Gsim.Config.t; warmup : bool }

(* Every golden row: one Baseline row per suite app, keyed by its name,
   then the "iar/<app>" rows, then the "warmup/<app>" rows. *)
let rows =
  List.map
    (fun (a : Workloads.App.t) ->
      let name = a.Workloads.App.name in
      { key = name; app = name; cfg = cap_cfg; warmup = false })
    Workloads.Suite.all
  @ List.map
      (fun app -> { key = "iar/" ^ app; app; cfg = iar_cfg; warmup = false })
      iar_apps
  @ List.map
      (fun app -> { key = "warmup/" ^ app; app; cfg = cap_cfg; warmup = true })
      warmup_apps

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
