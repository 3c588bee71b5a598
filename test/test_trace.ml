(* Unit tests for the trace event layer: sink semantics, JSON
   round-trips of every event constructor, the JSONL / Chrome stream
   sinks, the cache's reservation-fail retry sequence, and an
   end-to-end 2-CTA kernel whose collected event stream must show
   issue -> probe -> return ordering, correct D/N tags, and an MSHR
   merge between distinct CTAs. *)

open Ptx.Types
module B = Ptx.Builder
module Json = Gsim.Stats_io.Json

let d = Dataflow.Classify.Deterministic
let n = Dataflow.Classify.Nondeterministic

(* A cheap distinguishable event for sink bookkeeping tests. *)
let occ c = Gsim.Trace.Ev_occupancy { cycle = c; sm = 0; mshr = 0; ldst_q = 0 }

(* A stream sink that collects every event; the getter returns them in
   emission order. *)
let collector () =
  let got = ref [] in
  (Gsim.Trace.stream (fun e -> got := e :: !got), fun () -> List.rev !got)

(* ---------------- sink plumbing ---------------- *)

let test_enabled () =
  Alcotest.(check bool) "null sink disabled" false
    (Gsim.Trace.enabled (Gsim.Trace.null ()));
  Alcotest.(check bool) "stream sink enabled" true
    (Gsim.Trace.enabled (Gsim.Trace.stream (fun _ -> ())))

let test_stream_sink () =
  let t, events = collector () in
  List.iter (Gsim.Trace.emit t) [ occ 1; occ 2 ];
  Alcotest.(check bool) "stream callback sees every event" true
    (events () = [ occ 1; occ 2 ])

let test_with_muted () =
  let t, events = collector () in
  Gsim.Trace.emit t (occ 1);
  Gsim.Trace.with_muted t (fun () -> Gsim.Trace.emit t (occ 2));
  Gsim.Trace.emit t (occ 3);
  Alcotest.(check bool) "muted emission dropped" true
    (events () = [ occ 1; occ 3 ]);
  (* the sink must be restored even when the muted section raises *)
  (try
     Gsim.Trace.with_muted t (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check bool) "sink restored after exception" true
    (Gsim.Trace.enabled t);
  Gsim.Trace.emit t (occ 4);
  Alcotest.(check bool) "post-exception emission recorded" true
    (events () = [ occ 1; occ 3; occ 4 ])

(* ---------------- JSON round-trips ---------------- *)

(* One literal per constructor, with the variant payloads (classes,
   sides, outcomes, directions, levels) spread across them so every
   encoder branch is exercised. *)
let sample_events : Gsim.Trace.event list =
  [
    Gsim.Trace.Ev_load_issue
      { cycle = 5; sm = 1; cta = 3; warp_slot = 2; kernel = "k"; pc = 24;
        cls = d; active = 32; nreq = 4 };
    Gsim.Trace.Ev_load_issue
      { cycle = 6; sm = 0; cta = 0; warp_slot = 0; kernel = "k2"; pc = 40;
        cls = n; active = 7; nreq = 1 };
    Gsim.Trace.Ev_load_return
      { cycle = 209; sm = 1; cta = 3; kernel = "k"; pc = 24; cls = d;
        nreq = 4; turnaround = 204; level = Gsim.Request.Lvl_dram };
    Gsim.Trace.Ev_load_return
      { cycle = 12; sm = 0; cta = 0; kernel = "k2"; pc = 40; cls = n;
        nreq = 1; turnaround = 6; level = Gsim.Request.Lvl_l1 };
    Gsim.Trace.Ev_load_return
      { cycle = 90; sm = 2; cta = 1; kernel = "k"; pc = 28; cls = n;
        nreq = 2; turnaround = 80; level = Gsim.Request.Lvl_l2 };
    Gsim.Trace.Ev_access
      { cycle = 6; where = Gsim.Trace.S_l1 0; line = 128;
        src = Gsim.Trace.A_load d; outcome = Gsim.Cache.Hit };
    Gsim.Trace.Ev_access
      { cycle = 7; where = Gsim.Trace.S_l2 3; line = 256;
        src = Gsim.Trace.A_load n; outcome = Gsim.Cache.Hit_reserved };
    Gsim.Trace.Ev_access
      { cycle = 8; where = Gsim.Trace.S_l1 1; line = 0;
        src = Gsim.Trace.A_store; outcome = Gsim.Cache.Miss };
    Gsim.Trace.Ev_access
      { cycle = 9; where = Gsim.Trace.S_l1 2; line = 384;
        src = Gsim.Trace.A_prefetch;
        outcome = Gsim.Cache.Rsrv_fail Gsim.Cache.Fail_tags };
    Gsim.Trace.Ev_access
      { cycle = 10; where = Gsim.Trace.S_l1 0; line = 512;
        src = Gsim.Trace.A_load d;
        outcome = Gsim.Cache.Rsrv_fail Gsim.Cache.Fail_mshr };
    Gsim.Trace.Ev_access
      { cycle = 11; where = Gsim.Trace.S_l2 0; line = 640;
        src = Gsim.Trace.A_load n;
        outcome = Gsim.Cache.Rsrv_fail Gsim.Cache.Fail_icnt };
    Gsim.Trace.Ev_mshr_alloc
      { cycle = 12; where = Gsim.Trace.S_l1 2; line = 768; cta = 5 };
    Gsim.Trace.Ev_mshr_merge
      { cycle = 13; where = Gsim.Trace.S_l2 1; line = 768; cta = 4;
        owner_cta = 7 };
    Gsim.Trace.Ev_mshr_free
      { cycle = 14; where = Gsim.Trace.S_l1 0; line = 768; waiters = 3 };
    Gsim.Trace.Ev_icnt_enq
      { cycle = 15; dir = Gsim.Trace.Dir_req; sm = 1; part = 2; line = 896 };
    Gsim.Trace.Ev_icnt_deq
      { cycle = 16; dir = Gsim.Trace.Dir_resp; sm = 1; part = 2; line = 896 };
    Gsim.Trace.Ev_dram_enq { cycle = 17; part = 0; line = 1024; write = true };
    Gsim.Trace.Ev_dram_enq { cycle = 18; part = 1; line = 1152; write = false };
    Gsim.Trace.Ev_dram_deq { cycle = 19; part = 0; line = 1024 };
    Gsim.Trace.Ev_occupancy { cycle = 256; sm = 9; mshr = 17; ldst_q = 3 };
  ]

let test_json_roundtrip () =
  List.iter
    (fun ev ->
      let back = Gsim.Trace.event_of_json (Gsim.Trace.event_to_json ev) in
      Alcotest.(check bool)
        ("round-trips: " ^ Json.to_string (Gsim.Trace.event_to_json ev))
        true (back = ev))
    sample_events

let read_whole file =
  let ic = open_in file in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_jsonl_sink () =
  let file = Filename.temp_file "trace" ".jsonl" in
  let oc = open_out file in
  let t = Gsim.Trace.jsonl_sink oc in
  List.iter (Gsim.Trace.emit t) sample_events;
  close_out oc;
  let back =
    String.split_on_char '\n' (read_whole file)
    |> List.filter (fun l -> l <> "")
    |> List.map (fun l -> Gsim.Trace.event_of_json (Json.of_string l))
  in
  Sys.remove file;
  Alcotest.(check int) "one line per event" (List.length sample_events)
    (List.length back);
  Alcotest.(check bool) "jsonl stream round-trips" true (back = sample_events)

let test_chrome_sink () =
  let file = Filename.temp_file "trace" ".json" in
  let oc = open_out file in
  let t, close_trace = Gsim.Trace.chrome_sink oc in
  List.iter (Gsim.Trace.emit t) sample_events;
  close_trace ();
  close_out oc;
  let doc = Json.of_string (read_whole file) in
  Sys.remove file;
  match doc with
  | Json.Arr items ->
      Alcotest.(check int) "one trace_event per emitted event"
        (List.length sample_events) (List.length items);
      Alcotest.(check bool) "every entry carries a phase tag" true
        (List.for_all
           (fun it ->
             match Json.member "ph" it with Json.Str _ -> true | _ -> false)
           items)
  | _ -> Alcotest.fail "chrome output is not a JSON array"

(* ---------------- access-counting convention ---------------- *)

(* A reservation failure is a retried probe cycle, not an extra access:
   the MSHR-full-then-retry path leaves no state behind, and the retry
   completes as a plain miss once the MSHR frees.  (The 15-app
   reconcile cases in test_profile check that completed L1 load probes
   in the trace equal Stats' per-class accesses.) *)
let test_completed_accesses_convention () =
  let c =
    Gsim.Cache.create ~sets:2 ~ways:2 ~line_size:128 ~mshr_entries:1
      ~mshr_max_merge:4
  in
  let req line =
    Gsim.Request.make ~cta:(-1) ~line_addr:line ~sm_id:0
      ~kind:Gsim.Request.Load ~cls:d ~wl:None
  in
  (* miss A; merge A; B fails twice on the single busy MSHR; after the
     fill B's retry misses; A hits *)
  assert (Gsim.Cache.access_load c ~req:(req 0) ~icnt_ok:true = Gsim.Cache.Miss);
  assert (
    Gsim.Cache.access_load c ~req:(req 0) ~icnt_ok:true
    = Gsim.Cache.Hit_reserved);
  assert (
    Gsim.Cache.access_load c ~req:(req 128) ~icnt_ok:true
    = Gsim.Cache.Rsrv_fail Gsim.Cache.Fail_mshr);
  assert (
    Gsim.Cache.access_load c ~req:(req 128) ~icnt_ok:true
    = Gsim.Cache.Rsrv_fail Gsim.Cache.Fail_mshr);
  ignore (Gsim.Cache.fill c ~line_addr:0);
  assert (
    Gsim.Cache.access_load c ~req:(req 128) ~icnt_ok:true = Gsim.Cache.Miss);
  assert (Gsim.Cache.access_load c ~req:(req 0) ~icnt_ok:true = Gsim.Cache.Hit)

(* ---------------- end-to-end: 2 CTAs, one D and one N load ---------------- *)

(* Each warp performs a deterministic load a[tid.x] (both CTAs touch
   the same line -> inter-CTA MSHR merge on the shared SM) and a
   data-dependent load b[v] whose address comes from the first load's
   value (classified non-deterministic). *)
let traced_kernel () =
  let b =
    B.create ~name:"tk"
      ~params:
        [ Workloads.Kutil.u64 "a"; Workloads.Kutil.u64 "b";
          Workloads.Kutil.u64 "c" ]
      ()
  in
  let ap = B.ld_param b "a" in
  let bp = B.ld_param b "b" in
  let cp = B.ld_param b "c" in
  let v = B.ld b Global U32 (B.at b ~base:ap ~scale:4 B.tid_x) in
  let w = B.ld b Global U32 (B.at b ~base:bp ~scale:4 v) in
  let gtid = B.global_tid b in
  B.st b Global U32 (B.at b ~base:cp ~scale:4 gtid) w;
  B.finish b

let mk_launch () =
  let kernel = traced_kernel () in
  let global = Gsim.Mem.create (1 lsl 16) in
  for i = 0 to 31 do
    Gsim.Mem.set_u32 global (4 * i) (i land 7)
  done;
  Gsim.Launch.create ~kernel ~grid:(2, 1, 1) ~block:(32, 1, 1)
    ~params:[ ("a", 0L); ("b", 4096L); ("c", 8192L) ]
    ~global

(* One SM so both CTAs are co-resident and share an L1. *)
let e2e_cfg = { Gsim.Config.default with n_sms = 1 }

let test_e2e_event_stream () =
  let trace, events = collector () in
  let machine = Gsim.Gpu.run ~cfg:e2e_cfg ~trace (mk_launch ()) in
  let evs = events () in
  let indexed = List.mapi (fun i e -> (i, e)) evs in
  let issues =
    List.filter_map
      (function
        | i, Gsim.Trace.Ev_load_issue { cta; pc; cls; active; _ } ->
            Some (i, cta, pc, cls, active)
        | _ -> None)
      indexed
  in
  let returns =
    List.filter_map
      (function
        | i, Gsim.Trace.Ev_load_return { cta; pc; cls; turnaround; _ } ->
            Some (i, cta, pc, cls, turnaround)
        | _ -> None)
      indexed
  in
  (* 2 CTAs x (one D load + one N load) *)
  Alcotest.(check int) "4 warp loads issued" 4 (List.length issues);
  Alcotest.(check int) "4 warp loads returned" 4 (List.length returns);
  let d_issues = List.filter (fun (_, _, _, c, _) -> c = d) issues in
  let n_issues = List.filter (fun (_, _, _, c, _) -> c = n) issues in
  Alcotest.(check int) "2 deterministic issues" 2 (List.length d_issues);
  Alcotest.(check int) "2 non-deterministic issues" 2 (List.length n_issues);
  let ctas l = List.map (fun (_, cta, _, _, _) -> cta) l |> List.sort compare in
  Alcotest.(check (list int)) "D issues from both CTAs" [ 0; 1 ]
    (ctas d_issues);
  Alcotest.(check (list int)) "N issues from both CTAs" [ 0; 1 ]
    (ctas n_issues);
  let pc_of l = match l with (_, _, pc, _, _) :: _ -> pc | [] -> -1 in
  let d_pc = pc_of d_issues and n_pc = pc_of n_issues in
  Alcotest.(check bool) "both CTAs issue the D load from one pc" true
    (List.for_all (fun (_, _, pc, _, _) -> pc = d_pc) d_issues);
  Alcotest.(check bool) "both CTAs issue the N load from one pc" true
    (List.for_all (fun (_, _, pc, _, _) -> pc = n_pc) n_issues);
  Alcotest.(check bool) "distinct pcs for D and N loads" true (d_pc <> n_pc);
  Alcotest.(check bool) "all 32 lanes active" true
    (List.for_all (fun (_, _, _, _, a) -> a = 32) issues);
  (* ordering per CTA: D issue < N issue (data dependency), and every
     issue precedes its return *)
  let idx_of l cta pc =
    match
      List.find_opt (fun (_, c, p, _, _) -> c = cta && p = pc) l
    with
    | Some (i, _, _, _, _) -> i
    | None -> Alcotest.fail "missing event"
  in
  List.iter
    (fun cta ->
      let di = idx_of issues cta d_pc and ni = idx_of issues cta n_pc in
      let dr = idx_of returns cta d_pc and nr = idx_of returns cta n_pc in
      Alcotest.(check bool) "D value feeds the N address" true (di < ni);
      Alcotest.(check bool) "D issue precedes its return" true (di < dr);
      Alcotest.(check bool) "N issue precedes its return" true (ni < nr))
    [ 0; 1 ];
  Alcotest.(check bool) "turnarounds are positive" true
    (List.for_all (fun (_, _, _, _, ta) -> ta > 0) returns);
  (* both CTAs read the same a[] line: the second probe merges into the
     first CTA's in-flight MSHR entry, so the merge event must carry
     two distinct CTA ids *)
  let l1_merges =
    List.filter_map
      (function
        | Gsim.Trace.Ev_mshr_merge
            { where = Gsim.Trace.S_l1 0; cta; owner_cta; _ } ->
            Some (cta, owner_cta)
        | _ -> None)
      evs
  in
  Alcotest.(check bool) "an inter-CTA L1 merge happened" true
    (List.exists
       (fun (cta, owner) ->
         cta <> owner && cta >= 0 && owner >= 0 && cta <= 1 && owner <= 1)
       l1_merges);
  let l1_outcomes =
    List.filter_map
      (function
        | Gsim.Trace.Ev_access
            { where = Gsim.Trace.S_l1 0; src = Gsim.Trace.A_load c; outcome;
              _ } ->
            Some (c, outcome)
        | _ -> None)
      evs
  in
  Alcotest.(check bool) "the first D probe misses" true
    (List.mem (d, Gsim.Cache.Miss) l1_outcomes);
  Alcotest.(check bool) "the second D probe merges" true
    (List.mem (d, Gsim.Cache.Hit_reserved) l1_outcomes);
  Alcotest.(check bool) "an MSHR allocation carries its CTA" true
    (List.exists
       (function
         | Gsim.Trace.Ev_mshr_alloc { where = Gsim.Trace.S_l1 0; cta; _ } ->
             cta >= 0
         | _ -> false)
       evs);
  Alcotest.(check bool) "occupancy sampled" true
    (List.exists
       (function Gsim.Trace.Ev_occupancy _ -> true | _ -> false)
       evs);
  (* tracing must not perturb the simulation: identical run, null sink *)
  let m0 = Gsim.Gpu.run ~cfg:e2e_cfg (mk_launch ()) in
  let bytes s = Json.to_string (Gsim.Stats_io.stats_to_json s) in
  Alcotest.(check string) "traced stats byte-identical to untraced"
    (bytes m0.Gsim.Gpu.stats)
    (bytes machine.Gsim.Gpu.stats)

let tests =
  [
    Alcotest.test_case "sinks: enabled / null" `Quick test_enabled;
    Alcotest.test_case "sinks: stream callback" `Quick test_stream_sink;
    Alcotest.test_case "sinks: with_muted" `Quick test_with_muted;
    Alcotest.test_case "json: every constructor round-trips" `Quick
      test_json_roundtrip;
    Alcotest.test_case "json: jsonl sink" `Quick test_jsonl_sink;
    Alcotest.test_case "json: chrome sink" `Quick test_chrome_sink;
    Alcotest.test_case "cache: completed-access convention" `Quick
      test_completed_accesses_convention;
    Alcotest.test_case "e2e: 2-CTA D/N event stream" `Quick
      test_e2e_event_stream;
  ]

let () = Alcotest.run "trace" [ ("trace", tests) ]
