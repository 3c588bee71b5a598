(* Perf-lock differential suite: the core-loop optimizations (decode
   precompute, flat warp-slot arrays, batched coalescing)
   must be observably invisible.  Every app of the suite is re-run at
   the pinned perf-lock configuration and its Stats.t JSON, Profile.t
   JSON, and full trace event stream digests are compared against the
   goldens recorded from the pre-optimization core
   (test/goldens/perf_lock.golden); the "iar/<app>" rows do the same
   for spmv and the graph apps under the IAR reorder buffer, and the
   "warmup/<app>" rows for the apps whose warmup pre-pass skips a
   prefix of launches, run with warmup on, and the "func/<app>" rows
   pin every app's uncapped functional walk (counters, final global
   image, locality metrics).  A
   mismatch means a core change perturbed timing — which is either a
   bug or a deliberate model change that must regenerate the goldens
   via gen_perf_lock.exe and justify itself in review. *)

(* read up front: a missing golden file fails the run once *)
let goldens = Perf_lock.read_golden (Perf_lock.golden_path ())

let check_row row =
  let name = row.Perf_lock.key in
  let want =
    match List.assoc_opt name goldens with
    | Some d -> d
    | None -> Alcotest.failf "no golden entry for %s" name
  in
  let got = Perf_lock.digest_row row in
  let c1, c2, c3 = Perf_lock.columns row in
  Alcotest.(check string)
    (name ^ ": " ^ c1 ^ " digest")
    want.Perf_lock.dg_stats got.Perf_lock.dg_stats;
  Alcotest.(check string)
    (name ^ ": " ^ c2 ^ " digest")
    want.Perf_lock.dg_profile got.Perf_lock.dg_profile;
  Alcotest.(check string)
    (name ^ ": " ^ c3 ^ " digest")
    want.Perf_lock.dg_trace got.Perf_lock.dg_trace

let test_covers_suite () =
  Alcotest.(check (list string))
    "golden file covers the whole suite and the iar, warmup and func rows"
    (List.map (fun r -> r.Perf_lock.key) Perf_lock.rows)
    (List.map fst goldens)

let app_cases =
  List.map
    (fun row ->
      Alcotest.test_case row.Perf_lock.key `Slow (fun () -> check_row row))
    Perf_lock.rows

let () =
  Alcotest.run "perf_lock"
    [
      ( "coverage",
        [ Alcotest.test_case "suite coverage" `Quick test_covers_suite ] );
      ("byte-identity", app_cases);
    ]
