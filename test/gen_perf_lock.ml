(* Golden-digest generator for the perf-lock differential suite.

   Runs every row of Perf_lock.rows — each app of the suite, then the
   "iar/<app>" and "warmup/<app>" rows through the timing simulator at
   their pinned configuration, then the "func/<app>" rows through the
   functional simulator — and prints one line per row:

     <key> <stats_md5> <profile_md5> <trace_md5>

   For a timing row the digests cover the full Stats.t JSON document,
   the Profile.t JSON document, and the complete JSONL trace event
   stream; for a func row, the functional counters, the final global
   image and the locality metrics (see perf_lock.ml).  The output is
   committed as test/goldens/perf_lock.golden; test_perf_lock re-runs
   the same configuration and asserts byte-identical digests, so any
   core change that perturbs timing — however slightly — fails loudly.

   Regenerate (only when a timing change is *intended* and reviewed):

     dune exec test/gen_perf_lock.exe > test/goldens/perf_lock.golden *)

let () =
  List.iter
    (fun row ->
      let d = Perf_lock.digest_row row in
      Printf.printf "%s %s %s %s\n" row.Perf_lock.key d.Perf_lock.dg_stats
        d.Perf_lock.dg_profile d.Perf_lock.dg_trace)
    Perf_lock.rows
