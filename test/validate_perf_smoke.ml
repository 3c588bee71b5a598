(* @perf-smoke: a few perf-lock rows through the optimized simulators,
   asserting their golden digests.  A sub-second canary wired into
   `dune runtest` so a perturbation is caught even when the full
   (Slow-tagged) test_perf_lock sweep is skipped.

   Usage: validate_perf_smoke.exe GOLDEN_FILE [KEY...]
   (default KEY: 2mm; e.g. "func/2mm" checks the functional walk) *)

let () =
  let golden_path =
    if Array.length Sys.argv > 1 then Sys.argv.(1)
    else "goldens/perf_lock.golden"
  in
  let keys =
    if Array.length Sys.argv > 2 then
      Array.to_list (Array.sub Sys.argv 2 (Array.length Sys.argv - 2))
    else [ "2mm" ]
  in
  let golden = Perf_lock.read_golden golden_path in
  let fail = ref false in
  List.iter
    (fun key ->
      match (List.assoc_opt key golden, Perf_lock.find_row key) with
      | None, _ ->
          Printf.eprintf "perf-smoke: no golden entry for %s\n" key;
          fail := true
      | _, None ->
          Printf.eprintf "perf-smoke: no perf-lock row %s\n" key;
          fail := true
      | Some want, Some row ->
          let got = Perf_lock.digest_row row in
          let c1, c2, c3 = Perf_lock.columns row in
          let check label w g =
            if w <> g then begin
              Printf.eprintf
                "perf-smoke: %s %s digest mismatch: want %s got %s\n" key label
                w g;
              fail := true
            end
          in
          check c1 want.Perf_lock.dg_stats got.Perf_lock.dg_stats;
          check c2 want.Perf_lock.dg_profile got.Perf_lock.dg_profile;
          check c3 want.Perf_lock.dg_trace got.Perf_lock.dg_trace;
          if not !fail then
            Printf.printf "perf-smoke: %s digests match goldens\n" key)
    keys;
  if !fail then exit 1
