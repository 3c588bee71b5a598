(* The invariant the parallel sweep runner's retry logic relies on: two
   cycle-simulation runs of the same (app, scale, config) produce
   byte-identical serialized statistics, so a retried worker reproduces
   the lost result exactly.  Also checks that the JSON layer itself is
   lossless: parse-back followed by re-serialization is the identity on
   the emitted string. *)

let cap = 8_000

let ok = function Ok r -> r | Error e -> raise (Gsim.Sim_error.Error e)

let stats_json app =
  let cfg =
    Gsim.Config.default |> Gsim.Config.with_caps ~max_warp_insts:cap ()
  in
  let a = Workloads.Suite.find app in
  let r = ok (Critload.Runner.run ~cfg ~scale:Workloads.App.Small a) in
  Gsim.Stats_io.Json.to_string
    (Gsim.Stats_io.stats_to_json (Critload.Runner.Report.stats_exn r))

let test_byte_identical app () =
  let first = stats_json app in
  let second = stats_json app in
  Alcotest.(check string)
    (app ^ ": two timing runs serialize identically")
    first second;
  Alcotest.(check bool) "output is non-trivial" true
    (String.length first > 100)

let test_json_roundtrip_lossless app () =
  let text = stats_json app in
  let back =
    Gsim.Stats_io.stats_of_json (Gsim.Stats_io.Json.of_string text)
  in
  Alcotest.(check string)
    (app ^ ": of_json . to_json is the identity on the wire format")
    text
    (Gsim.Stats_io.Json.to_string (Gsim.Stats_io.stats_to_json back))

(* an instruction cap marks the run truncated and the flag survives the
   wire format *)
let test_truncated_flag () =
  let cfg = Gsim.Config.default |> Gsim.Config.with_caps ~max_warp_insts:500 () in
  let a = Workloads.Suite.find "bfs" in
  let r =
    ok (Critload.Runner.run ~cfg ~scale:Workloads.App.Small ~warmup:false a)
  in
  let s = Critload.Runner.Report.stats_exn r in
  Alcotest.(check bool) "capped run is marked truncated" true
    s.Gsim.Stats.truncated;
  let text =
    Gsim.Stats_io.Json.to_string (Gsim.Stats_io.stats_to_json s)
  in
  let back = Gsim.Stats_io.stats_of_json (Gsim.Stats_io.Json.of_string text) in
  Alcotest.(check bool) "flag round-trips through JSON" true
    back.Gsim.Stats.truncated

(* every stats document since the sim tag was introduced carries the
   flag, so one without it is damaged, not a clean finish *)
let test_truncated_absent_rejected () =
  let module Json = Gsim.Stats_io.Json in
  let stripped =
    match Gsim.Stats_io.stats_to_json (Gsim.Stats.create ()) with
    | Json.Obj fields ->
        Json.Obj (List.filter (fun (k, _) -> k <> "truncated") fields)
    | _ -> Alcotest.fail "stats document is not an object"
  in
  match Gsim.Stats_io.stats_of_json stripped with
  | _ -> Alcotest.fail "a stats document without truncated decoded"
  | exception Json.Parse_error e ->
      Alcotest.(check bool) ("error names the member: " ^ e) true
        (String.starts_with ~prefix:"truncated: " e)

let () =
  Alcotest.run "determinism"
    [ ( "determinism",
        [ Alcotest.test_case "bfs timing determinism" `Quick
            (test_byte_identical "bfs");
          Alcotest.test_case "spmv timing determinism" `Quick
            (test_byte_identical "spmv");
          Alcotest.test_case "bfs stats JSON lossless" `Quick
            (test_json_roundtrip_lossless "bfs");
          Alcotest.test_case "srad stats JSON lossless" `Quick
            (test_json_roundtrip_lossless "srad");
          Alcotest.test_case "cap sets + round-trips truncated" `Quick
            test_truncated_flag;
          Alcotest.test_case "absent truncated field is rejected" `Quick
            test_truncated_absent_rejected ] ) ]
