(* Smoke-test validator for `critload sweep` output: parses the JSON
   document back through Stats_io/Parsweep of_json and exits non-zero
   if anything is malformed, failed, or empty, or if a decoded payload
   does not re-encode to its own bytes.  Driven by the runtest smoke
   rule in test/dune against real `sweep --jobs 2` invocations of the
   CLI. *)

module P = Critload.Parsweep
module Json = Gsim.Stats_io.Json

let () =
  let file = Sys.argv.(1) in
  let ic = open_in file in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let doc = Json.of_string text in
  if Json.str_field "schema" doc <> "critload-sweep-v1" then begin
    prerr_endline "validate_sweep: unexpected schema tag";
    exit 1
  end;
  let results = Json.get_list (Json.member "results" doc) in
  if results = [] then begin
    prerr_endline "validate_sweep: empty result set";
    exit 1
  end;
  List.iter
    (fun env ->
      let app = Json.str_field "app" env in
      (match Json.str_field "status" env with
      | "ok" -> ()
      | status ->
          Printf.eprintf "validate_sweep: %s has status %s\n" app status;
          exit 1);
      let result = Json.member "result" env in
      let mode = Json.str_field "mode" env in
      let reencoded =
        match
          List.find_opt
            (fun m -> String.equal (Critload.Runner.mode_name m) mode)
            Critload.Runner.modes
        with
        | Some P.Timing ->
            let t = P.timing_summary_of_json result in
            if t.P.tm_stats.Gsim.Stats.cycles <= 0 then begin
              Printf.eprintf "validate_sweep: %s has no cycles\n" app;
              exit 1
            end;
            P.timing_summary_to_json t
        | Some P.Func ->
            let f = P.func_summary_of_json result in
            if not f.P.fu_check then begin
              Printf.eprintf "validate_sweep: %s failed its host check\n" app;
              exit 1
            end;
            P.func_summary_to_json f
        | None ->
            Printf.eprintf "validate_sweep: %s has unknown mode %s\n" app mode;
            exit 1
      in
      if Json.to_string reencoded <> Json.to_string result then begin
        Printf.eprintf "validate_sweep: %s does not re-encode to its bytes\n"
          app;
        exit 1
      end)
    results;
  Printf.printf "validate_sweep: %s ok (%d results)\n" file
    (List.length results)
