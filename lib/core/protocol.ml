(* Wire protocol of the serve daemon: newline-framed JSON objects over
   a Unix-domain socket.  Decoding never raises — every byte here
   arrived from an untrusted peer, so malformed input becomes an
   [Error] the server can answer instead of a crash. *)

module Json = Gsim.Stats_io.Json

let schema = "critload-serve-v1"

(* ---- job specifications ---- *)

let job_to_json (j : Parsweep.job) =
  Json.Obj
    [ ("app", Json.Str j.Parsweep.sj_app);
      ("scale", Json.Str (Workloads.App.string_of_scale j.Parsweep.sj_scale));
      ("label", Json.Str j.Parsweep.sj_label);
      ("mode", Json.Str (Runner.mode_name j.Parsweep.sj_mode));
      ("warmup", Json.Bool j.Parsweep.sj_warmup);
      ("profile", Json.Bool j.Parsweep.sj_profile);
      ("config", Gsim.Stats_io.config_to_json j.Parsweep.sj_cfg) ]

let mode_of_name =
  Gsim.Stats_io.Codec.of_name "mode" Runner.mode_name Runner.modes

let job_of_json v =
  let ( let* ) r f = Result.bind r f in
  let field name decode ~default =
    match Json.member name v with
    | Json.Null -> Ok default
    | x -> (
        match decode x with
        | r -> Ok r
        | exception Json.Parse_error e ->
            Error (Printf.sprintf "bad %S field: %s" name e)
        | exception Invalid_argument e ->
            Error (Printf.sprintf "bad %S field: %s" name e))
  in
  match Json.member "app" v with
  | exception Json.Parse_error _ -> Error "job is not an object"
  | Json.Str app ->
      let* scale =
        field "scale"
          (fun x -> Workloads.App.scale_of_string (Json.get_str x))
          ~default:Workloads.App.Small
      in
      let* label = field "label" Json.get_str ~default:"base" in
      let* mode =
        field "mode"
          (fun x -> mode_of_name (Json.get_str x))
          ~default:Parsweep.Timing
      in
      let* warmup = field "warmup" Json.get_bool ~default:true in
      let* profile = field "profile" Json.get_bool ~default:false in
      let* cfg =
        field "config" Gsim.Stats_io.config_of_json ~default:Gsim.Config.default
      in
      Ok (Parsweep.job ~label ~cfg ~mode ~warmup ~profile ~scale app)
  | Json.Null -> Error "job is missing the \"app\" field"
  | _ -> Error "job \"app\" field is not a string"

(* ---- requests ---- *)

type request = Submit of { id : string; job : Parsweep.job } | Health | Ping

let request_to_json = function
  | Submit { id; job } ->
      Json.Obj
        [ ("schema", Json.Str schema);
          ("op", Json.Str "submit");
          ("id", Json.Str id);
          ("job", job_to_json job) ]
  | Health ->
      Json.Obj [ ("schema", Json.Str schema); ("op", Json.Str "health") ]
  | Ping -> Json.Obj [ ("schema", Json.Str schema); ("op", Json.Str "ping") ]

let request_of_json v =
  match (Json.member "schema" v, Json.member "op" v) with
  | exception Json.Parse_error _ -> Error "request is not an object"
  | Json.Str s, _ when s <> schema ->
      Error (Printf.sprintf "unsupported schema %S (this server speaks %s)" s
               schema)
  | _, Json.Str "submit" -> (
      match Json.member "id" v with
      | Json.Str id -> (
          match job_of_json (Json.member "job" v) with
          | Ok job -> Ok (Submit { id; job })
          | Error e -> Error e)
      | _ -> Error "submit request needs a string \"id\"")
  | _, Json.Str "health" -> Ok Health
  | _, Json.Str "ping" -> Ok Ping
  | _, Json.Str op -> Error (Printf.sprintf "unknown op %S" op)
  | _, _ -> Error "request is missing the \"op\" field"

(* ---- responses ---- *)

type reject_reason = Queue_full | Shutting_down

let reject_reason_to_string = function
  | Queue_full -> "queue_full"
  | Shutting_down -> "shutting_down"

let reject_reason_of_string r =
  List.find_opt
    (fun x -> String.equal (reject_reason_to_string x) r)
    [ Queue_full; Shutting_down ]

type health = {
  h_queued : int;
  h_inflight : int;
  h_clients : int;
  h_workers : int;
  h_alive : int;
  h_accepted : int;
  h_completed : int;
  h_failed : int;
  h_timeouts : int;
  h_rejected : int;
  h_cache_hits : int;
  h_cache_misses : int;
  h_cache_damaged : int;
  h_crashes : int;
  h_restarts : int;
  h_disconnects : int;
  h_worker_peak_rss_kb : int;
}

let empty_health =
  {
    h_queued = 0;
    h_inflight = 0;
    h_clients = 0;
    h_workers = 0;
    h_alive = 0;
    h_accepted = 0;
    h_completed = 0;
    h_failed = 0;
    h_timeouts = 0;
    h_rejected = 0;
    h_cache_hits = 0;
    h_cache_misses = 0;
    h_cache_damaged = 0;
    h_crashes = 0;
    h_restarts = 0;
    h_disconnects = 0;
    h_worker_peak_rss_kb = 0;
  }

(* Field spellings double as the health JSON schema; keep them in sync
   with the README's "Operating the service" table. *)
let health_codec =
  let open Gsim.Stats_io.Codec in
  obj
    [ field "queued" int (fun h -> h.h_queued)
        (fun h x -> { h with h_queued = x });
      field "inflight" int (fun h -> h.h_inflight)
        (fun h x -> { h with h_inflight = x });
      field "clients" int (fun h -> h.h_clients)
        (fun h x -> { h with h_clients = x });
      field "workers" int (fun h -> h.h_workers)
        (fun h x -> { h with h_workers = x });
      field "alive" int (fun h -> h.h_alive)
        (fun h x -> { h with h_alive = x });
      field "accepted" int (fun h -> h.h_accepted)
        (fun h x -> { h with h_accepted = x });
      field "completed" int (fun h -> h.h_completed)
        (fun h x -> { h with h_completed = x });
      field "failed" int (fun h -> h.h_failed)
        (fun h x -> { h with h_failed = x });
      field "timeouts" int (fun h -> h.h_timeouts)
        (fun h x -> { h with h_timeouts = x });
      field "rejected" int (fun h -> h.h_rejected)
        (fun h x -> { h with h_rejected = x });
      field "cache_hits" int (fun h -> h.h_cache_hits)
        (fun h x -> { h with h_cache_hits = x });
      field "cache_misses" int (fun h -> h.h_cache_misses)
        (fun h x -> { h with h_cache_misses = x });
      field "cache_damaged" int (fun h -> h.h_cache_damaged)
        (fun h x -> { h with h_cache_damaged = x });
      field "crashes" int (fun h -> h.h_crashes)
        (fun h x -> { h with h_crashes = x });
      field "restarts" int (fun h -> h.h_restarts)
        (fun h x -> { h with h_restarts = x });
      field "disconnects" int (fun h -> h.h_disconnects)
        (fun h x -> { h with h_disconnects = x });
      field "worker_peak_rss_kb" int (fun h -> h.h_worker_peak_rss_kb)
        (fun h x -> { h with h_worker_peak_rss_kb = x }) ]
    (fun () -> empty_health)

let health_to_json = health_codec.enc
let health_of_json = health_codec.dec

type response =
  | Result of { id : string; payload : Json.t }
  | Job_failed of { id : string; message : string }
  | Job_timeout of { id : string; after : float }
  | Rejected of { id : string; reason : reject_reason; retry_after : float }
  | Health_report of health
  | Pong
  | Error_response of { message : string }

let response_to_json = function
  | Result { id; payload } ->
      Json.Obj
        [ ("type", Json.Str "result");
          ("id", Json.Str id);
          ("result", payload) ]
  | Job_failed { id; message } ->
      Json.Obj
        [ ("type", Json.Str "failed");
          ("id", Json.Str id);
          ("error", Json.Str message) ]
  | Job_timeout { id; after } ->
      Json.Obj
        [ ("type", Json.Str "timeout");
          ("id", Json.Str id);
          ("after", Json.Float after) ]
  | Rejected { id; reason; retry_after } ->
      Json.Obj
        [ ("type", Json.Str "rejected");
          ("id", Json.Str id);
          ("reason", Json.Str (reject_reason_to_string reason));
          ("retry_after", Json.Float retry_after) ]
  | Health_report h ->
      Json.Obj (("type", Json.Str "health") :: [ ("health", health_to_json h) ])
  | Pong -> Json.Obj [ ("type", Json.Str "pong") ]
  | Error_response { message } ->
      Json.Obj [ ("type", Json.Str "error"); ("message", Json.Str message) ]

let response_of_json v =
  let id () =
    match Json.member "id" v with
    | Json.Str id -> Ok id
    | _ -> Error "response is missing the \"id\" field"
  in
  let ( let* ) r f = Result.bind r f in
  match Json.member "type" v with
  | exception Json.Parse_error _ -> Error "response is not an object"
  | Json.Str "result" ->
      let* id = id () in
      Ok (Result { id; payload = Json.member "result" v })
  | Json.Str "failed" ->
      let* id = id () in
      let message =
        match Json.member "error" v with Json.Str m -> m | _ -> "failed"
      in
      Ok (Job_failed { id; message })
  | Json.Str "timeout" ->
      let* id = id () in
      let after =
        match Json.member "after" v with
        | Json.Float f -> f
        | Json.Int i -> float_of_int i
        | _ -> 0.
      in
      Ok (Job_timeout { id; after })
  | Json.Str "rejected" -> (
      let* id = id () in
      match Json.member "reason" v with
      | Json.Str r -> (
          match reject_reason_of_string r with
          | Some reason ->
              let retry_after =
                match Json.member "retry_after" v with
                | Json.Float f -> f
                | Json.Int i -> float_of_int i
                | _ -> 0.1
              in
              Ok (Rejected { id; reason; retry_after })
          | None -> Error (Printf.sprintf "unknown reject reason %S" r))
      | _ -> Error "rejected response is missing the \"reason\" field")
  | Json.Str "health" -> (
      match health_of_json (Json.member "health" v) with
      | h -> Ok (Health_report h)
      | exception Json.Parse_error e -> Error ("bad health payload: " ^ e))
  | Json.Str "pong" -> Ok Pong
  | Json.Str "error" ->
      let message =
        match Json.member "message" v with
        | Json.Str m -> m
        | _ -> "protocol error"
      in
      Ok (Error_response { message })
  | Json.Str t -> Error (Printf.sprintf "unknown response type %S" t)
  | _ -> Error "response is missing the \"type\" field"
