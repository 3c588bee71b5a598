(* Machine-readable stats layer.  A deliberately small JSON
   implementation lives here (emitter + recursive-descent parser) so
   sweep results can cross process boundaries without an external
   dependency; converters turn Stats.t, Config.t and classification
   results into deterministic JSON and back. *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Parse_error of string

  (* ---- emitter ---- *)

  let escape buf s =
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'

  (* Shortest decimal rendering that parses back exactly; integral
     floats keep a ".0" so the parser reads them back as floats. *)
  let float_repr f =
    let s = Printf.sprintf "%.12g" f in
    let s = if float_of_string s = f then s else Printf.sprintf "%.17g" f in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'n' || c = 'i') s
    then s
    else s ^ ".0"

  let rec emit buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_repr f)
    | Str s -> escape buf s
    | Arr l ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_char buf ',';
            emit buf v)
          l;
        Buffer.add_char buf ']'
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            escape buf k;
            Buffer.add_char buf ':';
            emit buf v)
          fields;
        Buffer.add_char buf '}'

  let to_string v =
    let buf = Buffer.create 4096 in
    emit buf v;
    Buffer.contents buf

  let to_channel oc v = output_string oc (to_string v)

  (* ---- parser ---- *)

  type state = { text : string; mutable pos : int }

  let fail st msg =
    raise (Parse_error (Printf.sprintf "%s at offset %d" msg st.pos))

  let peek st = if st.pos < String.length st.text then Some st.text.[st.pos] else None

  let rec skip_ws st =
    match peek st with
    | Some (' ' | '\t' | '\n' | '\r') ->
        st.pos <- st.pos + 1;
        skip_ws st
    | _ -> ()

  let expect st c =
    match peek st with
    | Some c' when c' = c -> st.pos <- st.pos + 1
    | _ -> fail st (Printf.sprintf "expected '%c'" c)

  let literal st word value =
    let n = String.length word in
    if
      st.pos + n <= String.length st.text
      && String.sub st.text st.pos n = word
    then begin
      st.pos <- st.pos + n;
      value
    end
    else fail st (Printf.sprintf "expected %s" word)

  let parse_string st =
    expect st '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if st.pos >= String.length st.text then fail st "unterminated string";
      let c = st.text.[st.pos] in
      st.pos <- st.pos + 1;
      match c with
      | '"' -> Buffer.contents buf
      | '\\' -> (
          if st.pos >= String.length st.text then fail st "bad escape";
          let e = st.text.[st.pos] in
          st.pos <- st.pos + 1;
          match e with
          | '"' | '\\' | '/' ->
              Buffer.add_char buf e;
              go ()
          | 'n' ->
              Buffer.add_char buf '\n';
              go ()
          | 'r' ->
              Buffer.add_char buf '\r';
              go ()
          | 't' ->
              Buffer.add_char buf '\t';
              go ()
          | 'b' ->
              Buffer.add_char buf '\b';
              go ()
          | 'f' ->
              Buffer.add_char buf '\012';
              go ()
          | 'u' ->
              if st.pos + 4 > String.length st.text then fail st "bad \\u";
              let hex = String.sub st.text st.pos 4 in
              st.pos <- st.pos + 4;
              let code =
                try int_of_string ("0x" ^ hex)
                with _ -> fail st "bad \\u digits"
              in
              (* only the control-character range we ever emit *)
              if code < 0x80 then Buffer.add_char buf (Char.chr code)
              else fail st "unsupported \\u escape";
              go ()
          | _ -> fail st "unknown escape")
      | c ->
          Buffer.add_char buf c;
          go ()
    in
    go ()

  let parse_number st =
    let start = st.pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while
      st.pos < String.length st.text && is_num_char st.text.[st.pos]
    do
      st.pos <- st.pos + 1
    done;
    let s = String.sub st.text start (st.pos - start) in
    let is_float =
      String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s
    in
    if is_float then
      match float_of_string_opt s with
      | Some f -> Float f
      | None -> fail st "malformed number"
    else
      match int_of_string_opt s with
      | Some i -> Int i
      | None -> fail st "malformed number"

  let rec parse_value st =
    skip_ws st;
    match peek st with
    | None -> fail st "unexpected end of input"
    | Some '{' ->
        expect st '{';
        skip_ws st;
        if peek st = Some '}' then begin
          expect st '}';
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec members () =
            skip_ws st;
            let k = parse_string st in
            skip_ws st;
            expect st ':';
            let v = parse_value st in
            fields := (k, v) :: !fields;
            skip_ws st;
            match peek st with
            | Some ',' ->
                expect st ',';
                members ()
            | Some '}' -> expect st '}'
            | _ -> fail st "expected ',' or '}'"
          in
          members ();
          Obj (List.rev !fields)
        end
    | Some '[' ->
        expect st '[';
        skip_ws st;
        if peek st = Some ']' then begin
          expect st ']';
          Arr []
        end
        else begin
          let items = ref [] in
          let rec elements () =
            let v = parse_value st in
            items := v :: !items;
            skip_ws st;
            match peek st with
            | Some ',' ->
                expect st ',';
                elements ()
            | Some ']' -> expect st ']'
            | _ -> fail st "expected ',' or ']'"
          in
          elements ();
          Arr (List.rev !items)
        end
    | Some '"' -> Str (parse_string st)
    | Some 't' -> literal st "true" (Bool true)
    | Some 'f' -> literal st "false" (Bool false)
    | Some 'n' -> literal st "null" Null
    | Some _ -> parse_number st

  let of_string text =
    let st = { text; pos = 0 } in
    let v = parse_value st in
    skip_ws st;
    if st.pos <> String.length text then fail st "trailing garbage";
    v

  (* ---- schema accessors ---- *)

  let type_name = function
    | Null -> "null"
    | Bool _ -> "bool"
    | Int _ -> "int"
    | Float _ -> "float"
    | Str _ -> "string"
    | Arr _ -> "array"
    | Obj _ -> "object"

  let schema_fail want v =
    raise
      (Parse_error (Printf.sprintf "expected %s, got %s" want (type_name v)))

  let member key = function
    | Obj fields -> ( match List.assoc_opt key fields with
      | Some v -> v
      | None -> Null)
    | v -> schema_fail (Printf.sprintf "object with %S" key) v

  let get_int = function Int i -> i | v -> schema_fail "int" v

  let get_float = function
    | Float f -> f
    | Int i -> float_of_int i
    | v -> schema_fail "number" v

  let get_bool = function Bool b -> b | v -> schema_fail "bool" v
  let get_str = function Str s -> s | v -> schema_fail "string" v
  let get_list = function Arr l -> l | v -> schema_fail "array" v
  let int_field key v = get_int (member key v)
  let str_field key v = get_str (member key v)
end

(* ---- JSONL framing ----

   One compact JSON value per '\n'-terminated line: the framing shared
   by sweep checkpoints, the trace JSONL sink, and the serve daemon's
   socket protocol.  Channel helpers cover blocking endpoints (the
   submit client, worker loops); [Splitter] covers multiplexed
   nonblocking endpoints (the server's select loop), which receive
   arbitrary byte chunks and must recover message boundaries
   themselves. *)

module Framing = struct
  let frame v = Json.to_string v ^ "\n"

  let output oc v =
    Json.to_channel oc v;
    output_char oc '\n'

  let rec input ic =
    match input_line ic with
    | exception End_of_file -> None
    | line -> if String.trim line = "" then input ic else Some (Json.of_string line)

  module Splitter = struct
    (* A byte accumulator that yields complete lines as they form.
       Carried bytes are compacted lazily: [start] advances as lines
       are popped and the buffer is rebuilt only when a feed arrives
       with consumed prefix pending, so steady-state feed/pop cycles
       do one copy per chunk. *)
    type t = { mutable buf : string; mutable start : int }

    let create () = { buf = ""; start = 0 }

    let feed t chunk =
      if String.length chunk > 0 then
        if t.start >= String.length t.buf then begin
          t.buf <- chunk;
          t.start <- 0
        end
        else begin
          t.buf <-
            String.sub t.buf t.start (String.length t.buf - t.start) ^ chunk;
          t.start <- 0
        end

    let pop t =
      match String.index_from_opt t.buf t.start '\n' with
      | None -> None
      | Some nl ->
          let line = String.sub t.buf t.start (nl - t.start) in
          t.start <- nl + 1;
          Some line

    let pending t = String.length t.buf - t.start
  end
end

open Json

(* ---- load class ---- *)

let class_to_json c = Str (Dataflow.Classify.short_class c)

let class_of_json v =
  match get_str v with
  | "D" -> Dataflow.Classify.Deterministic
  | "N" -> Dataflow.Classify.Nondeterministic
  | s -> raise (Parse_error ("unknown load class " ^ s))

(* ---- Stats.t ---- *)

let class_stats_to_json (c : Stats.class_stats) =
  Obj
    [ ("warps", Int c.Stats.cs_warps);
      ("requests", Int c.Stats.cs_requests);
      ("active_threads", Int c.Stats.cs_active_threads);
      ("turnaround", Int c.Stats.cs_turnaround);
      ("unloaded", Int c.Stats.cs_unloaded);
      ("rsrv_prev", Int c.Stats.cs_rsrv_prev);
      ("rsrv_cur", Int c.Stats.cs_rsrv_cur);
      ("wasted_mem", Int c.Stats.cs_wasted_mem);
      ("l1_access", Int c.Stats.cs_l1_access);
      ("l1_miss", Int c.Stats.cs_l1_miss);
      ("l2_access", Int c.Stats.cs_l2_access);
      ("l2_miss", Int c.Stats.cs_l2_miss) ]

let class_stats_of_json v : Stats.class_stats =
  {
    Stats.cs_warps = int_field "warps" v;
    cs_requests = int_field "requests" v;
    cs_active_threads = int_field "active_threads" v;
    cs_turnaround = int_field "turnaround" v;
    cs_unloaded = int_field "unloaded" v;
    cs_rsrv_prev = int_field "rsrv_prev" v;
    cs_rsrv_cur = int_field "rsrv_cur" v;
    cs_wasted_mem = int_field "wasted_mem" v;
    cs_l1_access = int_field "l1_access" v;
    cs_l1_miss = int_field "l1_miss" v;
    cs_l2_access = int_field "l2_access" v;
    cs_l2_miss = int_field "l2_miss" v;
  }

let bucket_to_json nreq (b : Stats.nreq_bucket) =
  Obj
    [ ("nreq", Int nreq);
      ("count", Int b.Stats.nb_count);
      ("turnaround", Int b.Stats.nb_turnaround);
      ("common", Int b.Stats.nb_common);
      ("gap_l1d", Int b.Stats.nb_gap_l1d);
      ("gap_icnt_l2", Int b.Stats.nb_gap_icnt_l2);
      ("gap_l2_icnt", Int b.Stats.nb_gap_l2_icnt) ]

let bucket_of_json v : int * Stats.nreq_bucket =
  ( int_field "nreq" v,
    {
      Stats.nb_count = int_field "count" v;
      nb_turnaround = int_field "turnaround" v;
      nb_common = int_field "common" v;
      nb_gap_l1d = int_field "gap_l1d" v;
      nb_gap_icnt_l2 = int_field "gap_icnt_l2" v;
      nb_gap_l2_icnt = int_field "gap_l2_icnt" v;
    } )

let pc_stats_to_json (ps : Stats.pc_stats) =
  let buckets =
    Hashtbl.fold (fun n b acc -> (n, b) :: acc) ps.Stats.ps_by_nreq []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map (fun (n, b) -> bucket_to_json n b)
  in
  Obj
    [ ("kernel", Str ps.Stats.ps_kernel);
      ("pc", Int ps.Stats.ps_pc);
      ("class", class_to_json ps.Stats.ps_cls);
      ("warps", Int ps.Stats.ps_warps);
      ("requests", Int ps.Stats.ps_requests);
      ("by_nreq", Arr buckets) ]

let pc_stats_of_json v : Stats.pc_stats =
  let by_nreq = Hashtbl.create 8 in
  List.iter
    (fun bv ->
      let n, b = bucket_of_json bv in
      Hashtbl.replace by_nreq n b)
    (get_list (member "by_nreq" v));
  {
    Stats.ps_kernel = str_field "kernel" v;
    ps_pc = int_field "pc" v;
    ps_cls = class_of_json (member "class" v);
    ps_warps = int_field "warps" v;
    ps_requests = int_field "requests" v;
    ps_by_nreq = by_nreq;
  }

let int_array_to_json a = Arr (Array.to_list (Array.map (fun i -> Int i) a))

let int_array_of_json ~len name v =
  let l = List.map get_int (get_list v) in
  if List.length l <> len then
    raise
      (Parse_error
         (Printf.sprintf "field %s: expected %d entries, got %d" name len
            (List.length l)));
  Array.of_list l

let stats_to_json (s : Stats.t) =
  let per_pc =
    Hashtbl.fold (fun _ ps acc -> ps :: acc) s.Stats.per_pc []
    |> List.sort (fun (a : Stats.pc_stats) b ->
           compare (a.Stats.ps_kernel, a.Stats.ps_pc)
             (b.Stats.ps_kernel, b.Stats.ps_pc))
    |> List.map pc_stats_to_json
  in
  Obj
    [ ("cycles", Int s.Stats.cycles);
      ("warp_insts", Int s.Stats.warp_insts);
      ("thread_insts", Int s.Stats.thread_insts);
      ("l1_events", int_array_to_json s.Stats.l1_events);
      ("l1_probe_cycles", Int s.Stats.l1_probe_cycles);
      ("unit_busy", int_array_to_json s.Stats.unit_busy);
      ("shared_loads", Int s.Stats.shared_loads);
      ("global_stores", Int s.Stats.global_stores);
      ( "per_class",
        Arr (Array.to_list (Array.map class_stats_to_json s.Stats.per_class))
      );
      ("per_pc", Arr per_pc);
      ("completed_ctas", Int s.Stats.completed_ctas);
      ("l2_rsrv_fails", Int s.Stats.l2_rsrv_fails);
      ("prefetches_issued", Int s.Stats.prefetches_issued);
      ("truncated", Bool s.Stats.truncated) ]

let stats_of_json v : Stats.t =
  let per_class =
    match get_list (member "per_class" v) with
    | [ d; n ] -> [| class_stats_of_json d; class_stats_of_json n |]
    | l ->
        raise
          (Parse_error
             (Printf.sprintf "per_class: expected 2 entries, got %d"
                (List.length l)))
  in
  let per_pc = Hashtbl.create 64 in
  List.iter
    (fun pv ->
      let ps = pc_stats_of_json pv in
      Hashtbl.replace per_pc (ps.Stats.ps_kernel, ps.Stats.ps_pc) ps)
    (get_list (member "per_pc" v));
  {
    Stats.cycles = int_field "cycles" v;
    warp_insts = int_field "warp_insts" v;
    thread_insts = int_field "thread_insts" v;
    l1_events =
      int_array_of_json ~len:Stats.n_l1_events "l1_events"
        (member "l1_events" v);
    l1_probe_cycles = int_field "l1_probe_cycles" v;
    unit_busy = int_array_of_json ~len:3 "unit_busy" (member "unit_busy" v);
    shared_loads = int_field "shared_loads" v;
    global_stores = int_field "global_stores" v;
    per_class;
    per_pc;
    completed_ctas = int_field "completed_ctas" v;
    l2_rsrv_fails = int_field "l2_rsrv_fails" v;
    prefetches_issued = int_field "prefetches_issued" v;
    (* absent in pre-truncation documents: default to a clean finish *)
    truncated =
      (match member "truncated" v with Null -> false | b -> get_bool b);
  }

(* ---- Config.t ---- *)

(* Memory-system policy tree.  Serialized recursively: a bare string
   for the parameterless baseline, a one-member object keyed by the
   variant otherwise, so adding a policy never disturbs old readers of
   other variants. *)

let load_policy_to_json (p : Config.load_policy) =
  Obj
    [ ("split", Int p.Config.lp_split);
      ("prefetch", Bool p.Config.lp_prefetch);
      ("bypass", Bool p.Config.lp_bypass) ]

let load_policy_of_json pv =
  {
    Config.lp_split = int_field "split" pv;
    lp_prefetch = get_bool (member "prefetch" pv);
    lp_bypass = get_bool (member "bypass" pv);
  }

let pc_policy_to_json ((kernel, pc), (p : Config.load_policy)) =
  Obj
    [ ("kernel", Str kernel);
      ("pc", Int pc);
      ("split", Int p.Config.lp_split);
      ("prefetch", Bool p.Config.lp_prefetch);
      ("bypass", Bool p.Config.lp_bypass) ]

let pc_policy_of_json pv =
  ((str_field "kernel" pv, int_field "pc" pv), load_policy_of_json pv)

let rec mem_policy_to_json (p : Config.policy) =
  match p with
  | Config.Baseline -> Str "baseline"
  | Config.Ndet_flags lp -> Obj [ ("ndet_flags", load_policy_to_json lp) ]
  | Config.Iar ip ->
      Obj
        [ ( "iar",
            Obj
              [ ("entries", Int ip.Config.iar_entries);
                ("max_wait", Int ip.Config.iar_max_wait) ] ) ]
  | Config.Holistic hp ->
      Obj
        [ ( "holistic",
            Obj
              [ ("bypass_sample", Int hp.Config.hp_bypass_sample);
                ("bypass_hit_pct", Int hp.Config.hp_bypass_hit_pct);
                ("protect_ndet", Bool hp.Config.hp_protect_ndet);
                ("throttle_window", Int hp.Config.hp_throttle_window);
                ("throttle_high_pct", Int hp.Config.hp_throttle_high_pct);
                ("throttle_low_pct", Int hp.Config.hp_throttle_low_pct) ] ) ]
  | Config.Per_pc (ps, inner) ->
      Obj
        [ ("per_pc", Arr (List.map pc_policy_to_json ps));
          ("inner", mem_policy_to_json inner) ]

let rec mem_policy_of_json v : Config.policy =
  match v with
  | Str "baseline" -> Config.Baseline
  | Str s -> raise (Parse_error ("unknown policy " ^ s))
  | Obj _ -> (
      match member "ndet_flags" v with
      | Null -> (
          match member "iar" v with
          | Null -> (
              match member "holistic" v with
              | Null -> (
                  match member "per_pc" v with
                  | Null ->
                      raise (Parse_error "policy object with no known variant")
                  | ps ->
                      Config.Per_pc
                        ( List.map pc_policy_of_json (get_list ps),
                          mem_policy_of_json (member "inner" v) ))
              | h ->
                  Config.Holistic
                    {
                      Config.hp_bypass_sample = int_field "bypass_sample" h;
                      hp_bypass_hit_pct = int_field "bypass_hit_pct" h;
                      hp_protect_ndet = get_bool (member "protect_ndet" h);
                      hp_throttle_window = int_field "throttle_window" h;
                      hp_throttle_high_pct = int_field "throttle_high_pct" h;
                      hp_throttle_low_pct = int_field "throttle_low_pct" h;
                    })
          | ip ->
              Config.Iar
                {
                  Config.iar_entries = int_field "entries" ip;
                  iar_max_wait = int_field "max_wait" ip;
                })
      | lp -> Config.Ndet_flags (load_policy_of_json lp))
  | w -> raise (Parse_error ("bad policy: " ^ type_name w))

let config_to_json (c : Config.t) =
  let cta_sched =
    match c.Config.cta_sched with
    | Config.Round_robin -> Str "round_robin"
    | Config.Clustered k -> Obj [ ("clustered", Int k) ]
  in
  let warp_sched =
    match c.Config.warp_sched with
    | Config.Lrr -> Str "lrr"
    | Config.Gto -> Str "gto"
  in
  Obj
    [ ("n_sms", Int c.Config.n_sms);
      ("warp_size", Int c.Config.warp_size);
      ("max_threads_per_sm", Int c.Config.max_threads_per_sm);
      ("max_ctas_per_sm", Int c.Config.max_ctas_per_sm);
      ("shared_mem_per_sm", Int c.Config.shared_mem_per_sm);
      ("l1_sets", Int c.Config.l1_sets);
      ("l1_ways", Int c.Config.l1_ways);
      ("line_size", Int c.Config.line_size);
      ("l1_mshr_entries", Int c.Config.l1_mshr_entries);
      ("l1_mshr_max_merge", Int c.Config.l1_mshr_max_merge);
      ("l1_hit_latency", Int c.Config.l1_hit_latency);
      ("n_mem_partitions", Int c.Config.n_mem_partitions);
      ("l2_sets", Int c.Config.l2_sets);
      ("l2_ways", Int c.Config.l2_ways);
      ("l2_mshr_entries", Int c.Config.l2_mshr_entries);
      ("l2_latency", Int c.Config.l2_latency);
      ("icnt_latency", Int c.Config.icnt_latency);
      ("icnt_buffer_size", Int c.Config.icnt_buffer_size);
      ("l2_input_queue_size", Int c.Config.l2_input_queue_size);
      ("dram_latency", Int c.Config.dram_latency);
      ("dram_interval", Int c.Config.dram_interval);
      ("dram_queue_size", Int c.Config.dram_queue_size);
      ("sp_latency", Int c.Config.sp_latency);
      ("sfu_latency", Int c.Config.sfu_latency);
      ("sfu_initiation", Int c.Config.sfu_initiation);
      ("shared_latency", Int c.Config.shared_latency);
      ("shared_banks", Int c.Config.shared_banks);
      ("max_warp_insts", Int c.Config.max_warp_insts);
      ("max_cycles", Int c.Config.max_cycles);
      ("cta_sched", cta_sched);
      ("warp_sched", warp_sched);
      ("l2_cluster", Int c.Config.l2_cluster);
      ("policy", mem_policy_to_json c.Config.policy) ]

let config_of_json v : Config.t =
  let cta_sched =
    match member "cta_sched" v with
    | Str "round_robin" -> Config.Round_robin
    | Obj _ as o -> Config.Clustered (int_field "clustered" o)
    | w -> raise (Parse_error ("bad cta_sched: " ^ type_name w))
  in
  let warp_sched =
    match member "warp_sched" v with
    | Str "lrr" -> Config.Lrr
    | Str "gto" -> Config.Gto
    | Str s -> raise (Parse_error ("unknown warp_sched " ^ s))
    | w -> raise (Parse_error ("bad warp_sched: " ^ type_name w))
  in
  {
    Config.n_sms = int_field "n_sms" v;
    warp_size = int_field "warp_size" v;
    max_threads_per_sm = int_field "max_threads_per_sm" v;
    max_ctas_per_sm = int_field "max_ctas_per_sm" v;
    shared_mem_per_sm = int_field "shared_mem_per_sm" v;
    l1_sets = int_field "l1_sets" v;
    l1_ways = int_field "l1_ways" v;
    line_size = int_field "line_size" v;
    l1_mshr_entries = int_field "l1_mshr_entries" v;
    l1_mshr_max_merge = int_field "l1_mshr_max_merge" v;
    l1_hit_latency = int_field "l1_hit_latency" v;
    n_mem_partitions = int_field "n_mem_partitions" v;
    l2_sets = int_field "l2_sets" v;
    l2_ways = int_field "l2_ways" v;
    l2_mshr_entries = int_field "l2_mshr_entries" v;
    l2_latency = int_field "l2_latency" v;
    icnt_latency = int_field "icnt_latency" v;
    icnt_buffer_size = int_field "icnt_buffer_size" v;
    l2_input_queue_size = int_field "l2_input_queue_size" v;
    dram_latency = int_field "dram_latency" v;
    dram_interval = int_field "dram_interval" v;
    dram_queue_size = int_field "dram_queue_size" v;
    sp_latency = int_field "sp_latency" v;
    sfu_latency = int_field "sfu_latency" v;
    sfu_initiation = int_field "sfu_initiation" v;
    shared_latency = int_field "shared_latency" v;
    shared_banks = int_field "shared_banks" v;
    max_warp_insts = int_field "max_warp_insts" v;
    max_cycles = int_field "max_cycles" v;
    cta_sched;
    warp_sched;
    l2_cluster = int_field "l2_cluster" v;
    policy = mem_policy_of_json (member "policy" v);
  }

(* ---- classification summaries ---- *)

type load_summary = {
  lo_pc : int;
  lo_space : Ptx.Types.space;
  lo_class : Dataflow.Classify.load_class;
  lo_leaves : string list;
  lo_slice_size : int;
}

type classify_summary = {
  cy_kernel : string;
  cy_static_d : int;
  cy_static_n : int;
  cy_loads : load_summary list;
}

let classify_summary (r : Dataflow.Classify.result) =
  let d, n = Dataflow.Classify.count_global r in
  {
    cy_kernel = r.Dataflow.Classify.res_kernel.Ptx.Kernel.kname;
    cy_static_d = d;
    cy_static_n = n;
    cy_loads =
      List.map
        (fun (li : Dataflow.Classify.load_info) ->
          {
            lo_pc = li.Dataflow.Classify.li_pc;
            lo_space = li.Dataflow.Classify.li_space;
            lo_class = li.Dataflow.Classify.li_class;
            lo_leaves =
              List.map Dataflow.Classify.string_of_leaf
                li.Dataflow.Classify.li_leaves;
            lo_slice_size = li.Dataflow.Classify.li_slice_size;
          })
        r.Dataflow.Classify.res_loads;
  }

let load_summary_to_json l =
  Obj
    [ ("pc", Int l.lo_pc);
      ("space", Str (Ptx.Types.string_of_space l.lo_space));
      ("class", class_to_json l.lo_class);
      ("leaves", Arr (List.map (fun s -> Str s) l.lo_leaves));
      ("slice_size", Int l.lo_slice_size) ]

let load_summary_of_json v =
  {
    lo_pc = int_field "pc" v;
    lo_space = Ptx.Types.space_of_string (str_field "space" v);
    lo_class = class_of_json (member "class" v);
    lo_leaves = List.map get_str (get_list (member "leaves" v));
    lo_slice_size = int_field "slice_size" v;
  }

let classify_summary_to_json c =
  Obj
    [ ("kernel", Str c.cy_kernel);
      ("static_d", Int c.cy_static_d);
      ("static_n", Int c.cy_static_n);
      ("loads", Arr (List.map load_summary_to_json c.cy_loads)) ]

let classify_summary_of_json v =
  {
    cy_kernel = str_field "kernel" v;
    cy_static_d = int_field "static_d" v;
    cy_static_n = int_field "static_n" v;
    cy_loads = List.map load_summary_of_json (get_list (member "loads" v));
  }
