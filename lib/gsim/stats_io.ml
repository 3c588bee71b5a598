(* Machine-readable stats layer.  A deliberately small JSON
   implementation lives here (emitter + recursive-descent parser) so
   sweep results can cross process boundaries without an external
   dependency; field tables turn Stats.t and Config.t into
   deterministic JSON and back. *)

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

  let get_bool = function Bool b -> b | v -> schema_fail "bool" v
  let get_str = function Str s -> s | v -> schema_fail "string" v
  let get_list = function Arr l -> l | v -> schema_fail "array" v
  let int_field key v = get_int (member key v)
  let str_field key v = get_str (member key v)
end

(* ---- field-table codecs ----

   The decoder expects members in table order, the order the encoder
   emits, so a cache hit on serve's hot path decodes without a key
   search; any other order still decodes, one lookup per stray key. *)

module Codec = struct
  type 'a t = { enc : 'a -> Json.t; dec : Json.t -> 'a }

  type 'r field =
    | Field : {
        key : string;
        codec : 'a t;
        get : 'r -> 'a;
        set : 'r -> 'a -> 'r;
      }
        -> 'r field

  let field key codec get set = Field { key; codec; get; set }

  let at key c v =
    try c.dec v
    with Json.Parse_error e -> raise (Json.Parse_error (key ^ ": " ^ e))

  let rec lookup key = function
    | [] -> Json.Null
    | (k, v) :: rest -> if String.equal k key then v else lookup key rest

  let obj fields init =
    let enc r =
      Json.Obj
        (List.fold_right
           (fun (Field f) acc ->
             match f.codec.enc (f.get r) with
             | Json.Null -> acc (* an absent option *)
             | v -> (f.key, v) :: acc)
           fields [])
    in
    let dec = function
      | Json.Obj members ->
          let rec walk r fields next =
            match (fields, next) with
            | [], _ -> r
            | Field f :: fields, (k, v) :: rest when String.equal k f.key ->
                walk (f.set r (at f.key f.codec v)) fields rest
            | Field f :: fields, _ ->
                walk (f.set r (at f.key f.codec (lookup f.key members))) fields
                  next
          in
          walk (init ()) fields members
      | v -> Json.schema_fail "object" v
    in
    { enc; dec }

  let embed get set fields =
    List.map
      (fun (Field f) ->
        Field
          {
            key = f.key;
            codec = f.codec;
            get = (fun r -> f.get (get r));
            set = (fun r x -> set r (f.set (get r) x));
          })
      fields

  let tag key value =
    let codec =
      {
        enc = (fun () -> Json.Str value);
        dec =
          (function
          | Json.Str s when String.equal s value -> ()
          | v -> Json.schema_fail (Printf.sprintf "%S" value) v);
      }
    in
    field key codec (fun _ -> ()) (fun r () -> r)

  let int = { enc = (fun i -> Json.Int i); dec = Json.get_int }
  let bool = { enc = (fun b -> Json.Bool b); dec = Json.get_bool }
  let string = { enc = (fun s -> Json.Str s); dec = Json.get_str }

  let of_name what name all =
    let of_name = Ptx.Types.of_name name all in
    fun s ->
      match of_name s with
      | Some x -> x
      | None -> raise (Json.Parse_error ("unknown " ^ what ^ " " ^ s))

  let enum what name all =
    let of_name = of_name what name all in
    {
      enc = (fun x -> Json.Str (name x));
      dec = (function Json.Str s -> of_name s | v -> Json.schema_fail what v);
    }

  let load_class =
    enum "load class" Dataflow.Classify.short_class
      Dataflow.Classify.load_classes

  let map to_a of_a c =
    { enc = (fun b -> c.enc (to_a b)); dec = (fun v -> of_a (c.dec v)) }

  let list c =
    {
      enc = (fun l -> Json.Arr (List.map c.enc l));
      dec = (fun v -> List.map c.dec (Json.get_list v));
    }

  let option c =
    {
      enc = (function None -> Json.Null | Some x -> c.enc x);
      dec = (function Json.Null -> None | v -> Some (c.dec v));
    }

  let array len c =
    {
      enc =
        (fun a -> Json.Arr (Array.fold_right (fun x l -> c.enc x :: l) a []));
      dec =
        (fun v ->
          let l = Json.get_list v in
          let n = List.length l in
          if n <> len then
            raise
              (Json.Parse_error
                 (Printf.sprintf "expected %d entries, got %d" len n));
          Array.of_list (List.map c.dec l));
    }

  let int_array len = array len int

  let table ~size c =
    {
      enc =
        (fun h ->
          let bindings = Hashtbl.fold (fun k v acc -> (k, v) :: acc) h [] in
          let by_key (a, _) (b, _) = compare a b in
          Json.Arr (List.map c.enc (List.sort by_key bindings)));
      dec =
        (fun v ->
          let h = Hashtbl.create size in
          List.iter
            (fun x ->
              let k, e = c.dec x in
              Hashtbl.replace h k e)
            (Json.get_list v);
          h);
    }
end

(* ---- JSONL framing ----

   One compact JSON value per '\n'-terminated line: the framing of the
   worker pool's pipes and of the serve daemon's socket protocol.  Every
   reader takes byte chunks from a descriptor, and a chunk need not end
   on a message boundary, so [Splitter] recovers the lines. *)

module Framing = struct
  let frame v = Json.to_string v ^ "\n"

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
  end
end

open Codec

(* ---- Stats.t ---- *)

let class_stats =
  let open Stats in
  obj
    [ field "warps" int (fun c -> c.cs_warps) (fun c x -> c.cs_warps <- x; c);
      field "requests" int (fun c -> c.cs_requests)
        (fun c x -> c.cs_requests <- x; c);
      field "active_threads" int (fun c -> c.cs_active_threads)
        (fun c x -> c.cs_active_threads <- x; c);
      field "turnaround" int (fun c -> c.cs_turnaround)
        (fun c x -> c.cs_turnaround <- x; c);
      field "unloaded" int (fun c -> c.cs_unloaded)
        (fun c x -> c.cs_unloaded <- x; c);
      field "rsrv_prev" int (fun c -> c.cs_rsrv_prev)
        (fun c x -> c.cs_rsrv_prev <- x; c);
      field "rsrv_cur" int (fun c -> c.cs_rsrv_cur)
        (fun c x -> c.cs_rsrv_cur <- x; c);
      field "wasted_mem" int (fun c -> c.cs_wasted_mem)
        (fun c x -> c.cs_wasted_mem <- x; c);
      field "l1_access" int (fun c -> c.cs_l1_access)
        (fun c x -> c.cs_l1_access <- x; c);
      field "l1_miss" int (fun c -> c.cs_l1_miss)
        (fun c x -> c.cs_l1_miss <- x; c);
      field "l2_access" int (fun c -> c.cs_l2_access)
        (fun c x -> c.cs_l2_access <- x; c);
      field "l2_miss" int (fun c -> c.cs_l2_miss)
        (fun c x -> c.cs_l2_miss <- x; c) ]
    empty_class_stats

(* One [by_nreq] row: the request count keys the bucket. *)
let nreq_row =
  let open Stats in
  obj
    [ field "nreq" int fst (fun (_, b) n -> (n, b));
      field "count" int (fun (_, b) -> b.nb_count)
        (fun ((_, b) as r) x -> b.nb_count <- x; r);
      field "turnaround" int (fun (_, b) -> b.nb_turnaround)
        (fun ((_, b) as r) x -> b.nb_turnaround <- x; r);
      field "common" int (fun (_, b) -> b.nb_common)
        (fun ((_, b) as r) x -> b.nb_common <- x; r);
      field "gap_l1d" int (fun (_, b) -> b.nb_gap_l1d)
        (fun ((_, b) as r) x -> b.nb_gap_l1d <- x; r);
      field "gap_icnt_l2" int (fun (_, b) -> b.nb_gap_icnt_l2)
        (fun ((_, b) as r) x -> b.nb_gap_icnt_l2 <- x; r);
      field "gap_l2_icnt" int (fun (_, b) -> b.nb_gap_l2_icnt)
        (fun ((_, b) as r) x -> b.nb_gap_l2_icnt <- x; r) ]
    (fun () ->
      ( 0,
        { nb_count = 0; nb_turnaround = 0; nb_common = 0; nb_gap_l1d = 0;
          nb_gap_icnt_l2 = 0; nb_gap_l2_icnt = 0 } ))

let pc_row =
  let open Stats in
  obj
    [ field "kernel" string (fun p -> p.ps_kernel)
        (fun p x -> { p with ps_kernel = x });
      field "pc" int (fun p -> p.ps_pc) (fun p x -> { p with ps_pc = x });
      field "class" load_class (fun p -> p.ps_cls)
        (fun p x -> { p with ps_cls = x });
      field "warps" int (fun p -> p.ps_warps) (fun p x -> p.ps_warps <- x; p);
      field "requests" int (fun p -> p.ps_requests)
        (fun p x -> p.ps_requests <- x; p);
      field "by_nreq" (table ~size:8 nreq_row) (fun p -> p.ps_by_nreq)
        (fun p x -> { p with ps_by_nreq = x }) ]
    (fun () ->
      { ps_kernel = ""; ps_pc = 0; ps_cls = Dataflow.Classify.Deterministic;
        ps_warps = 0; ps_requests = 0; ps_by_nreq = Hashtbl.create 0 })

let stats =
  let open Stats in
  obj
    [ field "cycles" int (fun s -> s.cycles) (fun s x -> s.cycles <- x; s);
      field "warp_insts" int (fun s -> s.warp_insts)
        (fun s x -> s.warp_insts <- x; s);
      field "thread_insts" int (fun s -> s.thread_insts)
        (fun s x -> s.thread_insts <- x; s);
      field "l1_events" (int_array n_l1_events) (fun s -> s.l1_events)
        (fun s x -> { s with l1_events = x });
      field "l1_probe_cycles" int (fun s -> s.l1_probe_cycles)
        (fun s x -> s.l1_probe_cycles <- x; s);
      field "unit_busy" (int_array 3) (fun s -> s.unit_busy)
        (fun s x -> { s with unit_busy = x });
      field "shared_loads" int (fun s -> s.shared_loads)
        (fun s x -> s.shared_loads <- x; s);
      field "global_stores" int (fun s -> s.global_stores)
        (fun s x -> s.global_stores <- x; s);
      field "per_class" (array 2 class_stats) (fun s -> s.per_class)
        (fun s x -> { s with per_class = x });
      field "per_pc"
        (table ~size:64
           (map snd (fun p -> ((p.ps_kernel, p.ps_pc), p)) pc_row))
        (fun s -> s.per_pc)
        (fun s x -> { s with per_pc = x });
      field "completed_ctas" int (fun s -> s.completed_ctas)
        (fun s x -> s.completed_ctas <- x; s);
      field "l2_rsrv_fails" int (fun s -> s.l2_rsrv_fails)
        (fun s x -> s.l2_rsrv_fails <- x; s);
      field "prefetches_issued" int (fun s -> s.prefetches_issued)
        (fun s x -> s.prefetches_issued <- x; s);
      field "truncated" bool (fun s -> s.truncated)
        (fun s x -> s.truncated <- x; s) ]
    create

let stats_to_json = stats.enc
let stats_of_json = stats.dec

(* ---- Config.t ---- *)

let load_policy_fields =
  let open Config in
  [ field "split" int (fun p -> p.lp_split)
      (fun p x -> { p with lp_split = x });
    field "prefetch" bool (fun p -> p.lp_prefetch)
      (fun p x -> { p with lp_prefetch = x });
    field "bypass" bool (fun p -> p.lp_bypass)
      (fun p x -> { p with lp_bypass = x }) ]

let load_policy = obj load_policy_fields (fun () -> Config.no_policy)

(* A per-pc override: the load's (kernel, pc), then its flags. *)
let pc_policy =
  obj
    (field "kernel" string
       (fun ((k, _), _) -> k)
       (fun ((_, pc), p) k -> ((k, pc), p))
    :: field "pc" int
         (fun ((_, pc), _) -> pc)
         (fun ((k, _), p) pc -> ((k, pc), p))
    :: embed snd (fun (load, _) p -> (load, p)) load_policy_fields)
    (fun () -> (("", 0), Config.no_policy))

let iar_params =
  let open Config in
  obj
    [ field "entries" int (fun p -> p.iar_entries)
        (fun p x -> { p with iar_entries = x });
      field "max_wait" int (fun p -> p.iar_max_wait)
        (fun p x -> { p with iar_max_wait = x }) ]
    (fun () -> default_iar)

let holistic_params =
  let open Config in
  obj
    [ field "bypass_sample" int (fun p -> p.hp_bypass_sample)
        (fun p x -> { p with hp_bypass_sample = x });
      field "bypass_hit_pct" int (fun p -> p.hp_bypass_hit_pct)
        (fun p x -> { p with hp_bypass_hit_pct = x });
      field "protect_ndet" bool (fun p -> p.hp_protect_ndet)
        (fun p x -> { p with hp_protect_ndet = x });
      field "throttle_window" int (fun p -> p.hp_throttle_window)
        (fun p x -> { p with hp_throttle_window = x });
      field "throttle_high_pct" int (fun p -> p.hp_throttle_high_pct)
        (fun p x -> { p with hp_throttle_high_pct = x });
      field "throttle_low_pct" int (fun p -> p.hp_throttle_low_pct)
        (fun p x -> { p with hp_throttle_low_pct = x }) ]
    (fun () -> default_holistic)

(* Memory-system policy tree: a bare string for the parameterless
   baseline, an object keyed by the variant otherwise, so adding a
   policy never disturbs readers of the other variants.  A decoder
   dispatches on the first member that names a variant. *)
let rec mem_policy =
  {
    enc =
      (function
      | Config.Baseline -> Json.Str "baseline"
      | Config.Ndet_flags p -> Json.Obj [ ("ndet_flags", load_policy.enc p) ]
      | Config.Iar p -> Json.Obj [ ("iar", iar_params.enc p) ]
      | Config.Holistic p -> Json.Obj [ ("holistic", holistic_params.enc p) ]
      | Config.Per_pc (ps, inner) ->
          Json.Obj
            [ ("per_pc", (list pc_policy).enc ps);
              ("inner", mem_policy.enc inner) ]);
    dec =
      (function
      | Json.Str "baseline" -> Config.Baseline
      | Json.Str s -> raise (Json.Parse_error ("unknown policy " ^ s))
      | Json.Obj members as v ->
          let rec variant = function
            | ("ndet_flags", p) :: _ ->
                Config.Ndet_flags (at "ndet_flags" load_policy p)
            | ("iar", p) :: _ -> Config.Iar (at "iar" iar_params p)
            | ("holistic", p) :: _ ->
                Config.Holistic (at "holistic" holistic_params p)
            | ("per_pc", ps) :: _ ->
                Config.Per_pc
                  ( at "per_pc" (list pc_policy) ps,
                    at "inner" mem_policy (Json.member "inner" v) )
            | _ :: rest -> variant rest
            | [] ->
                raise
                  (Json.Parse_error
                     "policy object names no variant (ndet_flags, iar, \
                      holistic or per_pc)")
          in
          variant members
      | v -> Json.schema_fail "policy" v);
  }

let cta_sched =
  {
    enc =
      (function
      | Config.Round_robin -> Json.Str "round_robin"
      | Config.Clustered k -> Json.Obj [ ("clustered", Json.Int k) ]);
    dec =
      (function
      | Json.Str "round_robin" -> Config.Round_robin
      | Json.Obj _ as v ->
          Config.Clustered (at "clustered" int (Json.member "clustered" v))
      | v -> Json.schema_fail "cta_sched" v);
  }

let warp_sched = enum "warp_sched" Config.warp_sched_name Config.warp_scheds

let config =
  let open Config in
  obj
    [ field "n_sms" int (fun c -> c.n_sms) (fun c x -> { c with n_sms = x });
      field "warp_size" int (fun c -> c.warp_size)
        (fun c x -> { c with warp_size = x });
      field "max_threads_per_sm" int (fun c -> c.max_threads_per_sm)
        (fun c x -> { c with max_threads_per_sm = x });
      field "max_ctas_per_sm" int (fun c -> c.max_ctas_per_sm)
        (fun c x -> { c with max_ctas_per_sm = x });
      field "shared_mem_per_sm" int (fun c -> c.shared_mem_per_sm)
        (fun c x -> { c with shared_mem_per_sm = x });
      field "l1_sets" int (fun c -> c.l1_sets)
        (fun c x -> { c with l1_sets = x });
      field "l1_ways" int (fun c -> c.l1_ways)
        (fun c x -> { c with l1_ways = x });
      field "line_size" int (fun c -> c.line_size)
        (fun c x -> { c with line_size = x });
      field "l1_mshr_entries" int (fun c -> c.l1_mshr_entries)
        (fun c x -> { c with l1_mshr_entries = x });
      field "l1_mshr_max_merge" int (fun c -> c.l1_mshr_max_merge)
        (fun c x -> { c with l1_mshr_max_merge = x });
      field "l1_hit_latency" int (fun c -> c.l1_hit_latency)
        (fun c x -> { c with l1_hit_latency = x });
      field "n_mem_partitions" int (fun c -> c.n_mem_partitions)
        (fun c x -> { c with n_mem_partitions = x });
      field "l2_sets" int (fun c -> c.l2_sets)
        (fun c x -> { c with l2_sets = x });
      field "l2_ways" int (fun c -> c.l2_ways)
        (fun c x -> { c with l2_ways = x });
      field "l2_mshr_entries" int (fun c -> c.l2_mshr_entries)
        (fun c x -> { c with l2_mshr_entries = x });
      field "l2_latency" int (fun c -> c.l2_latency)
        (fun c x -> { c with l2_latency = x });
      field "icnt_latency" int (fun c -> c.icnt_latency)
        (fun c x -> { c with icnt_latency = x });
      field "icnt_buffer_size" int (fun c -> c.icnt_buffer_size)
        (fun c x -> { c with icnt_buffer_size = x });
      field "l2_input_queue_size" int (fun c -> c.l2_input_queue_size)
        (fun c x -> { c with l2_input_queue_size = x });
      field "dram_latency" int (fun c -> c.dram_latency)
        (fun c x -> { c with dram_latency = x });
      field "dram_interval" int (fun c -> c.dram_interval)
        (fun c x -> { c with dram_interval = x });
      field "dram_queue_size" int (fun c -> c.dram_queue_size)
        (fun c x -> { c with dram_queue_size = x });
      field "sp_latency" int (fun c -> c.sp_latency)
        (fun c x -> { c with sp_latency = x });
      field "sfu_latency" int (fun c -> c.sfu_latency)
        (fun c x -> { c with sfu_latency = x });
      field "sfu_initiation" int (fun c -> c.sfu_initiation)
        (fun c x -> { c with sfu_initiation = x });
      field "shared_latency" int (fun c -> c.shared_latency)
        (fun c x -> { c with shared_latency = x });
      field "shared_banks" int (fun c -> c.shared_banks)
        (fun c x -> { c with shared_banks = x });
      field "max_warp_insts" int (fun c -> c.max_warp_insts)
        (fun c x -> { c with max_warp_insts = x });
      field "max_cycles" int (fun c -> c.max_cycles)
        (fun c x -> { c with max_cycles = x });
      field "cta_sched" cta_sched (fun c -> c.cta_sched)
        (fun c x -> { c with cta_sched = x });
      field "warp_sched" warp_sched (fun c -> c.warp_sched)
        (fun c x -> { c with warp_sched = x });
      field "l2_cluster" int (fun c -> c.l2_cluster)
        (fun c x -> { c with l2_cluster = x });
      field "policy" mem_policy (fun c -> c.policy)
        (fun c x -> { c with policy = x }) ]
    (fun () -> default)

let config_to_json = config.enc
let config_of_json = config.dec

(* The canonical content digest: MD5 of the compact config JSON, which
   names every field, so configs share a digest iff they are equal. *)
let config_digest c =
  Digest.to_hex (Digest.string (Json.to_string (config.enc c)))
