(* Cycle-level event tracing: a zero-cost-when-disabled emission layer
   under the timing simulator.

   Every memory-system transition the paper's figures are built from is
   an [event]: warp-level load issue/return (Figs 5-6), L1/L2 probe
   outcomes including the three reservation-fail kinds (Fig 3), MSHR
   allocate/merge/free with the requesting CTA (Figs 8-9), and
   interconnect/DRAM queue enqueue/dequeue.  Components hold one shared
   [t] and call [emit] at each transition (every cache load probe goes
   through [probe]); the active [sink] decides what happens to the
   event:

     Null     dropped — the production default.  Call sites guard event
              construction behind [enabled], so a run without tracing
              allocates nothing and [Stats.t] is byte-identical to a
              pre-trace build (the invariant test_trace checks).
     Stream   callback per event: the JSONL writer, the Chrome
              trace_event writer, and the [Profile] reducer are all
              stream sinks.

   The sink is mutable so a driver can mute tracing for launches
   outside a --kernel filter without re-plumbing the machine. *)

type cls = Dataflow.Classify.load_class

(* Which cache observed an access: an SM's L1 or a partition's L2. *)
type side = S_l1 of int | S_l2 of int

type dir = Dir_req | Dir_resp

(* What kind of access probed the cache: a classified load, a store
   (write-evict / write-allocate probe), or a next-line prefetch.
   Prefetch probes are not Fig 3 probes and are not recorded in
   [Stats], so they are tagged distinctly to keep trace-derived counts
   reconcilable. *)
type acc_src = A_load of cls | A_store | A_prefetch

type event =
  | Ev_load_issue of {
      cycle : int;
      sm : int;
      cta : int;
      warp_slot : int;
      kernel : string;
      pc : int;
      cls : cls;
      active : int;
      nreq : int;
    }
  | Ev_load_return of {
      cycle : int;
      sm : int;
      cta : int;
      kernel : string;
      pc : int;
      cls : cls;
      nreq : int;
      turnaround : int;
      level : Request.level;
    }
  | Ev_access of {
      cycle : int;
      where : side;
      line : int;
      src : acc_src;
      outcome : Cache.outcome;
    }
  | Ev_mshr_alloc of { cycle : int; where : side; line : int; cta : int }
  | Ev_mshr_merge of {
      cycle : int;
      where : side;
      line : int;
      cta : int;
      owner_cta : int;
    }
  | Ev_mshr_free of { cycle : int; where : side; line : int; waiters : int }
  | Ev_icnt_enq of { cycle : int; dir : dir; sm : int; part : int; line : int }
  | Ev_icnt_deq of { cycle : int; dir : dir; sm : int; part : int; line : int }
  | Ev_dram_enq of { cycle : int; part : int; line : int; write : bool }
  | Ev_dram_deq of { cycle : int; part : int; line : int }
  | Ev_occupancy of { cycle : int; sm : int; mshr : int; ldst_q : int }

type sink = Null | Stream of (event -> unit)

type t = { mutable sink : sink }

let null () = { sink = Null }

let stream f = { sink = Stream f }

let enabled t = match t.sink with Null -> false | Stream _ -> true

let emit t ev = match t.sink with Null -> () | Stream f -> f ev

(* One load probe of [cache]: its access, then the MSHR allocation of a
   miss or the merge of a hit-reserved.  Called after the probe: a
   merge prepends its waiter, so the in-flight entry's allocator is
   still its last waiter and the owner lookup sees the allocating CTA. *)
let probe t cache ~cycle ~where ~line ~src ~cta (outcome : Cache.outcome) =
  emit t (Ev_access { cycle; where; line; src; outcome });
  match outcome with
  | Cache.Miss -> emit t (Ev_mshr_alloc { cycle; where; line; cta })
  | Cache.Hit_reserved ->
      emit t
        (Ev_mshr_merge
           { cycle; where; line; cta;
             owner_cta = Cache.mshr_owner_cta cache ~line_addr:line })
  | Cache.Hit | Cache.Rsrv_fail _ -> ()

(* Swap the sink to Null for the duration of [f] (kernel filtering). *)
let with_muted t f =
  let saved = t.sink in
  t.sink <- Null;
  Fun.protect ~finally:(fun () -> t.sink <- saved) f

(* ---- JSON encoding (via the in-tree Stats_io.Json value type) ---- *)

module Json = Stats_io.Json

let load_class = Stats_io.Codec.load_class
let of_name = Stats_io.Codec.of_name

let outcome_name (o : Cache.outcome) =
  match o with
  | Cache.Hit -> "hit"
  | Cache.Hit_reserved -> "hit_reserved"
  | Cache.Miss -> "miss"
  | Cache.Rsrv_fail Cache.Fail_tags -> "rsrv_fail_tags"
  | Cache.Rsrv_fail Cache.Fail_mshr -> "rsrv_fail_mshr"
  | Cache.Rsrv_fail Cache.Fail_icnt -> "rsrv_fail_icnt"

let outcome_of_name =
  of_name "cache outcome" outcome_name
    Cache.
      [ Hit; Hit_reserved; Miss; Rsrv_fail Fail_tags; Rsrv_fail Fail_mshr;
        Rsrv_fail Fail_icnt ]

let level_name = function
  | Request.Lvl_l1 -> "l1"
  | Request.Lvl_l2 -> "l2"
  | Request.Lvl_dram -> "dram"

let level_of_name =
  of_name "memory level" level_name Request.[ Lvl_l1; Lvl_l2; Lvl_dram ]

let src_name = function
  | A_load c -> Dataflow.Classify.short_class c
  | A_store -> "store"
  | A_prefetch -> "prefetch"

let src_of_name =
  of_name "load class" src_name
    (A_store :: A_prefetch
    :: List.map (fun c -> A_load c) Dataflow.Classify.load_classes)

let src_of_json v = src_of_name (Json.get_str v)

let side_fields = function
  | S_l1 sm -> [ ("at", Json.Str "l1"); ("unit", Json.Int sm) ]
  | S_l2 part -> [ ("at", Json.Str "l2"); ("unit", Json.Int part) ]

let side_of_json v =
  let unit_ = Json.int_field "unit" v in
  match Json.str_field "at" v with
  | "l1" -> S_l1 unit_
  | "l2" -> S_l2 unit_
  | s -> raise (Json.Parse_error ("unknown cache side " ^ s))

let dir_name = function Dir_req -> "req" | Dir_resp -> "resp"

let dir_of_name = of_name "icnt direction" dir_name [ Dir_req; Dir_resp ]

let event_to_json = function
  | Ev_load_issue e ->
      Json.Obj
        [ ("ev", Json.Str "load_issue"); ("cycle", Json.Int e.cycle);
          ("sm", Json.Int e.sm); ("cta", Json.Int e.cta);
          ("warp_slot", Json.Int e.warp_slot);
          ("kernel", Json.Str e.kernel); ("pc", Json.Int e.pc);
          ("cls", load_class.enc e.cls); ("active", Json.Int e.active);
          ("nreq", Json.Int e.nreq) ]
  | Ev_load_return e ->
      Json.Obj
        [ ("ev", Json.Str "load_return"); ("cycle", Json.Int e.cycle);
          ("sm", Json.Int e.sm); ("cta", Json.Int e.cta);
          ("kernel", Json.Str e.kernel); ("pc", Json.Int e.pc);
          ("cls", load_class.enc e.cls); ("nreq", Json.Int e.nreq);
          ("turnaround", Json.Int e.turnaround);
          ("level", Json.Str (level_name e.level)) ]
  | Ev_access e ->
      Json.Obj
        ([ ("ev", Json.Str "access"); ("cycle", Json.Int e.cycle) ]
        @ side_fields e.where
        @ [ ("line", Json.Int e.line); ("src", Json.Str (src_name e.src));
            ("outcome", Json.Str (outcome_name e.outcome)) ])
  | Ev_mshr_alloc e ->
      Json.Obj
        ([ ("ev", Json.Str "mshr_alloc"); ("cycle", Json.Int e.cycle) ]
        @ side_fields e.where
        @ [ ("line", Json.Int e.line); ("cta", Json.Int e.cta) ])
  | Ev_mshr_merge e ->
      Json.Obj
        ([ ("ev", Json.Str "mshr_merge"); ("cycle", Json.Int e.cycle) ]
        @ side_fields e.where
        @ [ ("line", Json.Int e.line); ("cta", Json.Int e.cta);
            ("owner_cta", Json.Int e.owner_cta) ])
  | Ev_mshr_free e ->
      Json.Obj
        ([ ("ev", Json.Str "mshr_free"); ("cycle", Json.Int e.cycle) ]
        @ side_fields e.where
        @ [ ("line", Json.Int e.line); ("waiters", Json.Int e.waiters) ])
  | Ev_icnt_enq e ->
      Json.Obj
        [ ("ev", Json.Str "icnt_enq"); ("cycle", Json.Int e.cycle);
          ("dir", Json.Str (dir_name e.dir)); ("sm", Json.Int e.sm);
          ("part", Json.Int e.part); ("line", Json.Int e.line) ]
  | Ev_icnt_deq e ->
      Json.Obj
        [ ("ev", Json.Str "icnt_deq"); ("cycle", Json.Int e.cycle);
          ("dir", Json.Str (dir_name e.dir)); ("sm", Json.Int e.sm);
          ("part", Json.Int e.part); ("line", Json.Int e.line) ]
  | Ev_dram_enq e ->
      Json.Obj
        [ ("ev", Json.Str "dram_enq"); ("cycle", Json.Int e.cycle);
          ("part", Json.Int e.part); ("line", Json.Int e.line);
          ("write", Json.Bool e.write) ]
  | Ev_dram_deq e ->
      Json.Obj
        [ ("ev", Json.Str "dram_deq"); ("cycle", Json.Int e.cycle);
          ("part", Json.Int e.part); ("line", Json.Int e.line) ]
  | Ev_occupancy e ->
      Json.Obj
        [ ("ev", Json.Str "occupancy"); ("cycle", Json.Int e.cycle);
          ("sm", Json.Int e.sm); ("mshr", Json.Int e.mshr);
          ("ldst_q", Json.Int e.ldst_q) ]

let event_of_json v =
  let cycle = Json.int_field "cycle" v in
  match Json.str_field "ev" v with
  | "load_issue" ->
      Ev_load_issue
        { cycle; sm = Json.int_field "sm" v; cta = Json.int_field "cta" v;
          warp_slot = Json.int_field "warp_slot" v;
          kernel = Json.str_field "kernel" v; pc = Json.int_field "pc" v;
          cls = load_class.dec (Json.member "cls" v);
          active = Json.int_field "active" v;
          nreq = Json.int_field "nreq" v }
  | "load_return" ->
      Ev_load_return
        { cycle; sm = Json.int_field "sm" v; cta = Json.int_field "cta" v;
          kernel = Json.str_field "kernel" v; pc = Json.int_field "pc" v;
          cls = load_class.dec (Json.member "cls" v);
          nreq = Json.int_field "nreq" v;
          turnaround = Json.int_field "turnaround" v;
          level = level_of_name (Json.str_field "level" v) }
  | "access" ->
      Ev_access
        { cycle; where = side_of_json v; line = Json.int_field "line" v;
          src = src_of_json (Json.member "src" v);
          outcome = outcome_of_name (Json.str_field "outcome" v) }
  | "mshr_alloc" ->
      Ev_mshr_alloc
        { cycle; where = side_of_json v; line = Json.int_field "line" v;
          cta = Json.int_field "cta" v }
  | "mshr_merge" ->
      Ev_mshr_merge
        { cycle; where = side_of_json v; line = Json.int_field "line" v;
          cta = Json.int_field "cta" v;
          owner_cta = Json.int_field "owner_cta" v }
  | "mshr_free" ->
      Ev_mshr_free
        { cycle; where = side_of_json v; line = Json.int_field "line" v;
          waiters = Json.int_field "waiters" v }
  | "icnt_enq" ->
      Ev_icnt_enq
        { cycle; dir = dir_of_name (Json.str_field "dir" v);
          sm = Json.int_field "sm" v; part = Json.int_field "part" v;
          line = Json.int_field "line" v }
  | "icnt_deq" ->
      Ev_icnt_deq
        { cycle; dir = dir_of_name (Json.str_field "dir" v);
          sm = Json.int_field "sm" v; part = Json.int_field "part" v;
          line = Json.int_field "line" v }
  | "dram_enq" ->
      Ev_dram_enq
        { cycle; part = Json.int_field "part" v;
          line = Json.int_field "line" v;
          write = Json.get_bool (Json.member "write" v) }
  | "dram_deq" ->
      Ev_dram_deq
        { cycle; part = Json.int_field "part" v;
          line = Json.int_field "line" v }
  | "occupancy" ->
      Ev_occupancy
        { cycle; sm = Json.int_field "sm" v; mshr = Json.int_field "mshr" v;
          ldst_q = Json.int_field "ldst_q" v }
  | s -> raise (Json.Parse_error ("unknown trace event " ^ s))

(* ---- streaming writers ---- *)

(* One JSON object per line — the format @trace-smoke validates with
   the stats_io parser. *)
let jsonl_sink oc =
  stream (fun ev ->
      output_string oc (Json.to_string (event_to_json ev));
      output_char oc '\n')

(* Chrome trace_event ("catapult") JSON array, loadable in
   chrome://tracing or https://ui.perfetto.dev.  Cycles are written as
   microseconds; warp-load lifetimes become complete ("X") spans and
   everything else an instant ("i") or counter ("C") event. *)
let chrome_json ev =
  let common ~name ~cat ~ph ~ts ~pid ~tid extra =
    Json.Obj
      ([ ("name", Json.Str name); ("cat", Json.Str cat); ("ph", Json.Str ph);
         ("ts", Json.Int ts); ("pid", Json.Int pid); ("tid", Json.Int tid) ]
      @ extra)
  in
  let instant ~name ~cat ~ts ~pid ~tid args =
    common ~name ~cat ~ph:"i" ~ts ~pid ~tid
      (("s", Json.Str "t") :: if args = [] then [] else [ ("args", Json.Obj args) ])
  in
  match ev with
  | Ev_load_return e ->
      common
        ~name:
          (Printf.sprintf "ld %s+%d %s" e.kernel e.pc
             (Dataflow.Classify.short_class e.cls))
        ~cat:"load" ~ph:"X" ~ts:(max 0 (e.cycle - e.turnaround)) ~pid:e.sm
        ~tid:e.cta
        [ ("dur", Json.Int (max 1 e.turnaround));
          ("args",
           Json.Obj
             [ ("pc", Json.Int e.pc); ("nreq", Json.Int e.nreq);
               ("level", Json.Str (level_name e.level)) ]) ]
  | Ev_occupancy e ->
      common ~name:"occupancy" ~cat:"occupancy" ~ph:"C" ~ts:e.cycle ~pid:e.sm
        ~tid:0
        [ ("args",
           Json.Obj
             [ ("mshr", Json.Int e.mshr); ("ldst_q", Json.Int e.ldst_q) ]) ]
  | Ev_load_issue e ->
      instant ~name:"load_issue" ~cat:"load" ~ts:e.cycle ~pid:e.sm ~tid:e.cta
        [ ("pc", Json.Int e.pc); ("cls", load_class.enc e.cls) ]
  | Ev_access e ->
      let pid, tid = match e.where with S_l1 sm -> (sm, 1) | S_l2 p -> (p, 2) in
      instant
        ~name:(Printf.sprintf "%s:%s" (src_name e.src) (outcome_name e.outcome))
        ~cat:"access" ~ts:e.cycle ~pid ~tid
        [ ("line", Json.Int e.line) ]
  | Ev_mshr_alloc e ->
      let pid = match e.where with S_l1 sm -> sm | S_l2 p -> p in
      instant ~name:"mshr_alloc" ~cat:"mshr" ~ts:e.cycle ~pid ~tid:e.cta
        [ ("line", Json.Int e.line) ]
  | Ev_mshr_merge e ->
      let pid = match e.where with S_l1 sm -> sm | S_l2 p -> p in
      instant ~name:"mshr_merge" ~cat:"mshr" ~ts:e.cycle ~pid ~tid:e.cta
        [ ("line", Json.Int e.line); ("owner_cta", Json.Int e.owner_cta) ]
  | Ev_mshr_free e ->
      let pid = match e.where with S_l1 sm -> sm | S_l2 p -> p in
      instant ~name:"mshr_free" ~cat:"mshr" ~ts:e.cycle ~pid ~tid:0
        [ ("line", Json.Int e.line); ("waiters", Json.Int e.waiters) ]
  | Ev_icnt_enq e ->
      instant ~name:(Printf.sprintf "icnt_enq_%s" (dir_name e.dir)) ~cat:"icnt"
        ~ts:e.cycle ~pid:e.sm ~tid:e.part []
  | Ev_icnt_deq e ->
      instant ~name:(Printf.sprintf "icnt_deq_%s" (dir_name e.dir)) ~cat:"icnt"
        ~ts:e.cycle ~pid:e.sm ~tid:e.part []
  | Ev_dram_enq e ->
      instant ~name:(if e.write then "dram_write" else "dram_read") ~cat:"dram"
        ~ts:e.cycle ~pid:e.part ~tid:0 [ ("line", Json.Int e.line) ]
  | Ev_dram_deq e ->
      instant ~name:"dram_deq" ~cat:"dram" ~ts:e.cycle ~pid:e.part ~tid:0
        [ ("line", Json.Int e.line) ]

(* Returns the sink and a closer that terminates the JSON array.  The
   closer does not close the channel. *)
let chrome_sink oc =
  output_string oc "[";
  let first = ref true in
  let t =
    stream (fun ev ->
        if !first then first := false else output_string oc ",";
        output_char oc '\n';
        output_string oc (Json.to_string (chrome_json ev)))
  in
  (t, fun () -> output_string oc "\n]\n")
