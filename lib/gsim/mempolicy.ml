(* Per-SM interpreter for Config.policy — see the .mli for the hook
   contract.  The representation keeps one flat record with optional
   shortcuts to the IAR and throttle state so the per-cycle hooks are
   a null check under Baseline; the recursive [state] mirrors the
   Config.policy tree for [decide]. *)

type cls = Dataflow.Classify.load_class

type decision = {
  d_flags : Config.load_policy;
  d_protect : bool;
  d_buffer : bool;
}

let no_decision =
  { d_flags = Config.no_policy; d_protect = false; d_buffer = false }

(* ---- IAR reorder buffer ---- *)

type iar_entry = {
  ie_line : int;
  ie_born : int;
  ie_wl : Request.warp_load option;
  ie_kind : Request.kind;
  ie_cls : cls;
  ie_cta : int;
}

(* [iar_select] runs on every SM cycle the buffer holds entries, so
   the buffer is kept ready to answer in O(1): entries sit in a fixed
   array, oldest first ([Sm] stamps [ie_born] with its monotone cycle
   and removal keeps order, so [slots.(0)] has waited longest), and
   each buffered line's entry count sits in [lines]/[counts] in
   first-seen order.  The most-combinable line is cached and
   recomputed, in one pass over the lines, only after an add or a
   remove. *)
type iar_state = {
  ip : Config.iar_params;
  slots : iar_entry array; (* [0, count): the entries, oldest first *)
  mutable count : int;
  lines : int array; (* [0, n_lines): buffered lines, first-seen order *)
  counts : int array; (* entries on [lines.(i)] *)
  mutable n_lines : int;
  mutable best_line : int; (* most-combinable line, unless [stale] *)
  mutable best : int; (* its entry count *)
  mutable stale : bool;
  mutable retry_at : int; (* quiet until this cycle after a failed probe *)
}

let iar_create (ip : Config.iar_params) =
  let cap = max 0 ip.Config.iar_entries in
  let vacant =
    { ie_line = 0; ie_born = 0; ie_wl = None; ie_kind = Request.Load;
      ie_cls = Dataflow.Classify.Deterministic; ie_cta = 0 }
  in
  { ip; slots = Array.make cap vacant; count = 0; lines = Array.make cap 0;
    counts = Array.make cap 0; n_lines = 0; best_line = 0; best = 0;
    stale = false; retry_at = 0 }

(* ---- holistic bypass / protect / throttle ---- *)

type pc_mon = {
  mutable mon_probes : int; (* completed D-load probes at this pc *)
  mutable mon_hits : int; (* of which hit (or merged) in the L1 *)
  mutable mon_bypass : bool; (* verdict: streaming, bypass the L1 *)
}

type holistic_state = {
  hp : Config.holistic_params;
  stream : (string * int, pc_mon) Hashtbl.t;
  mutable win_probes : int;
  mutable win_fails : int;
  mutable h_allowed : int;
  mutable h_max_ctas : int;
  mutable h_steps : int; (* throttle tightenings, for observability *)
}

type state =
  | S_baseline
  | S_ndet of Config.load_policy
  | S_iar of iar_state
  | S_holistic of holistic_state
  | S_perpc of ((string * int) * Config.load_policy) list * state

type t = {
  st : state;
  iar : iar_state option; (* shortcut into the S_iar arm, if any *)
  thr : holistic_state option; (* shortcut into the S_holistic arm *)
}

let rec state_of_policy = function
  | Config.Baseline -> S_baseline
  | Config.Ndet_flags f -> S_ndet f
  | Config.Iar ip -> S_iar (iar_create ip)
  | Config.Holistic hp ->
      S_holistic
        {
          hp;
          stream = Hashtbl.create 32;
          win_probes = 0;
          win_fails = 0;
          h_allowed = max_int;
          h_max_ctas = 0;
          h_steps = 0;
        }
  | Config.Per_pc (ps, inner) -> S_perpc (ps, state_of_policy inner)

let rec find_iar = function
  | S_iar is -> Some is
  | S_perpc (_, inner) -> find_iar inner
  | S_baseline | S_ndet _ | S_holistic _ -> None

let rec find_thr = function
  | S_holistic hs -> Some hs
  | S_perpc (_, inner) -> find_thr inner
  | S_baseline | S_ndet _ | S_iar _ -> None

let create (cfg : Config.t) =
  let st = state_of_policy cfg.Config.policy in
  { st; iar = find_iar st; thr = find_thr st }

let reconfigure t ~warp_slots ~warps_per_cta =
  match t.thr with
  | None -> ()
  | Some hs ->
      hs.h_max_ctas <-
        (if warps_per_cta > 0 then max 1 (warp_slots / warps_per_cta) else 0);
      hs.h_allowed <- (if hs.h_max_ctas > 0 then hs.h_max_ctas else max_int);
      hs.win_probes <- 0;
      hs.win_fails <- 0

(* ---- decide ---- *)

let holistic_decision hs cls =
  match cls with
  | Dataflow.Classify.Nondeterministic ->
      if hs.hp.Config.hp_protect_ndet then
        { no_decision with d_protect = true }
      else no_decision
  | Dataflow.Classify.Deterministic -> no_decision

let rec decide_st st ~kernel ~pc cls =
  match st with
  | S_baseline -> no_decision
  | S_ndet f ->
      if cls = Dataflow.Classify.Nondeterministic then
        { no_decision with d_flags = f }
      else no_decision
  | S_iar _ ->
      if cls = Dataflow.Classify.Nondeterministic then
        { no_decision with d_buffer = true }
      else no_decision
  | S_holistic hs -> (
      match cls with
      | Dataflow.Classify.Deterministic -> (
          match Hashtbl.find_opt hs.stream (kernel, pc) with
          | Some m when m.mon_bypass ->
              { no_decision with
                d_flags = { Config.no_policy with Config.lp_bypass = true } }
          | Some _ | None -> no_decision)
      | Dataflow.Classify.Nondeterministic -> holistic_decision hs cls)
  | S_perpc (ps, inner) -> (
      match List.assoc_opt (kernel, pc) ps with
      | Some f -> { no_decision with d_flags = f }
      | None -> decide_st inner ~kernel ~pc cls)

let decide t ~kernel ~pc cls = decide_st t.st ~kernel ~pc cls

(* ---- outcome feedback ---- *)

let on_outcome t ~kernel ~pc cls (outcome : Cache.outcome) =
  match t.thr with
  | None -> ()
  | Some hs ->
      let hp = hs.hp in
      (if cls = Dataflow.Classify.Deterministic then
         let m =
           match Hashtbl.find_opt hs.stream (kernel, pc) with
           | Some m -> m
           | None ->
               let m =
                 { mon_probes = 0; mon_hits = 0; mon_bypass = false }
               in
               Hashtbl.add hs.stream (kernel, pc) m;
               m
         in
         (match outcome with
         | Cache.Hit | Cache.Hit_reserved ->
             m.mon_probes <- m.mon_probes + 1;
             m.mon_hits <- m.mon_hits + 1
         | Cache.Miss -> m.mon_probes <- m.mon_probes + 1
         | Cache.Rsrv_fail _ -> ());
         if
           (not m.mon_bypass)
           && m.mon_probes >= hp.Config.hp_bypass_sample
           && m.mon_hits * 100 <= hp.Config.hp_bypass_hit_pct * m.mon_probes
         then m.mon_bypass <- true);
      (* the reservation-fail throttle window counts every probe
         attempt, including the failed ones it exists to detect *)
      hs.win_probes <- hs.win_probes + 1;
      (match outcome with
      | Cache.Rsrv_fail _ -> hs.win_fails <- hs.win_fails + 1
      | Cache.Hit | Cache.Hit_reserved | Cache.Miss -> ());
      if hs.win_probes >= hp.Config.hp_throttle_window then begin
        let rate = 100 * hs.win_fails / hs.win_probes in
        let max_ctas =
          if hs.h_max_ctas > 0 then hs.h_max_ctas else max_int
        in
        if rate >= hp.Config.hp_throttle_high_pct && hs.h_allowed > 1 then begin
          hs.h_allowed <- min hs.h_allowed max_ctas - 1;
          hs.h_steps <- hs.h_steps + 1
        end
        else if
          rate <= hp.Config.hp_throttle_low_pct && hs.h_allowed < max_ctas
        then hs.h_allowed <- hs.h_allowed + 1;
        hs.win_probes <- 0;
        hs.win_fails <- 0
      end

let allowed_ctas t =
  match t.thr with None -> max_int | Some hs -> hs.h_allowed

let throttle_steps t =
  match t.thr with None -> 0 | Some hs -> hs.h_steps

(* ---- IAR buffer operations ---- *)

let iar_room t ~n =
  match t.iar with
  | None -> false
  | Some is -> is.count + n <= is.ip.Config.iar_entries

(* index of [line] in [lines], or [n_lines] when it is not buffered *)
let line_index is line =
  let i = ref 0 in
  while !i < is.n_lines && is.lines.(!i) <> line do
    incr i
  done;
  !i

let iar_add t e =
  match t.iar with
  | None -> ()
  | Some is ->
      (* lib/gsim builds with -unsafe: an unchecked store past the end
         would corrupt the heap, so a caller that skipped [iar_room]
         stops here *)
      if is.count >= Array.length is.slots then
        Sim_error.error Sim_error.Internal
          "IAR buffer overflow: add to a full %d-entry buffer"
          (Array.length is.slots);
      is.slots.(is.count) <- e;
      is.count <- is.count + 1;
      let i = line_index is e.ie_line in
      if i = is.n_lines then begin
        is.lines.(i) <- e.ie_line;
        is.counts.(i) <- 1;
        is.n_lines <- i + 1
      end
      else is.counts.(i) <- is.counts.(i) + 1;
      is.stale <- true

let iar_pending t = match t.iar with None -> 0 | Some is -> is.count

(* cache the most-combinable line and its entry count; the first-seen
   (oldest) line wins ties *)
let recount is =
  is.best <- 0;
  for i = 0 to is.n_lines - 1 do
    if is.counts.(i) > is.best then begin
      is.best <- is.counts.(i);
      is.best_line <- is.lines.(i)
    end
  done;
  is.stale <- false

(* A failed probe means a resource (tag, MSHR, injection credit) is
   exhausted; it will not free for several cycles, so retrying every
   cycle only burns the L1 port.  After a failure the buffer yields to
   the in-order queue for a fixed quiet window. *)
let iar_fail_backoff = 8

let iar_defer t ~now =
  match t.iar with
  | None -> ()
  | Some is -> is.retry_at <- now + iar_fail_backoff

let iar_select t ~now ~fifo_nonempty =
  match t.iar with
  | None -> None
  | Some is ->
      if is.count = 0 || now < is.retry_at then None
      else begin
        if is.stale then recount is;
        (* a formed batch is the unit's whole purpose: harvest it now,
           turning [best] would-be probes into one *)
        if is.best >= 2 then Some is.best_line
        else
          (* born order: if any entry has aged, the oldest has *)
          let oldest = is.slots.(0) in
          if now - oldest.ie_born >= is.ip.Config.iar_max_wait then
            Some oldest.ie_line
          else if fifo_nonempty then None
          else Some is.best_line
      end

let iar_batch t ~line =
  match t.iar with
  | None -> []
  | Some is ->
      let batch = ref [] in
      for i = is.count - 1 downto 0 do
        if is.slots.(i).ie_line = line then batch := is.slots.(i) :: !batch
      done;
      !batch

let iar_remove_line t ~line =
  match t.iar with
  | None -> ()
  | Some is ->
      let kept = ref 0 in
      for i = 0 to is.count - 1 do
        let e = is.slots.(i) in
        if e.ie_line <> line then begin
          is.slots.(!kept) <- e;
          incr kept
        end
      done;
      is.count <- !kept;
      let i = line_index is line in
      if i < is.n_lines then begin
        let tail = is.n_lines - i - 1 in
        Array.blit is.lines (i + 1) is.lines i tail;
        Array.blit is.counts (i + 1) is.counts i tail;
        is.n_lines <- is.n_lines - 1
      end;
      is.stale <- true
