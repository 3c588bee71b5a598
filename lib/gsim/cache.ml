(* Set-associative cache with reserved (in-flight) lines and an
   integrated MSHR table — the GPGPU-Sim L1/L2 model the paper's
   Section VI describes.

   A load access has one of six outcomes:
     Hit            line valid
     Hit_reserved   line in flight, merged into the existing MSHR entry
     Miss           a line was reserved, an MSHR allocated, and the
                    request may be forwarded down the hierarchy
     Rsrv_fail Fail_tags   every candidate line in the set is reserved
     Rsrv_fail Fail_mshr   no MSHR entry free / merge capacity exhausted
     Rsrv_fail Fail_icnt   no downstream buffer slot (checked by caller,
                    passed in as [icnt_ok])

   On a reservation failure the access retries in a later cycle; the
   wasted cache cycles are what Fig 3 plots. *)

type fail_reason = Fail_tags | Fail_mshr | Fail_icnt

type outcome = Hit | Hit_reserved | Miss | Rsrv_fail of fail_reason

type line_state = Invalid | Valid | Reserved

type line = {
  mutable tag : int;
  mutable state : line_state;
  mutable last_use : int;
  (* policy-protected (holistic N-load protection): skipped by victim
     selection until every evictable way of the set is protected, at
     which point the whole set loses protection (second chance).
     Never set unless an access passes [~protect:true], so the default
     victim behaviour is exactly the unprotected LRU. *)
  mutable protected_ : bool;
}

type mshr_entry = { mutable waiters : Request.t list; mutable merged : int }

type t = {
  sets : int;
  line_size : int;
  lines : line array array; (* [set].[way] *)
  mshr : (int, mshr_entry) Hashtbl.t; (* line_addr -> entry *)
  mshr_entries : int;
  mshr_max_merge : int;
  mutable time : int; (* LRU clock *)
}

let create ~sets ~ways ~line_size ~mshr_entries ~mshr_max_merge =
  {
    sets;
    line_size;
    lines =
      Array.init sets (fun _ ->
          Array.init ways (fun _ ->
              { tag = -1; state = Invalid; last_use = 0; protected_ = false }));
    mshr = Hashtbl.create (2 * mshr_entries);
    mshr_entries;
    mshr_max_merge;
    time = 0;
  }

let set_index t line_addr = line_addr / t.line_size mod t.sets

(* Way of [set] holding line [la], or -1.  The helpers below return
   way indices and close over nothing: [touch] allocates nothing, and
   the timing model's probes only the option they return. *)
let way_of set la =
  let rec go set la w =
    if w >= Array.length set then -1
    else
      let l = set.(w) in
      if l.tag = la && l.state <> Invalid then w else go set la (w + 1)
  in
  go set la 0

(* The LRU way of [set] that is not reserved (nor, with
   [skip_protected], protected), the lowest on a tie; -1 for none. *)
let lru_way set ~skip_protected =
  let best = ref (-1) in
  for w = 0 to Array.length set - 1 do
    let l = set.(w) in
    if
      l.state <> Reserved
      && (not (skip_protected && l.protected_))
      && (!best < 0 || l.last_use < set.(!best).last_use)
    then best := w
  done;
  !best

(* Victim selection: an invalid way first, else the LRU non-reserved
   unprotected way; when every evictable way is protected, clear the
   set's protection and take the plain LRU (second chance).  -1 when
   every way is reserved (tag reservation failure).  With no protected
   lines — the default — this is exactly the unprotected LRU policy. *)
let victim_way set =
  let rec invalid set w =
    if w >= Array.length set then -1
    else if set.(w).state = Invalid then w
    else invalid set (w + 1)
  in
  let w = invalid set 0 in
  if w >= 0 then w
  else
    let w = lru_way set ~skip_protected:true in
    if w >= 0 then w
    else begin
      let w = lru_way set ~skip_protected:false in
      if w >= 0 then Array.iter (fun l -> l.protected_ <- false) set;
      w
    end

let find_line t la =
  let set = t.lines.(set_index t la) in
  let w = way_of set la in
  if w < 0 then None else Some set.(w)

let find_victim t la =
  let set = t.lines.(set_index t la) in
  let w = victim_way set in
  if w < 0 then None else Some set.(w)

let mshr_full t = Hashtbl.length t.mshr >= t.mshr_entries

(* Access for a load request.  [icnt_ok] tells whether a miss could be
   forwarded downstream this cycle.  [protect] (policy-driven) pins
   the touched line against eviction — see [find_victim]. *)
let access_load_protect t ~protect ~(req : Request.t) ~icnt_ok =
  t.time <- t.time + 1;
  let la = req.Request.line_addr in
  match find_line t la with
  | Some l when l.state = Valid ->
      l.last_use <- t.time;
      if protect then l.protected_ <- true;
      Hit
  | Some _ -> (
      (* line is in flight: try to merge into its MSHR entry *)
      match Hashtbl.find_opt t.mshr la with
      | Some e when e.merged < t.mshr_max_merge ->
          e.waiters <- req :: e.waiters;
          e.merged <- e.merged + 1;
          Hit_reserved
      | Some _ -> Rsrv_fail Fail_mshr
      | None ->
          (* reserved by a store allocation with no MSHR: treat as merge
             space exhausted *)
          Rsrv_fail Fail_mshr)
  | None -> (
      match find_victim t la with
      | None -> Rsrv_fail Fail_tags
      | Some victim ->
          if mshr_full t then Rsrv_fail Fail_mshr
          else if not icnt_ok then Rsrv_fail Fail_icnt
          else begin
            victim.tag <- la;
            victim.state <- Reserved;
            victim.last_use <- t.time;
            victim.protected_ <- protect;
            Hashtbl.replace t.mshr la { waiters = [ req ]; merged = 1 };
            Miss
          end)

(* The stock access path: no line protection. *)
let access_load t ~req ~icnt_ok =
  access_load_protect t ~protect:false ~req ~icnt_ok

(* Attach a request to an existing in-flight MSHR entry WITHOUT
   consuming merge capacity: the IAR reorder unit combines same-line
   accesses before they reach the cache, so the combined secondaries
   ride the primary's entry for free — they were one probe.  Prepended
   like merges, keeping the allocator last for [mshr_owner_cta].
   False when the line has no in-flight entry (caller invariant). *)
let mshr_attach t ~line_addr ~(req : Request.t) =
  match Hashtbl.find_opt t.mshr line_addr with
  | Some e ->
      e.waiters <- req :: e.waiters;
      true
  | None -> false

(* A fill returning from the lower level: validate the line and release
   the waiting requests. *)
let fill t ~line_addr =
  (match find_line t line_addr with
  | Some l when l.state = Reserved -> l.state <- Valid
  | Some _ | None -> ());
  match Hashtbl.find_opt t.mshr line_addr with
  | Some e ->
      Hashtbl.remove t.mshr line_addr;
      List.rev e.waiters
  | None -> []

(* Probe without side effects (used by write handling and tests). *)
let probe t ~line_addr =
  match find_line t line_addr with
  | Some l when l.state = Valid -> `Valid
  | Some _ -> `Reserved
  | None -> `Absent

(* Write-evict for L1 global stores (Fermi L1 is write-through
   no-allocate): drop the line if present and valid. *)
let invalidate t ~line_addr =
  match find_line t line_addr with
  | Some l when l.state = Valid ->
      l.state <- Invalid;
      l.tag <- -1;
      l.protected_ <- false
  | Some _ | None -> ()

(* Write-allocate update for L2 stores: mark/refresh the line valid.
   Returns false when allocation is impossible this cycle (all ways
   reserved). *)
let write_allocate t ~line_addr =
  t.time <- t.time + 1;
  match find_line t line_addr with
  | Some l ->
      if l.state = Valid then l.last_use <- t.time;
      true
  | None -> (
      match find_victim t line_addr with
      | None -> false
      | Some victim ->
          victim.tag <- line_addr;
          victim.state <- Valid;
          victim.last_use <- t.time;
          true)

(* The functional model's access: nothing is in flight, so a miss
   fills its victim at once, with no MSHR and no reservation.  True on a
   hit, which refreshes the line's LRU stamp. *)
let touch t ~line_addr =
  t.time <- t.time + 1;
  let set = t.lines.(set_index t line_addr) in
  let w = way_of set line_addr in
  if w >= 0 then begin
    set.(w).last_use <- t.time;
    true
  end
  else begin
    let v = victim_way set in
    if v >= 0 then begin
      let l = set.(v) in
      l.tag <- line_addr;
      l.state <- Valid;
      l.last_use <- t.time
    end;
    false
  end

let mshr_in_use t = Hashtbl.length t.mshr

(* CTA that allocated the in-flight MSHR entry for [line_addr]: waiters
   are prepended on merge, so the allocator is the last element.  -1
   when the line has no entry. *)
let mshr_owner_cta t ~line_addr =
  match Hashtbl.find_opt t.mshr line_addr with
  | Some { waiters = _ :: _ as ws; _ } ->
      (List.nth ws (List.length ws - 1)).Request.cta
  | Some { waiters = []; _ } | None -> -1
