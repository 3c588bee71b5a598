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
  ways : int;
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
    ways;
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

let find_line t la =
  let set = t.lines.(set_index t la) in
  let rec go w =
    if w >= t.ways then None
    else if set.(w).tag = la && set.(w).state <> Invalid then Some set.(w)
    else go (w + 1)
  in
  go 0

(* Victim selection: an invalid way first, else the LRU non-reserved
   unprotected way; when every evictable way is protected, clear the
   set's protection and take the plain LRU (second chance).  None when
   every way is reserved (tag reservation failure).  With no protected
   lines — the default — this is exactly the unprotected LRU policy. *)
let find_victim t la =
  let set = t.lines.(set_index t la) in
  let invalid = Array.fold_left
      (fun acc l -> match acc with
         | Some _ -> acc
         | None -> if l.state = Invalid then Some l else None)
      None set
  in
  match invalid with
  | Some l -> Some l
  | None -> (
      let pick ~skip_protected =
        Array.fold_left
          (fun acc l ->
            if l.state = Reserved || (skip_protected && l.protected_) then acc
            else
              match acc with
              | Some best when best.last_use <= l.last_use -> acc
              | _ -> Some l)
          None set
      in
      match pick ~skip_protected:true with
      | Some _ as v -> v
      | None -> (
          match pick ~skip_protected:false with
          | Some _ as v ->
              Array.iter (fun l -> l.protected_ <- false) set;
              v
          | None -> None))

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

let mshr_in_use t = Hashtbl.length t.mshr

(* CTA that allocated the in-flight MSHR entry for [line_addr]: waiters
   are prepended on merge, so the allocator is the last element.  -1
   when the line has no entry. *)
let mshr_owner_cta t ~line_addr =
  match Hashtbl.find_opt t.mshr line_addr with
  | Some { waiters = _ :: _ as ws; _ } ->
      (List.nth ws (List.length ws - 1)).Request.cta
  | Some { waiters = []; _ } | None -> -1
