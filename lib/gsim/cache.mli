(** Set-associative cache with reserved (in-flight) lines and an
    integrated MSHR table — the GPGPU-Sim L1/L2 model the paper's
    Section VI describes.

    A load access has one of six outcomes; the three reservation
    failures (tags / MSHRs / interconnect) are the wasted cycles the
    paper's Fig 3 plots.  The cache counts none of them: its callers
    record each probe ({!Stats} for Fig 3, {!Trace.probe} for the event
    stream).

    The functional simulator models the same tag arrays with {!touch}:
    caches created with no MSHR entries, whose misses fill at once. *)

type fail_reason = Fail_tags | Fail_mshr | Fail_icnt
type outcome = Hit | Hit_reserved | Miss | Rsrv_fail of fail_reason

type t

val create :
  sets:int ->
  ways:int ->
  line_size:int ->
  mshr_entries:int ->
  mshr_max_merge:int ->
  t

val access_load : t -> req:Request.t -> icnt_ok:bool -> outcome
(** Probe for a load request.  On [Miss] the line is reserved, an MSHR
    entry allocated (with [req] as first waiter), and the caller must
    forward the request downstream ([icnt_ok] asserts it can).  On
    [Hit_reserved] the request was merged into the in-flight entry.
    Reservation failures leave no state behind. *)

val access_load_protect :
  t -> protect:bool -> req:Request.t -> icnt_ok:bool -> outcome
(** {!access_load} with policy-driven line protection: with [protect]
    the touched line is pinned against eviction until every evictable
    way of its set is protected, at which point the whole set loses
    protection — second-chance semantics for the holistic N-load
    protection policy.  [~protect:false] is exactly {!access_load}. *)

val mshr_attach : t -> line_addr:int -> req:Request.t -> bool
(** Attach [req] to the line's in-flight MSHR entry without consuming
    merge capacity — for requests combined upstream of the cache (the
    IAR reorder unit), which shared the primary's single probe.  False
    when the line has no in-flight entry. *)

val fill : t -> line_addr:int -> Request.t list
(** A fill returning from below: the line becomes valid; returns the
    waiting requests (first element is the original miss). *)

val probe : t -> line_addr:int -> [ `Valid | `Reserved | `Absent ]
(** Side-effect-free lookup. *)

val invalidate : t -> line_addr:int -> unit
(** Write-evict for L1 global stores (write-through no-allocate). *)

val write_allocate : t -> line_addr:int -> bool
(** Write-allocate update for L2 stores; false when every way of the
    set is reserved this cycle. *)

val touch : t -> line_addr:int -> bool
(** The functional simulator's access, on a cache no other call
    reserves lines in: true on a hit, which refreshes the line's LRU
    stamp; a miss fills the LRU way at once, with no MSHR and no
    reservation. *)

val mshr_in_use : t -> int
(** In-flight MSHR entries (occupancy timelines). *)

val mshr_owner_cta : t -> line_addr:int -> int
(** CTA that allocated the in-flight MSHR entry for the line; [-1]
    when the line has no entry (MSHR-merge locality attribution).
    Merges and attaches prepend their waiter, so the answer is the
    same before and after a probe merges into the entry. *)
