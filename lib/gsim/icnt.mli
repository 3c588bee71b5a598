(** Interconnection network between SMs and memory partitions.

    Request path: each SM owns [icnt_buffer_size] injection credits;
    the L1 checks [can_inject] before declaring a miss — a full buffer
    is the paper's "reservation fail by interconnection".  Requests
    arrive at their partition after [icnt_latency] cycles; the credit
    returns when the partition consumes the request.

    Response path: same latency, unlimited buffering (SMs drain fills
    at a fixed rate). *)

type t

val create : ?trace:Trace.t -> Config.t -> t
(** [?trace] defaults to a null sink; transfer events (enqueue /
    dequeue on both directions) are emitted only when enabled. *)

val partition_of : Config.t -> sm:int -> int -> int
(** Memory partition servicing a line address.  Under the Section X.C
    semi-global-L2 ablation each SM cluster owns a private subset of
    partitions, so the mapping depends on the requesting SM. *)

val can_inject : t -> sm:int -> bool
val inject_request : t -> now:int -> Request.t -> unit

val pop_request : t -> now:int -> part:int -> Request.t option
(** Head request for the partition if it has arrived; consuming it
    returns the credit to its SM. *)

val inject_response : t -> now:int -> Request.t -> unit
val pop_response : t -> now:int -> sm:int -> Request.t option

val response_arrived : t -> now:int -> sm:int -> bool
(** Allocation-free probe: true iff the head response for [sm] has
    arrived and {!pop_response} would return it. *)

val next_wake : t -> now:int -> int
(** Fast-forward contract: earliest cycle at which an in-flight
    transfer matures (both queue families are FIFO in arrival time, so
    only the heads are inspected; allocation-free).  A value [<= now]
    — an arrived head awaits its consumer; [max_int] — nothing in
    flight. *)
