(** Fixed-capacity mutable bit sets over [0, n). *)

type t

val create : int -> t
(** [create n] is the empty set over [0, n). *)

val copy : t -> t
val add : t -> int -> unit
val remove : t -> int -> unit
val mem : t -> int -> bool

val union_into : dst:t -> src:t -> bool
(** [dst <- dst ∪ src]; returns whether [dst] changed. *)

val diff_into : dst:t -> src:t -> unit
(** [dst <- dst \ src]. *)

val equal : t -> t -> bool
val cardinal : t -> int
val elements : t -> int list
val of_list : int -> int list -> t
