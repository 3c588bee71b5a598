(** Bump allocator laying out kernel arrays in flat global memory.
    Allocations are 128-byte (cache-line) aligned, matching cudaMalloc
    alignment, so array bases never split lines. *)

type t

val create : Gsim.Mem.t -> t

val alloc : t -> int -> int
(** Reserve bytes (padded to the alignment); returns the base address.
    @raise Invalid_argument when memory is exhausted. *)

val alloc_f32 : t -> int -> int
val alloc_u32 : t -> int -> int
val fill_f32 : t -> int -> int -> (int -> float) -> unit
val fill_u32 : t -> int -> int -> (int -> int) -> unit

val param : string -> int -> string * int64
(** Kernel-parameter binding for an address. *)

val param_int : string -> int -> string * int64
