(** Flat byte-addressable memory.  Global memory is one buffer shared
    by all CTAs; shared/local memories are small per-CTA instances.
    Register values are 64 bits; floats travel as IEEE-754 bit patterns
    (F32 values round through 32 bits on store/load). *)

type t

val create : int -> t
(** [create size] is a zeroed memory of [size] bytes. *)

val size : t -> int

val load : t -> Ptx.Types.dtype -> int -> int64
(** Typed load; narrow signed types sign-extend, unsigned zero-extend,
    F32 widens to double bits.
    @raise Sim_error.Error ([Mem_fault]) on out-of-bounds access. *)

val store : t -> Ptx.Types.dtype -> int -> int64 -> unit
(** Typed store.
    @raise Sim_error.Error ([Mem_fault]) on out-of-bounds access. *)

val load_slot : t -> Ptx.Types.dtype -> int -> Bytes.t -> int -> unit
(** [load_slot t ty addr dst off] writes [load t ty addr] into the
    64-bit word at byte offset [off] of [dst] without boxing it; [off]
    is not checked (a warp register row, see {!Exec.state}).
    @raise Sim_error.Error ([Mem_fault]) on out-of-bounds access. *)

val store_slot : t -> Ptx.Types.dtype -> int -> Bytes.t -> int -> unit
(** [store_slot t ty addr src off] is [store t ty addr] of the 64-bit
    word at byte offset [off] of [src] (unchecked).
    @raise Sim_error.Error ([Mem_fault]) on out-of-bounds access. *)

(** {1 Copies of the image} *)

type image
(** The contents of a memory at one moment. *)

val copy_image : t -> image
(** [copy_image t] copies the bytes of [t] any access has reached so
    far (the zeroed prefix, at most a few MB for the suite's datasets,
    not the whole buffer). *)

val restore_image : t -> image -> unit
(** [restore_image t image] puts [t] back to the contents [image] was
    copied from: every later write is undone, including writes past
    the copied prefix, which read as zero again.
    @raise Invalid_argument if [image] came from a larger memory. *)

(** {1 Host-side convenience accessors} *)

val get_u32 : t -> int -> int
val set_u32 : t -> int -> int -> unit
val get_f32 : t -> int -> float
val set_f32 : t -> int -> float -> unit
val get_i64 : t -> int -> int64
val set_i64 : t -> int -> int64 -> unit
val get_f64 : t -> int -> float
val set_f64 : t -> int -> float -> unit
