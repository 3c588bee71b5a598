(** CTA instantiation: the warps of one thread block, its shared
    memory, and the memory interface its threads use.  Local memory is
    a per-CTA scratch buffer of [max 256 (64 * threads)] bytes for a
    kernel that addresses local space ({!Decode.t.uses_local}) and zero
    bytes otherwise; const/tex read the global image (their caches are
    not modelled). *)

type t = {
  warps : Warp.t array;  (** each warp's [mem] holds the CTA's memories *)
  launch : Launch.t;
}

val create : Launch.t -> warp_size:int -> cta_lin:int -> t
val n_warps : t -> int
val all_finished : t -> bool
