(** Static lane-stride analysis of load addresses.

    Makes the paper's observation that "deterministic loads tend to
    generate coalesced memory accesses" a static prediction: each
    load's address is abstracted as an unknown-but-uniform base plus
    known coefficients over the lane-varying symbols
    ([tid.x]/[tid.y]/[tid.z]/[laneid]).  Given the launch's block
    shape, the affine form yields the exact per-lane offsets of a
    fully-active warp and hence its coalesced request count — including
    2-D blocks where one warp spans several [tid.y] rows.

    Array bases are assumed cache-line aligned (cudaMalloc guarantees
    256-byte alignment). *)

(** Coefficients of the lane-varying symbols. *)
type aff = { ax : int64; ay : int64; az : int64; al : int64 }

(** Grouped-affine: per-(tid.y, tid.z) groups with unknown-but-distinct
    bases (e.g. [tid.y * width] with unknown width) plus known x/lane
    coefficients within each group. *)
type gaff = { gax : int64; gal : int64 }

(** Abstract value of a register or address. *)
type value =
  | Kon of int64  (** known integer constant *)
  | Affv of aff
      (** uniform base + lane coefficients; all-zero = warp-uniform *)
  | Gaff of gaff
  | Unknown  (** lane-variant, shape unknown *)

(** {1 Abstract arithmetic} (exposed for tests) *)

val add : value -> value -> value
val sub : value -> value -> value
val mul : value -> value -> value
val shl : value -> value -> value

(** {1 Prediction} *)

(** [int] payloads are the predicted coalesced requests of one
    fully-active warp. *)
type prediction =
  | Broadcast  (** one request per warp *)
  | Coalesced of int  (** 1-2 lines per warp *)
  | Strided of int  (** more lines, but statically known *)
  | Irregular  (** data-dependent — the uncoalesced-burst candidates *)

val string_of_prediction : prediction -> string

type load_prediction = { lp_pc : int; lp_prediction : prediction }

val predict : ?block:int * int * int -> Depgraph.t -> load_prediction list
(** Predicted coalescing class of every global load of the analyzed
    kernel, in program order, for the given launch block shape
    (default [(256,1,1)]), on 32-lane warps and 128-byte lines. *)

val pp_predictions :
  ?block:int * int * int -> Format.formatter -> Depgraph.t -> unit
