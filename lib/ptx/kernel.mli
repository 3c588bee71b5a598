(** Kernel representation: a named instruction array with declared
    parameters, register counts and static shared-memory size. *)

open Types

type param = { pname : string; pty : dtype }

type t = {
  kname : string;
  params : param list;
  body : Instr.t array;
  nregs : int;  (** number of general registers *)
  npregs : int;  (** number of predicate registers *)
  smem_bytes : int;  (** static shared memory per CTA, in bytes *)
  labels : (string, int) Hashtbl.t;  (** label -> pc of its [Label] *)
}

exception Invalid of string
(** Raised by [create], [target] and [label_pc] on a malformed kernel,
    and by [Verify.validate]. *)

val create :
  name:string ->
  params:param list ->
  nregs:int ->
  npregs:int ->
  smem_bytes:int ->
  Instr.t array ->
  t
(** Builds a kernel and indexes its labels.
    @raise Invalid on duplicate labels. *)

val label_pc : t -> string -> int
(** pc of a label. @raise Invalid if absent. *)

val target : t -> int -> int
(** Branch target pc of the branch instruction at the given pc.
    @raise Invalid if the pc does not hold a branch. *)

val global_load_pcs : t -> int list
(** pcs of all global-memory loads (including atomics), in order. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
