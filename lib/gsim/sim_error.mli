(** Structured simulator diagnostics.

    Raise sites report whatever execution context they know (kernel,
    pc, CTA, warp, cycle); outer layers add the rest via
    [with_context] as the exception propagates.  [Error] is registered
    with [Printexc], so generic handlers render the structured
    message. *)

type kind =
  | Invalid_kernel  (** rejected by the static verifier *)
  | Unbound_param  (** ld.param of a parameter the launch never bound *)
  | Mem_fault  (** out-of-bounds access *)
  | Barrier_deadlock  (** part of a CTA waits at bar.sync forever *)
  | No_progress  (** machine live-locked: cycles pass, nothing retires *)
  | Internal  (** broken simulator invariant *)

type t = {
  e_kind : kind;
  e_kernel : string option;
  e_pc : int option;
  e_cta : int option;
  e_warp : int option;
  e_cycle : int option;
  e_msg : string;
}

exception Error of t

val kind_name : kind -> string

val make :
  ?kernel:string ->
  ?pc:int ->
  ?cta:int ->
  ?warp:int ->
  ?cycle:int ->
  kind ->
  ('a, Format.formatter, unit, t) format4 ->
  'a

val error :
  ?kernel:string ->
  ?pc:int ->
  ?cta:int ->
  ?warp:int ->
  ?cycle:int ->
  kind ->
  ('a, Format.formatter, unit, 'b) format4 ->
  'a
(** [make] followed by [raise (Error _)]. *)

val with_context :
  ?kernel:string ->
  ?pc:int ->
  ?cta:int ->
  ?warp:int ->
  ?cycle:int ->
  t ->
  t
(** Fill in context fields the raise site did not know; existing
    (innermost) values win. *)

val to_string : t -> string
