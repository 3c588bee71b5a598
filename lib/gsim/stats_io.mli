(** Machine-readable stats layer: a small in-tree JSON value type with
    an emitter and parser (no external dependency), field-table codecs,
    and lossless converters for {!Stats.t} and {!Config.t}.

    Emission is deterministic: object fields appear in a fixed order
    and hashtable-backed collections are sorted before printing, so two
    equal stats values always serialize to byte-identical strings (the
    invariant the parallel sweep runner's retry logic relies on). *)

(** {1 JSON values} *)

module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Parse_error of string
  (** Raised by {!of_string} on malformed input and by the accessors
      below on schema mismatches. *)

  val to_string : t -> string
  (** Compact, deterministic rendering (fields in construction order). *)

  val to_channel : out_channel -> t -> unit

  val of_string : string -> t
  (** @raise Parse_error on malformed input. *)

  (** {2 Schema accessors} — all raise [Parse_error] on mismatch. *)

  val member : string -> t -> t
  (** Field of an object; [Null] when absent. *)

  val get_int : t -> int
  (** Accepts both [Int] and [Float]. *)

  val get_bool : t -> bool
  val get_str : t -> string
  val get_list : t -> t list
  val int_field : string -> t -> int
  val str_field : string -> t -> string
end

(** {1 Field-table codecs}

    A record's wire format, written once: a table whose entries each
    name a JSON key with its leaf codec, a getter and a setter.  The
    encoder folds the table in order.  The decoder walks the object's
    members in table order and looks a key up only when the next
    member is not the expected one, so a document this encoder wrote
    decodes without a search.  An absent member decodes as [Null].
    Every decoder raises only {!Json.Parse_error}, and a member's error
    comes back prefixed with ["<key>: "], naming the path to it. *)

module Codec : sig
  type 'a t = { enc : 'a -> Json.t; dec : Json.t -> 'a }

  type 'r field
  (** One member of a record of type ['r]. *)

  val field : string -> 'a t -> ('r -> 'a) -> ('r -> 'a -> 'r) -> 'r field
  (** [field key codec get set].  [set] returns the updated record; a
      record with mutable fields may update it in place. *)

  val obj : 'r field list -> (unit -> 'r) -> 'r t
  (** The record codec of a table.  Decoding starts from a fresh
      [init ()] and applies each member's setter in table order.  A
      member whose value encodes to [Null] (an absent {!option}) is
      left out of the object. *)

  val embed : ('r -> 's) -> ('r -> 's -> 'r) -> 's field list -> 'r field list
  (** A component's table, inlined into the enclosing object through
      the component's getter and setter. *)

  val tag : string -> string -> 'r field
  (** [tag key value]: a member that always carries the string [value]
      (a schema name); decoding anything else is an error. *)

  val int : int t
  val bool : bool t
  val string : string t

  val of_name : string -> ('a -> string) -> 'a list -> string -> 'a
  (** [of_name what name all s]: the value of [all] that [name] spells
      [s]; [of_name what name all] spells [all] once.
      @raise Json.Parse_error ["unknown <what> <s>"] when none does. *)

  val enum : string -> ('a -> string) -> 'a list -> 'a t
  (** [enum what name all]: a value as the string [name] spells it,
      decoded by {!of_name}; a non-string is ["expected <what>, got
      <type>"]. *)

  val load_class : Dataflow.Classify.load_class t
  (** ["D"] or ["N"] ({!Dataflow.Classify.short_class}), and nothing
      else. *)

  val map : ('b -> 'a) -> ('a -> 'b) -> 'a t -> 'b t
  (** [map to_a of_a c]: a ['b] carried in its ['a] form. *)

  val list : 'a t -> 'a list t

  val option : 'a t -> 'a option t
  (** [None] is [Null], so inside {!obj} it is an absent member. *)

  val array : int -> 'a t -> 'a array t
  (** [array len c]: exactly [len] entries. *)

  val int_array : int -> int array t

  val table : size:int -> ('k * 'v) t -> ('k, 'v) Hashtbl.t t
  (** A hashtable as an array of its bindings in key order, each
      encoded by the binding codec; decoding builds a table of initial
      [size]. *)
end

(** {1 JSONL framing}

    One compact JSON value per newline-terminated line — the framing
    of the worker pool's pipes and of the serve daemon's socket
    protocol. *)

module Framing : sig
  val frame : Json.t -> string
  (** Compact rendering plus the terminating ['\n']. *)

  (** Incremental line splitter for multiplexed nonblocking streams: a
      select loop feeds whatever byte chunks arrive and pops complete
      lines as they form, without blocking on a partial tail. *)
  module Splitter : sig
    type t

    val create : unit -> t

    val feed : t -> string -> unit
    (** Append a received chunk (message boundaries need not align). *)

    val pop : t -> string option
    (** Next complete line (without its newline), if one has formed. *)
  end
end

(** {1 Timing statistics} *)

val stats_to_json : Stats.t -> Json.t
val stats_of_json : Json.t -> Stats.t
(** Inverse of {!stats_to_json}:
    [stats_of_json (stats_to_json s)] equals [s] field-for-field, and
    re-serializing yields a byte-identical string.
    @raise Json.Parse_error on schema mismatch. *)

(** {1 Configuration} *)

val config_to_json : Config.t -> Json.t
(** Every scalar knob plus the policy variants, for provenance in sweep
    outputs and cache entries. *)

val config_of_json : Json.t -> Config.t
(** Inverse of {!config_to_json}, for configs {!Config.check} accepts.
    @raise Json.Parse_error on schema mismatch, or naming the field
    {!Config.check} rejects. *)

val config_digest : Config.t -> string
(** Hex MD5 of the compact {!config_to_json} rendering.  Every field is
    a member, so two configs share a digest iff they are equal: the
    token the sweep cache keys and provenance records embed. *)
