(** Minimal serial set-associative LRU cache: every access resolves
    immediately (hit, or miss + fill).  Used by the functional
    simulator to emulate the CUDA-profiler hit/miss counters
    (Table III), where no in-flight state is involved.  [hits] and
    [misses] count each access once; nothing here is shared with the
    timing model's {!Cache}, whose probes can fail reservation and
    retry. *)

type t = {
  sets : int;
  ways : int;
  line_size : int;
  tags : int array array;
  lru : int array array;
  mutable time : int;
  mutable hits : int;
  mutable misses : int;
}

val create : sets:int -> ways:int -> line_size:int -> t

val access : t -> int -> bool
(** Access one line address; true on hit.  Misses allocate (LRU). *)
