(** A warp: [warp_size] threads in lockstep under a post-dominator
    SIMT reconvergence stack (as in GPGPU-Sim).

    [step] executes exactly one warp instruction {e functionally} —
    registers, memory values and control flow resolve immediately — and
    reports what happened, so a caller can model timing on top (the
    cycle simulator) or just record a trace (the functional one). *)

open Ptx.Types

type mem_kind = Load | Store | Atomic

(** A warp-level memory operation: which lanes were active and the
    per-lane effective byte addresses.  [m_addrs] aliases the warp's
    reused scratch buffer — consume it before stepping the warp
    again (both simulators do so in the same call frame). *)
type mem_op = {
  m_pc : int;
  m_space : space;
  m_kind : mem_kind;
  m_mask : int;
  m_addrs : int array;
}

type step_result =
  | S_alu of Exec.unit_class  (** SP or SFU instruction completed *)
  | S_mem of mem_op
  | S_barrier
  | S_exit_partial  (** some lanes finished; the warp continues *)
  | S_exit_warp  (** all lanes finished *)

(** The memories this warp's CTA can see, by space. *)
type mem_iface = {
  m_global : Mem.t;  (** also serves const/tex/param, and atomics *)
  m_shared : Mem.t;
  m_local : Mem.t;
}

type t = {
  warp_id : int;
  cta_lin : int;
  kernel : Ptx.Kernel.t;
  decode : Decode.t;  (** predecoded per-pc tables, shared per kernel *)
  state : Exec.state;
      (** the lanes' registers, predicates and thread coordinates *)
  params : (string, int64) Hashtbl.t;
  mem : mem_iface;
  scratch_addrs : int array;
      (** reused buffer behind [mem_op.m_addrs]: valid only until the
          next [step] of this warp *)
  mutable stack : entry list;
  mutable warp_insts : int;
  mutable thread_insts : int;
}

and entry = { mutable spc : int; smask : int; sreconv : int }

val popcount : int -> int
(** Number of set bits (active lanes) of a mask. *)

val full_mask : int -> int
(** [full_mask n] sets lanes [0 .. n-1]. *)

val create :
  warp_id:int ->
  cta_lin:int ->
  decode:Decode.t ->
  state:Exec.state ->
  valid_mask:int ->
  params:(string, int64) Hashtbl.t ->
  mem:mem_iface ->
  Ptx.Kernel.t ->
  t
(** A warp at pc 0 with the lanes of [valid_mask] active.  [state] is
    its own (its rows are written as it runs) and sets the lane count;
    [decode] must come from the same kernel, and its [reconv] table
    drives the reconvergence stack. *)

val finished : t -> bool
(** Every lane has exited. *)

val pc : t -> int
(** The pc of the top reconvergence-stack entry; -1 once finished. *)

val active_mask : t -> int
(** Lanes executing the next instruction; 0 once finished. *)

val iter_active : int -> (int -> unit) -> unit
(** [iter_active mask f] applies [f] to each lane of [mask], in
    ascending order. *)

val peek_unit : t -> Exec.unit_class
(** Functional unit the next instruction occupies, without executing
    it (the SM issue stage's structural-hazard check). *)

val step : t -> step_result
(** Execute one warp instruction on the active lanes: registers,
    predicates, memory and the reconvergence stack change at once, and
    the result says what kind of instruction ran.  The warp must not
    be finished.  A [S_mem] result's [m_addrs] is the warp's scratch
    buffer, valid until the next [step].
    @raise Sim_error.Error with the kernel, pc, CTA and warp attached,
    on a fault (out-of-bounds memory, an unbound parameter); the pc
    does not advance. *)
