(** Per-kernel predecoded instruction tables.

    The issue stage and the warp stepper used to re-inspect the
    instruction variant — and chase label/classification hash tables —
    on every warp instruction of every warp.  All of that is a pure
    function of the kernel body, so it is computed once per kernel and
    shared by every warp of its launches:

    - [units]       functional unit per pc ({!Exec.unit_of_instr});
    - [bra_target]  branch-target pc per pc (-1 for non-branches),
                    replacing the per-execution label lookup;
    - [is_label]    label pseudo-instruction flags, for the skip loop;
    - [load_cls]    D/N class per pc ([Deterministic] for pcs that are
                    not global loads), replacing the per-issue
                    classification table lookup;
    - [reconv]      reconvergence pc per branch, the analysis's own
                    table ({!Dataflow.Depgraph.reconvergence});
    - [alu]         compiled executor per pc ({!Exec.compile_alu}),
                    run on a warp's {!Exec.state} and active mask:
                    operand-shape dispatch done once here, so the
                    stepper's ALU path is one indirect call;
    - [uses_local]  whether any [ld]/[st] addresses local space, so a
                    CTA of a kernel that never does gets no local
                    buffer ({!Cta.create}). *)

type t = {
  units : Exec.unit_class array;
  bra_target : int array;
  is_label : bool array;
  load_cls : Dataflow.Classify.load_class array;
  reconv : int array;
  alu : (Exec.state -> int -> unit) array;
  uses_local : bool;
}

val of_analysis : Dataflow.Depgraph.t -> Dataflow.Classify.result -> t
(** The tables of the analyzed kernel, given its classification. *)
