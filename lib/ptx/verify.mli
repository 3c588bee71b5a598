(** Static structural verification of a kernel.

    The pass walks the whole program and returns every problem as a
    structured diagnostic; [validate] is the gate every built or parsed
    kernel passes.  Dataflow-dependent checks (use-before-def, operand
    kinds, divergent barriers) layer on top in [Dataflow.Verify]. *)

type severity = Error | Warning

type diag = {
  d_kernel : string;
  d_pc : int;  (** -1 when not tied to one instruction *)
  d_severity : severity;
  d_code : string;  (** stable machine-readable code *)
  d_msg : string;
}

val diag :
  ?severity:severity ->
  kernel:string ->
  pc:int ->
  code:string ->
  ('a, Format.formatter, unit, diag) format4 ->
  'a

val to_string : diag -> string

val errors : diag list -> diag list
(** The fatal subset. *)

val structural : Kernel.t -> diag list
(** Negative declared sizes; then register/predicate bounds, branch
    targets, duplicate labels (at each repeat), parameter references,
    forms that would not parse back as themselves ([param-address]: an
    [Ld] from [Param]; [float-op-type]: a float op on a non-float type)
    and unreachable code in program order; then a missing exit. *)

val validate : Kernel.t -> Kernel.t
(** Returns the kernel when [structural] reports no error.
    @raise Kernel.Invalid naming every error otherwise. *)
