(** Full kernel verification: [Ptx.Verify.structural] plus the
    dataflow-dependent checks (use-before-def via reaching definitions,
    floating-point address bases, barriers reachable under divergent
    control flow).  Run by the launch path and by [critload verify]. *)

val verify_kernel : Ptx.Kernel.t -> Ptx.Verify.diag list * Depgraph.t option
(** All diagnostics for the kernel (empty when it is clean), and the
    kernel's analysis ({!Depgraph.of_kernel}), on which the dataflow
    checks ran.  When the structural pass reports errors, there is no
    analysis and the dataflow checks are skipped (they assume in-bounds
    registers and resolvable labels). *)
