(** Full kernel verification: [Ptx.Verify.structural] plus the
    dataflow-dependent checks (use-before-def via reaching definitions,
    floating-point address bases, barriers reachable under divergent
    control flow).  Run by the launch path and by [critload verify]. *)

val verify_kernel : Ptx.Kernel.t -> Ptx.Verify.diag list
(** All diagnostics for the kernel; empty when it is clean.  When the
    structural pass reports errors, the dataflow checks are skipped
    (they assume in-bounds registers and resolvable labels). *)
