(** Standardized process exit codes for the [critload] CLI.

    Every subcommand maps its terminal conditions onto this table, so
    scripts and the test suite can dispatch on the code instead of
    scraping stderr.  Codes 124/125 remain cmdliner's (argument parse
    errors and uncaught exceptions); 130 is the conventional
    128+SIGINT of an interrupted run. *)

val ok : int
(** 0 — the requested work succeeded. *)

val failure : int
(** 1 — the work ran but the check failed: static verification
    diagnostics, a functional host-check mismatch, or a sweep/submit
    with failed jobs. *)

val usage : int
(** 2 — bad usage detected by the subcommand itself (unknown
    application name, incoherent flag combination).  Cmdliner's own
    parse errors keep its conventional 124. *)

val sim_error : int
(** 3 — the simulator reported a structured {!Gsim.Sim_error.t}. *)

val timeout : int
(** 4 — a deadline expired: a served job exceeded the server's
    per-request deadline, or the submit client's response deadline
    passed. *)

val unavailable : int
(** 5 — the serve daemon could not be reached (connect failure) or
    refused the work past the client's retry budget, or a new daemon
    found its socket already owned by a live server. *)

val interrupted : int
(** 130 — terminated by SIGINT/SIGTERM after a clean drain (no
    orphaned workers; a sweep's finished jobs are in its cache, so the
    same command run again continues it). *)
