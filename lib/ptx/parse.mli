(** Parser for the textual kernel format emitted by [Kernel.pp].

    The format is line-oriented:
    {v
    .kernel name (.param .u64 a, .param .u32 n)
    .reg 12 .pred 2 .shared 0
    {
      ld.param.u64 %r0, [a];
      mov %r1, %tid.x;
    LOOP:
      @%p0 bra DONE;
      exit;
    }
    v}
    Comments start with [//] and run to end of line.  Printing and
    reparsing a kernel is stable (property-tested). *)

exception Error of string

val kernel_of_string : string -> Kernel.t
(** Parse and validate a whole kernel.
    @raise Error on syntax errors.
    @raise Kernel.Invalid naming every error {!Verify.validate} finds. *)
