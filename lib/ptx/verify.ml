(* Static structural verification of a kernel.

   The pass walks the whole program and returns every problem as a
   structured diagnostic, so a caller (CLI, launch path, test harness)
   can report all of them at once and decide what is fatal.  [validate]
   turns the errors into one [Kernel.Invalid]; the builder and the
   parser call it on every kernel they make.

   The checks here need only the kernel's declarations and instruction
   array: declared sizes, register and predicate bounds, branch
   targets, duplicate labels, parameter references, instruction forms
   the printer cannot spell, the presence of an exit, and unreachable
   code.  Dataflow-dependent checks
   (use-before-def, operand kinds, barriers under divergent control
   flow) live in [Dataflow.Verify], which layers on top of this
   module. *)

type severity = Error | Warning

type diag = {
  d_kernel : string;
  d_pc : int; (* -1 when the problem is not tied to one instruction *)
  d_severity : severity;
  d_code : string; (* stable machine-readable code *)
  d_msg : string;
}

let diag ?(severity = Error) ~kernel ~pc ~code fmt =
  Format.kasprintf
    (fun msg ->
      { d_kernel = kernel; d_pc = pc; d_severity = severity; d_code = code;
        d_msg = msg })
    fmt

let severity_name = function Error -> "error" | Warning -> "warning"

let to_string d =
  if d.d_pc < 0 then
    Printf.sprintf "%s: %s [%s] %s" d.d_kernel (severity_name d.d_severity)
      d.d_code d.d_msg
  else
    Printf.sprintf "%s: pc %d: %s [%s] %s" d.d_kernel d.d_pc
      (severity_name d.d_severity) d.d_code d.d_msg

let errors = List.filter (fun d -> d.d_severity = Error)

(* ---- the structural pass ---- *)

(* Instructions some path from entry reaches. *)
let reachable (k : Kernel.t) =
  let body = k.Kernel.body in
  let seen = Array.make (Array.length body) false in
  let rec visit pc =
    if pc < Array.length body && not seen.(pc) then begin
      seen.(pc) <- true;
      match body.(pc) with
      | Instr.Exit -> ()
      | Instr.Bra (guard, l) ->
          Option.iter visit (Hashtbl.find_opt k.Kernel.labels l);
          if Option.is_some guard then visit (pc + 1)
      | _ -> visit (pc + 1)
    end
  in
  visit 0;
  seen

(* Declared sizes that are not negative, then per instruction:
   register and predicate indices within the declared files, branch
   targets that are declared labels, each label declared once,
   [ld.param] of declared parameters, and no form that prints as
   another (an [Ld] from [Param], which prints as [ld.param]; a float
   op on a non-float type, which prints as its f32 twin); then an exit
   somewhere in the body.  With [warnings], also each instruction no
   path from entry reaches (dead stores of the builder, mistyped
   labels).  Instructions in program order. *)
let check ~warnings (k : Kernel.t) =
  let kernel = k.Kernel.kname and body = k.Kernel.body in
  if Array.length body = 0 then
    [ diag ~kernel ~pc:(-1) ~code:"empty-body" "kernel body is empty" ]
  else begin
    let acc = ref [] in
    let add d = acc := d :: !acc in
    let declared = List.map (fun p -> p.Kernel.pname) k.Kernel.params in
    let reached = if warnings then reachable k else [||] in
    if k.Kernel.nregs < 0 || k.Kernel.npregs < 0 || k.Kernel.smem_bytes < 0
    then
      add
        (diag ~kernel ~pc:(-1) ~code:"negative-size"
           "declared .reg %d .pred %d .shared %d: no size may be negative"
           k.Kernel.nregs k.Kernel.npregs k.Kernel.smem_bytes);
    Array.iteri
      (fun pc instr ->
        let reg what r =
          if r < 0 || r >= k.Kernel.nregs then
            add
              (diag ~kernel ~pc ~code:"register-bounds"
                 "%s register %%r%d outside the declared file [0,%d)" what r
                 k.Kernel.nregs)
        in
        let pred what p =
          if p < 0 || p >= k.Kernel.npregs then
            add
              (diag ~kernel ~pc ~code:"predicate-bounds"
                 "%s predicate %%p%d outside the declared file [0,%d)" what p
                 k.Kernel.npregs)
        in
        List.iter (reg "defined") (Instr.defs instr);
        List.iter (reg "used") (Instr.uses instr);
        List.iter (pred "defined") (Instr.pdefs instr);
        List.iter (pred "used") (Instr.puses instr);
        (match instr with
        | Instr.Bra (_, l) when not (Hashtbl.mem k.Kernel.labels l) ->
            add
              (diag ~kernel ~pc ~code:"unknown-label"
                 "branch to unresolved label %s (known: %s)" l
                 (match
                    Hashtbl.fold (fun l' _ a -> l' :: a) k.Kernel.labels []
                  with
                 | [] -> "none"
                 | known -> String.concat ", " (List.sort compare known)))
        | Instr.Label l -> (
            match Hashtbl.find_opt k.Kernel.labels l with
            | Some first when first <> pc ->
                add
                  (diag ~kernel ~pc ~code:"duplicate-label"
                     "label %s already defined at pc %d" l first)
            | _ -> ())
        | Instr.Ld_param (_, p) when not (List.mem p declared) ->
            add
              (diag ~kernel ~pc ~code:"unknown-param"
                 "ld.param of undeclared parameter %s (declared: %s)" p
                 (if declared = [] then "none"
                  else String.concat ", " declared))
        | Instr.Ld (Types.Param, _, _, a) ->
            add
              (diag ~kernel ~pc ~code:"param-address"
                 "ld.param from address %a: parameters are read by name"
                 Types.pp_addr a)
        | Instr.Fop (o, ty, _, _, _) when not (Types.dtype_is_float ty) ->
            add
              (diag ~kernel ~pc ~code:"float-op-type"
                 "a float op on %s prints as %s: it takes f32 or f64"
                 (Types.string_of_dtype ty) (Types.fop_mnemonic o ty))
        | _ -> ());
        if warnings && not reached.(pc) then
          add
            (diag ~severity:Warning ~kernel ~pc ~code:"unreachable"
               "unreachable instruction: %s" (Instr.to_string instr)))
      body;
    if not (Array.exists Instr.is_exit body) then
      add
        (diag ~kernel ~pc:(-1) ~code:"no-exit"
           "no exit instruction anywhere in the body");
    List.rev !acc
  end

(* ---- entry points ---- *)

(* Dataflow checks require a structurally sound kernel, so callers must
   run (and act on) this pass first. *)
let structural k = check ~warnings:true k

let validate k =
  match check ~warnings:false k with
  | [] -> k
  | errs ->
      raise (Kernel.Invalid (String.concat "; " (List.map to_string errs)))
