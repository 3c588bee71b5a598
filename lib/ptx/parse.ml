(* Parser for the textual kernel format emitted by [Kernel.pp].

   The format is line-oriented:

     .kernel name (.param .u64 a, .param .u32 n)
     .reg 12 .pred 2 .shared 0
     {
       ld.param.u64 %r0, [a];
       mov %r1, %tid.x;
     LOOP:
       @%p0 bra DONE;
       exit;
     }

   Comments start with [//] and run to end of line. *)

open Types

exception Error of string

let error fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

let strip_comment line =
  match String.index_opt line '/' with
  | Some i when i + 1 < String.length line && line.[i + 1] = '/' ->
      String.sub line 0 i
  | _ -> line

let trim = String.trim

let split_operands s =
  (* split on top-level commas (no nesting in this grammar) *)
  String.split_on_char ',' s |> List.map trim
  |> List.filter (fun x -> x <> "")

let parse_sreg s =
  match of_name string_of_sreg sregs s with
  | Some r -> r
  | None -> error "unknown special register %s" s

let parse_reg s =
  if String.length s > 2 && s.[0] = '%' && s.[1] = 'r' then
    match int_of_string_opt (String.sub s 2 (String.length s - 2)) with
    | Some r -> r
    | None -> error "bad register %s" s
  else error "expected general register, got %s" s

let parse_pred s =
  if String.length s > 2 && s.[0] = '%' && s.[1] = 'p' then
    match int_of_string_opt (String.sub s 2 (String.length s - 2)) with
    | Some p -> p
    | None -> error "bad predicate %s" s
  else error "expected predicate register, got %s" s

let parse_operand s =
  if s = "" then error "empty operand"
  else if s.[0] = '%' then
    if String.length s > 1 && s.[1] = 'r' then Reg (parse_reg s)
    else Sreg (parse_sreg s)
  else
    match Int64.of_string_opt s with
    | Some i -> Imm i
    | None -> (
        match float_of_string_opt s with
        | Some f -> Fimm f
        | None -> error "bad operand %s" s)

(* "[%r1+8]" | "[%r1]" | "[name]" (for ld.param, handled separately) *)
let parse_addr s =
  let n = String.length s in
  if n < 2 || s.[0] <> '[' || s.[n - 1] <> ']' then error "bad address %s" s
  else
    let inner = String.sub s 1 (n - 2) in
    match String.index_opt inner '+' with
    | Some i ->
        let base = parse_operand (trim (String.sub inner 0 i)) in
        let off =
          match
            int_of_string_opt (trim (String.sub inner (i + 1) (String.length inner - i - 1)))
          with
          | Some o -> o
          | None -> error "bad offset in %s" s
        in
        { abase = base; aoffset = off }
    | None -> { abase = parse_operand (trim inner); aoffset = 0 }

let addr_inner s =
  let n = String.length s in
  if n < 2 || s.[0] <> '[' || s.[n - 1] <> ']' then error "bad address %s" s
  else String.sub s 1 (n - 2)

let iop_of_mnemonic = of_name string_of_iop iops

let fop_of_mnemonic =
  of_name
    (fun (o, ty) -> fop_mnemonic o ty)
    (List.concat_map (fun o -> [ (o, F32); (o, F64) ]) fops)

let funary_of_string = of_name string_of_funary funarys

let atomop_of_string s =
  match of_name string_of_atomop atomops s with
  | Some o -> o
  | None -> error "unknown atomic op %s" s

(* Instructions with dotted mnemonics (ld/st/setp/cvt/fma/atom/SFU). *)
let parse_dotted mnemonic rest line : Instr.t =
  match String.split_on_char '.' mnemonic with
  | [ "ld"; "param"; _ty ] -> (
      match split_operands rest with
      | [ d; a ] -> Instr.Ld_param (parse_reg d, addr_inner a)
      | _ -> error "ld.param arity: %s" line)
  | [ "ld"; sp; ty ] -> (
      match split_operands rest with
      | [ d; a ] ->
          Instr.Ld (space_of_string sp, dtype_of_string ty, parse_reg d, parse_addr a)
      | _ -> error "ld arity: %s" line)
  | [ "st"; sp; ty ] -> (
      match split_operands rest with
      | [ a; v ] ->
          Instr.St (space_of_string sp, dtype_of_string ty, parse_addr a, parse_operand v)
      | _ -> error "st arity: %s" line)
  | [ "setp"; c; ty ] -> (
      match split_operands rest with
      | [ p; a; b ] ->
          Instr.Setp (cmp_of_string c, dtype_of_string ty, parse_pred p,
                      parse_operand a, parse_operand b)
      | _ -> error "setp arity: %s" line)
  | [ "cvt"; dt; st ] -> (
      match split_operands rest with
      | [ d; a ] ->
          Instr.Cvt (dtype_of_string dt, dtype_of_string st, parse_reg d, parse_operand a)
      | _ -> error "cvt arity: %s" line)
  | [ "fma"; ty ] -> (
      match split_operands rest with
      | [ d; a; b; c ] ->
          Instr.Fma (dtype_of_string ty, parse_reg d, parse_operand a,
                     parse_operand b, parse_operand c)
      | _ -> error "fma arity: %s" line)
  | [ "atom"; "global"; op; ty ] -> (
      match split_operands rest with
      | [ d; a; v ] ->
          Instr.Atom (atomop_of_string op, dtype_of_string ty, parse_reg d,
                      parse_addr a, parse_operand v)
      | _ -> error "atom arity: %s" line)
  | [ f; ty ] -> (
      match funary_of_string f with
      | Some o -> (
          match split_operands rest with
          | [ d; a ] ->
              Instr.Funary (o, dtype_of_string ty, parse_reg d, parse_operand a)
          | _ -> error "%s arity: %s" mnemonic line)
      | None -> error "unknown instruction %s" line)
  | _ -> error "unknown instruction %s" line

(* Parse one instruction line (without trailing ';'). *)
let parse_instr line : Instr.t =
  let line = trim line in
  (* guarded branch: "@%p0 bra L" or "@!%p0 bra L" *)
  if String.length line > 0 && line.[0] = '@' then begin
    let neg = String.length line > 1 && line.[1] = '!' in
    let rest = String.sub line (if neg then 2 else 1) (String.length line - (if neg then 2 else 1)) in
    match String.split_on_char ' ' rest |> List.filter (fun s -> s <> "") with
    | [ p; "bra"; l ] -> Instr.Bra (Some (not neg, parse_pred p), l)
    | _ -> error "bad guarded branch: %s" line
  end
  else
    let mnemonic, rest =
      match String.index_opt line ' ' with
      | Some i ->
          ( String.sub line 0 i,
            trim (String.sub line (i + 1) (String.length line - i - 1)) )
      | None -> (line, "")
    in
    let ops () = split_operands rest in
    match mnemonic with
    | "exit" -> Instr.Exit
    | "bar.sync" -> Instr.Bar
    | "bra" -> Instr.Bra (None, trim rest)
    | "mov" -> (
        match ops () with
        | [ d; s ] -> Instr.Mov (parse_reg d, parse_operand s)
        | _ -> error "mov arity: %s" line)
    | "mad.lo" -> (
        match ops () with
        | [ d; a; b; c ] ->
            Instr.Mad (parse_reg d, parse_operand a, parse_operand b, parse_operand c)
        | _ -> error "mad arity: %s" line)
    | "selp" -> (
        match ops () with
        | [ d; a; b; p ] ->
            Instr.Selp (parse_reg d, parse_operand a, parse_operand b, parse_pred p)
        | _ -> error "selp arity: %s" line)
    | "not.pred" -> (
        match ops () with
        | [ d; s ] -> Instr.Pnot (parse_pred d, parse_pred s)
        | _ -> error "not.pred arity: %s" line)
    | "and.pred" -> (
        match ops () with
        | [ d; a; b ] -> Instr.Pand (parse_pred d, parse_pred a, parse_pred b)
        | _ -> error "and.pred arity: %s" line)
    | "or.pred" -> (
        match ops () with
        | [ d; a; b ] -> Instr.Por (parse_pred d, parse_pred a, parse_pred b)
        | _ -> error "or.pred arity: %s" line)
    | _ -> (
        match iop_of_mnemonic mnemonic with
        | Some o -> (
            match ops () with
            | [ d; a; b ] ->
                Instr.Iop (o, parse_reg d, parse_operand a, parse_operand b)
            | _ -> error "%s arity: %s" mnemonic line)
        | None -> (
            match fop_of_mnemonic mnemonic with
            | Some (o, ty) -> (
                match ops () with
                | [ d; a; b ] ->
                    Instr.Fop (o, ty, parse_reg d, parse_operand a, parse_operand b)
                | _ -> error "%s arity: %s" mnemonic line)
            | None -> parse_dotted mnemonic rest line))

let parse_param s =
  (* ".param .u64 name" *)
  match String.split_on_char ' ' (trim s) |> List.filter (fun x -> x <> "") with
  | [ ".param"; ty; name ] when String.length ty > 1 && ty.[0] = '.' ->
      { Kernel.pname = name;
        pty = dtype_of_string (String.sub ty 1 (String.length ty - 1)) }
  | _ -> error "bad parameter declaration: %s" s

let parse_header line =
  (* ".kernel name (params...)" *)
  let line = trim line in
  if not (String.length line > 8 && String.sub line 0 8 = ".kernel ") then
    error "expected .kernel header, got %s" line
  else
    let rest = trim (String.sub line 8 (String.length line - 8)) in
    match String.index_opt rest '(' with
    | None -> error "missing parameter list: %s" line
    | Some i ->
        let name = trim (String.sub rest 0 i) in
        let close =
          match String.rindex_opt rest ')' with
          | Some c -> c
          | None -> error "missing ')' in %s" line
        in
        let plist = String.sub rest (i + 1) (close - i - 1) in
        let params =
          if trim plist = "" then []
          else String.split_on_char ',' plist |> List.map parse_param
        in
        (name, params)

let parse_decls line =
  (* ".reg N .pred M .shared S" *)
  match
    String.split_on_char ' ' (trim line) |> List.filter (fun s -> s <> "")
  with
  | [ ".reg"; n; ".pred"; m; ".shared"; s ] -> (
      match (int_of_string_opt n, int_of_string_opt m, int_of_string_opt s) with
      | Some n, Some m, Some s -> (n, m, s)
      | _ -> error "bad declarations: %s" line)
  | _ -> error "bad declarations: %s" line

let kernel_of_string text =
  (* keep 1-based source line numbers through comment stripping and
     blank-line removal, so every error can say where it happened *)
  let lines =
    String.split_on_char '\n' text
    |> List.mapi (fun i l -> (i + 1, trim (strip_comment l)))
    |> List.filter (fun (_, l) -> l <> "")
  in
  (* dtype/space/cmp string conversions raise Invalid_argument; fold
     them into the same line-attributed parse error *)
  let at ln f =
    try f () with
    | Error msg -> error "line %d: %s" ln msg
    | Invalid_argument msg -> error "line %d: %s" ln msg
  in
  match lines with
  | (hln, header) :: (dln, decls) :: (_, "{") :: rest ->
      let name, params = at hln (fun () -> parse_header header) in
      let nregs, npregs, smem_bytes = at dln (fun () -> parse_decls decls) in
      let body = ref [] in
      let rec go = function
        | [] -> error "missing closing '}'"
        | (_, "}") :: _ -> ()
        | (ln, line) :: rest ->
            let n = String.length line in
            (if n > 0 && line.[n - 1] = ':' then
               body := Instr.Label (String.sub line 0 (n - 1)) :: !body
             else
               let line =
                 if n > 0 && line.[n - 1] = ';' then String.sub line 0 (n - 1)
                 else line
               in
               body := at ln (fun () -> parse_instr line) :: !body);
            go rest
      in
      go rest;
      Verify.validate
        (Kernel.create ~name ~params ~nregs ~npregs ~smem_bytes
           (Array.of_list (List.rev !body)))
  | _ -> error "expected '.kernel', declarations and '{'"
