(* Kernel representation: a named instruction array with declared
   parameters, register counts and static shared-memory size.

   Branch targets are symbolic labels; [labels] maps each label to the
   index of its [Label] pseudo-instruction.  [target] resolves a branch
   at pc to the index the executor should jump to. *)

open Types

type param = { pname : string; pty : dtype }

type t = {
  kname : string;
  params : param list;
  body : Instr.t array;
  nregs : int; (* number of general registers *)
  npregs : int; (* number of predicate registers *)
  smem_bytes : int; (* static shared memory per CTA *)
  labels : (string, int) Hashtbl.t;
}

exception Invalid of string

let invalid fmt = Format.kasprintf (fun s -> raise (Invalid s)) fmt

let build_labels body =
  let labels = Hashtbl.create 16 in
  Array.iteri
    (fun pc instr ->
      match instr with
      | Instr.Label l ->
          if Hashtbl.mem labels l then invalid "duplicate label %s" l;
          Hashtbl.add labels l pc
      | _ -> ())
    body;
  labels

let create ~name ~params ~nregs ~npregs ~smem_bytes body =
  {
    kname = name;
    params;
    body;
    nregs;
    npregs;
    smem_bytes;
    labels = build_labels body;
  }

let label_pc k l =
  match Hashtbl.find_opt k.labels l with
  | Some pc -> pc
  | None -> invalid "kernel %s: unknown label %s" k.kname l

(* Index of the instruction a branch at [pc] jumps to. *)
let target k pc =
  match k.body.(pc) with
  | Instr.Bra (_, l) -> label_pc k l
  | i -> invalid "kernel %s: pc %d is not a branch: %s" k.kname pc
           (Instr.to_string i)

let global_load_pcs k =
  let acc = ref [] in
  Array.iteri
    (fun pc i -> if Instr.is_global_load i then acc := pc :: !acc)
    k.body;
  List.rev !acc

let pp ppf k =
  let pp_param ppf p =
    Format.fprintf ppf ".param .%s %s" (string_of_dtype p.pty) p.pname
  in
  Format.fprintf ppf ".kernel %s (%a)@\n" k.kname
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       pp_param)
    k.params;
  Format.fprintf ppf ".reg %d .pred %d .shared %d@\n{@\n" k.nregs k.npregs
    k.smem_bytes;
  Array.iter
    (fun i ->
      match i with
      | Instr.Label _ -> Format.fprintf ppf "%a@\n" Instr.pp i
      | _ -> Format.fprintf ppf "  %a;@\n" Instr.pp i)
    k.body;
  Format.fprintf ppf "}@\n"

let to_string k = Format.asprintf "%a" pp k
