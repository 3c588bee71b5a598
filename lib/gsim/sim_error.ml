(* Structured simulator diagnostics.

   Every failure the simulator can hit at run time — a kernel the
   verifier rejects, an unbound parameter, an out-of-bounds memory
   access, a deadlocked barrier, a machine that stops making forward
   progress — is reported as one [t] carrying whatever execution
   context is known at the raise site: kernel name, pc, CTA, warp,
   cycle.  Inner layers (Mem, Exec) raise with no context; the warp
   and GPU layers attach what they know via [with_context] as the
   exception propagates, so the message that reaches the user pins the
   fault to an instruction, not just a subsystem.

   [Error] is registered with [Printexc], so even a worker process
   that only stringifies exceptions ships the structured rendering. *)

type kind =
  | Invalid_config (* a config field outside its bounds ([Config.check]) *)
  | Invalid_kernel (* rejected by the static verifier *)
  | Unbound_param (* ld.param of a parameter the launch never bound *)
  | Mem_fault (* out-of-bounds access *)
  | Barrier_deadlock (* part of a CTA waits at bar.sync forever *)
  | No_progress (* machine live-locked: cycles pass, nothing retires *)
  | Internal (* broken simulator invariant *)

type t = {
  e_kind : kind;
  e_kernel : string option;
  e_pc : int option;
  e_cta : int option;
  e_warp : int option;
  e_cycle : int option;
  e_msg : string;
}

exception Error of t

let kind_name = function
  | Invalid_config -> "invalid-config"
  | Invalid_kernel -> "invalid-kernel"
  | Unbound_param -> "unbound-param"
  | Mem_fault -> "mem-fault"
  | Barrier_deadlock -> "barrier-deadlock"
  | No_progress -> "no-progress"
  | Internal -> "internal"

let make ?kernel ?pc ?cta ?warp ?cycle kind fmt =
  Format.kasprintf
    (fun msg ->
      { e_kind = kind; e_kernel = kernel; e_pc = pc; e_cta = cta;
        e_warp = warp; e_cycle = cycle; e_msg = msg })
    fmt

let error ?kernel ?pc ?cta ?warp ?cycle kind fmt =
  Format.kasprintf
    (fun msg ->
      raise
        (Error
           { e_kind = kind; e_kernel = kernel; e_pc = pc; e_cta = cta;
             e_warp = warp; e_cycle = cycle; e_msg = msg }))
    fmt

(* Fill in the context fields the raise site did not know; existing
   values win, so the innermost (most precise) context is kept. *)
let with_context ?kernel ?pc ?cta ?warp ?cycle e =
  let keep own added = match own with Some _ -> own | None -> added in
  {
    e with
    e_kernel = keep e.e_kernel kernel;
    e_pc = keep e.e_pc pc;
    e_cta = keep e.e_cta cta;
    e_warp = keep e.e_warp warp;
    e_cycle = keep e.e_cycle cycle;
  }

let to_string e =
  let ctx =
    List.filter_map Fun.id
      [
        Option.map (fun k -> "kernel " ^ k) e.e_kernel;
        Option.map (Printf.sprintf "pc %d") e.e_pc;
        Option.map (Printf.sprintf "cta %d") e.e_cta;
        Option.map (Printf.sprintf "warp %d") e.e_warp;
        Option.map (Printf.sprintf "cycle %d") e.e_cycle;
      ]
  in
  Printf.sprintf "sim error [%s]%s: %s" (kind_name e.e_kind)
    (match ctx with [] -> "" | l -> " " ^ String.concat ", " l)
    e.e_msg

let () =
  Printexc.register_printer (function
    | Error e -> Some (to_string e)
    | _ -> None)
