(* A warp: [warp_size] threads executing in lockstep under a SIMT
   reconvergence stack (post-dominator based, as in GPGPU-Sim).

   [step] executes exactly one warp instruction *functionally* —
   register values, memory values and control flow are resolved
   immediately — and reports what happened so a caller can model
   timing on top (the cycle simulator) or just record a trace (the
   functional simulator). *)

open Ptx.Types

type mem_kind = Load | Store | Atomic

type mem_op = {
  m_pc : int;
  m_space : space;
  m_kind : mem_kind;
  m_mask : int; (* lanes active for this access *)
  m_addrs : int array; (* per-lane effective byte address *)
}

type step_result =
  | S_alu of Exec.unit_class (* SP or SFU instruction *)
  | S_mem of mem_op
  | S_barrier
  | S_exit_partial (* some lanes finished; warp continues *)
  | S_exit_warp (* all lanes finished *)

(* The memories this warp's CTA can see. *)
type mem_iface = {
  m_global : Mem.t; (* also serves const/tex/param, and atomics *)
  m_shared : Mem.t;
  m_local : Mem.t;
}

let mem_of_space iface = function
  | Global | Const | Tex | Param -> iface.m_global
  | Shared -> iface.m_shared
  | Local -> iface.m_local

type entry = { mutable spc : int; smask : int; sreconv : int }

type t = {
  warp_id : int; (* index within the CTA *)
  cta_lin : int; (* linearized CTA id *)
  kernel : Ptx.Kernel.t;
  decode : Decode.t; (* predecoded per-pc tables, shared per kernel *)
  state : Exec.state; (* registers, predicates, thread ids *)
  params : (string, int64) Hashtbl.t;
  mem : mem_iface;
  scratch_addrs : int array; (* reused [mem_op.m_addrs] buffer *)
  mutable stack : entry list;
  mutable warp_insts : int;
  mutable thread_insts : int;
}

(* Branch-free SWAR count: 2-, 4- then 8-bit partial sums, added up
   by the multiply into the top byte.  Exact for every non-negative
   int (a warp mask has at most 32 lanes). *)
let popcount mask =
  let x = mask - ((mask lsr 1) land 0x5555_5555_5555_5555) in
  let x = (x land 0x3333_3333_3333_3333) + ((x lsr 2) land 0x3333_3333_3333_3333) in
  let x = (x + (x lsr 4)) land 0x0F0F_0F0F_0F0F_0F0F in
  (x * 0x0101_0101_0101_0101) lsr 56

let full_mask n = (1 lsl n) - 1

let create ~warp_id ~cta_lin ~decode ~state ~valid_mask ~params ~mem kernel =
  {
    warp_id;
    cta_lin;
    kernel;
    decode;
    state;
    params;
    mem;
    scratch_addrs = Array.make (Exec.width state) (-1);
    stack = [ { spc = 0; smask = valid_mask; sreconv = -1 } ];
    warp_insts = 0;
    thread_insts = 0;
  }

let finished w = w.stack = []

let pc w = match w.stack with [] -> -1 | e :: _ -> e.spc

let active_mask w = match w.stack with [] -> 0 | e :: _ -> e.smask

let iter_active mask f =
  let m = ref mask in
  let lane = ref 0 in
  while !m <> 0 do
    if !m land 1 <> 0 then f !lane;
    m := !m lsr 1;
    incr lane
  done

(* Pop entries whose pc reached their own reconvergence point. *)
let rec merge w =
  match w.stack with
  | e :: rest when e.sreconv >= 0 && e.spc = e.sreconv ->
      w.stack <- rest;
      merge w
  | _ -> ()

let advance w npc =
  (match w.stack with
  | [] -> ()
  | e :: _ -> e.spc <- npc);
  merge w

let exec_branch w e pc guard target =
  let mask = e.smask in
  let taken_mask =
    match guard with
    | None -> mask
    | Some g -> Exec.taken_mask w.state g mask
  in
  let not_taken = mask land lnot taken_mask in
  let fallthrough = pc + 1 in
  if taken_mask = 0 then advance w fallthrough
  else if not_taken = 0 then advance w target
  else begin
    (* divergence *)
    let r = w.decode.Decode.reconv.(pc) in
    if r >= 0 then begin
      e.spc <- r;
      (* e becomes the reconvergence entry *)
      w.stack <-
        { spc = target; smask = taken_mask; sreconv = r }
        :: { spc = fallthrough; smask = not_taken; sreconv = r }
        :: w.stack;
      (* a path that starts at the reconvergence point (e.g. the skip
         branch of an if) merges immediately — it must not run the
         post-reconvergence tail on its own *)
      merge w
    end
    else begin
      (* reconverges only at exit: replace with the two paths *)
      w.stack <- List.tl w.stack;
      w.stack <-
        { spc = target; smask = taken_mask; sreconv = -1 }
        :: { spc = fallthrough; smask = not_taken; sreconv = -1 }
        :: w.stack
    end
  end

let rec skip_labels w =
  match w.stack with
  | [] -> ()
  | e :: _ ->
      if w.decode.Decode.is_label.(e.spc) then begin
        advance w (e.spc + 1);
        skip_labels w
      end

(* Functional unit the next instruction will occupy, without executing
   it (used by the SM issue stage for structural-hazard checks). *)
let peek_unit w =
  skip_labels w;
  match w.stack with
  | [] -> Exec.SP
  | e :: _ -> w.decode.Decode.units.(e.spc)

(* Execute one warp instruction.  Assumes the warp is not finished. *)
let step_unguarded w : step_result =
  skip_labels w;
  match w.stack with
  | [] -> S_exit_warp
  | e :: _ -> (
      let pc = e.spc in
      let mask = e.smask in
      let instr = w.kernel.Ptx.Kernel.body.(pc) in
      w.warp_insts <- w.warp_insts + 1;
      w.thread_insts <- w.thread_insts + popcount mask;
      match instr with
      | Ptx.Instr.Label _ ->
          Sim_error.error Sim_error.Internal
            "step reached a label pseudo-instruction"
      | Ptx.Instr.Exit ->
          w.stack <- List.tl w.stack;
          merge w;
          if w.stack = [] then S_exit_warp else S_exit_partial
      | Ptx.Instr.Bar ->
          advance w (pc + 1);
          S_barrier
      | Ptx.Instr.Bra (guard, _) ->
          exec_branch w e pc guard w.decode.Decode.bra_target.(pc);
          S_alu Exec.SP
      | Ptx.Instr.Ld_param (d, p) ->
          let v =
            match Hashtbl.find_opt w.params p with
            | Some v -> v
            | None ->
                let bound =
                  Hashtbl.fold (fun k _ acc -> k :: acc) w.params []
                  |> List.sort compare
                in
                Sim_error.error Sim_error.Unbound_param
                  "kernel %s: parameter %s is not bound (bound: %s)"
                  w.kernel.Ptx.Kernel.kname p
                  (if bound = [] then "none" else String.concat ", " bound)
          in
          Exec.broadcast w.state mask d v;
          advance w (pc + 1);
          S_alu Exec.SP
      | Ptx.Instr.Ld (sp, ty, d, a) ->
          Exec.load w.state mask (mem_of_space w.mem sp) ty d a w.scratch_addrs;
          advance w (pc + 1);
          S_mem
            { m_pc = pc; m_space = sp; m_kind = Load; m_mask = mask;
              m_addrs = w.scratch_addrs }
      | Ptx.Instr.St (sp, ty, a, v) ->
          Exec.store w.state mask (mem_of_space w.mem sp) ty a v w.scratch_addrs;
          advance w (pc + 1);
          S_mem
            { m_pc = pc; m_space = sp; m_kind = Store; m_mask = mask;
              m_addrs = w.scratch_addrs }
      | Ptx.Instr.Atom (op, ty, d, a, v) ->
          Exec.atomic w.state mask w.mem.m_global op ty d a v w.scratch_addrs;
          advance w (pc + 1);
          S_mem
            { m_pc = pc; m_space = Global; m_kind = Atomic; m_mask = mask;
              m_addrs = w.scratch_addrs }
      | Ptx.Instr.Mov _ | Ptx.Instr.Iop _ | Ptx.Instr.Mad _ | Ptx.Instr.Fop _
      | Ptx.Instr.Fma _ | Ptx.Instr.Funary _ | Ptx.Instr.Cvt _
      | Ptx.Instr.Setp _ | Ptx.Instr.Selp _ | Ptx.Instr.Pnot _
      | Ptx.Instr.Pand _ | Ptx.Instr.Por _ ->
          w.decode.Decode.alu.(pc) w.state mask;
          advance w (pc + 1);
          (* constant results, where [S_alu units.(pc)] would allocate *)
          (match w.decode.Decode.units.(pc) with
          | Exec.SP -> S_alu Exec.SP
          | Exec.SFU -> S_alu Exec.SFU
          | Exec.LDST -> S_alu Exec.LDST))

(* [step_unguarded] with execution context attached to any simulator
   fault: faulting instructions do not advance the pc, so [pc w] at
   catch time still names them. *)
let step w : step_result =
  try step_unguarded w with
  | Sim_error.Error e ->
      raise
        (Sim_error.Error
           (Sim_error.with_context ~kernel:w.kernel.Ptx.Kernel.kname
              ~pc:(pc w) ~cta:w.cta_lin ~warp:w.warp_id e))
