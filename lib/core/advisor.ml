(* Classification-guided policy advisor — the paper's Section X.A made
   concrete: "design instruction-feature-aware mechanisms that can be
   selectively applied to load instructions according to their
   characteristics".

   For every global load the advisor combines three static analyses —
   the D/N classification (the paper's core), the lane-stride
   coalescing prediction, and sequential-walk detection — into a
   per-instruction hardware policy:

     - deterministic / statically coalesced loads: leave alone;
     - non-deterministic loads that walk sequentially (edge arrays):
       next-line prefetch, the [16]-style specialization;
     - other non-deterministic loads (true gathers): warp splitting to
       throttle their reservation bursts.

   [policies] converts the advice into the per-pc overrides the
   simulator's Config accepts, so the guided machine can be compared
   against the one-knob global variants. *)

module Classify = Dataflow.Classify
module Stride = Dataflow.Stride
module Induction = Dataflow.Induction

type advice =
  | Leave_alone
  | Prefetch_next_line of int (* sequential walk, byte step *)
  | Split_warp of int (* sub-warp width *)

type load_advice = {
  la_kernel : string;
  la_pc : int;
  la_class : Classify.load_class;
  la_prediction : Stride.prediction;
  la_advice : advice;
}

let string_of_advice = function
  | Leave_alone -> "leave alone"
  | Prefetch_next_line s -> Printf.sprintf "prefetch (walks %+dB/iter)" s
  | Split_warp w -> Printf.sprintf "split into %d-lane sub-warps" w

let split_width = 8

(* Advice for each global load of a launched kernel, from the launch's
   own analysis and classes; coalescing is predicted for its block. *)
let advise_launch (l : Gsim.Launch.t) =
  let an = l.Gsim.Launch.analysis and classes = l.Gsim.Launch.classes in
  let walks = Induction.walking_loads an in
  List.map
    (fun (lp : Stride.load_prediction) ->
      let pc = lp.Stride.lp_pc in
      let cls =
        Option.value ~default:Classify.Deterministic
          (Classify.class_of_global_load classes pc)
      in
      let walk =
        List.find_map
          (fun (w : Induction.walk) ->
            if w.Induction.w_pc = pc then Some w.Induction.w_step else None)
          walks
      in
      let advice =
        match (cls, walk) with
        | Classify.Deterministic, _ -> Leave_alone
        | Classify.Nondeterministic, Some s when abs s <= 32 && s <> 0 ->
            Prefetch_next_line s
        | Classify.Nondeterministic, _ -> (
            match lp.Stride.lp_prediction with
            | Stride.Irregular -> Split_warp split_width
            | Stride.Broadcast | Stride.Coalesced _ | Stride.Strided _ ->
                Leave_alone)
      in
      {
        la_kernel = l.Gsim.Launch.kernel.Ptx.Kernel.kname;
        la_pc = pc;
        la_class = cls;
        la_prediction = lp.Stride.lp_prediction;
        la_advice = advice;
      })
    (Stride.predict ~block:l.Gsim.Launch.block an)

(* Advice for every distinct kernel an application launches. *)
let advise_app (app : Workloads.App.t) scale =
  List.concat_map advise_launch
    (Workloads.App.kernel_launches (app.Workloads.App.make scale))

(* Per-pc simulator policies implementing the advice. *)
let policies advice_list =
  List.filter_map
    (fun la ->
      match la.la_advice with
      | Leave_alone -> None
      | Prefetch_next_line _ ->
          Some
            ( (la.la_kernel, la.la_pc),
              { Gsim.Config.no_policy with Gsim.Config.lp_prefetch = true } )
      | Split_warp w ->
          Some
            ( (la.la_kernel, la.la_pc),
              { Gsim.Config.no_policy with Gsim.Config.lp_split = w } ))
    advice_list

let pp_advice ppf advice_list =
  List.iter
    (fun la ->
      Format.fprintf ppf "  %-14s pc %3d  %s  %-14s -> %s@\n" la.la_kernel
        la.la_pc
        (Classify.short_class la.la_class)
        (Stride.string_of_prediction la.la_prediction)
        (string_of_advice la.la_advice))
    advice_list
