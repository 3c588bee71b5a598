(** Classification-guided policy advisor — the paper's Section X.A made
    concrete: instruction-feature-aware mechanisms selectively applied
    to load instructions.

    Combines the D/N classification, the static coalescing prediction
    and sequential-walk detection into a per-load hardware policy:
    deterministic loads are left alone, walking non-deterministic loads
    get next-line prefetch, true gathers get warp splitting. *)

type advice =
  | Leave_alone
  | Prefetch_next_line of int  (** sequential walk, byte step *)
  | Split_warp of int  (** sub-warp width *)

type load_advice = {
  la_kernel : string;
  la_pc : int;
  la_class : Dataflow.Classify.load_class;
  la_prediction : Dataflow.Stride.prediction;
  la_advice : advice;
}

val advise_app : Workloads.App.t -> Workloads.App.scale -> load_advice list
(** Advice for every distinct kernel the application launches. *)

val policies :
  load_advice list -> ((string * int) * Gsim.Config.load_policy) list
(** Per-pc simulator policies implementing the advice (feed into
    [Gsim.Config.pc_policies]). *)

val pp_advice : Format.formatter -> load_advice list -> unit
