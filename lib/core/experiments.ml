(* One function per paper table/figure.  Each returns structured rows
   (used by the tests) and can render itself as text (used by
   `critload experiment`).  The shapes to compare against the paper are
   noted in EXPERIMENTS.md. *)

module App = Workloads.App
module Suite = Workloads.Suite
module Stats = Gsim.Stats
module Config = Gsim.Config
open Dataflow.Classify

let cat_name = App.category_name

(* Caps keep the cycle simulations tractable; the paper similarly
   simulated only the first billion instructions. *)
let func_cap = 3_000_000

let timing_cap = ref 120_000

(* Override the per-app warp-instruction cap of the timing runs
   (`critload experiment --cap`). *)
let set_timing_cap n = timing_cap := n

let timing_cfg () =
  Config.default |> Config.with_caps ~max_warp_insts:!timing_cap ()

let all_apps = Suite.all

(* Experiments are exploratory drivers for the tests and
   `critload experiment`, which want a simulator failure as the
   exception it was. *)
let ok = function Ok r -> r | Error e -> raise (Gsim.Sim_error.Error e)

(* Cache of functional runs (several figures share them). *)
let func_results : (string * App.scale, Runner.func_result) Hashtbl.t =
  Hashtbl.create 16

let func_result scale app =
  let key = (app.App.name, scale) in
  match Hashtbl.find_opt func_results key with
  | Some r -> r
  | None ->
      let r =
        Runner.Report.func_exn
          (ok (Runner.run ~mode:Runner.Func ~scale ~check:false ~func_cap app))
      in
      Hashtbl.add func_results key r;
      r

(* Every timing run of the harness, keyed by the full configuration
   (its digest), so an ablation row at the figures' configuration
   reuses their run instead of simulating it again. *)
let timing_reports : (string * App.scale * string, Runner.Report.t) Hashtbl.t =
  Hashtbl.create 64

let timing_report ?(cfg = timing_cfg ()) scale app =
  let key = (app.App.name, scale, Gsim.Stats_io.config_digest cfg) in
  match Hashtbl.find_opt timing_reports key with
  | Some r -> r
  | None ->
      let r = ok (Runner.run ~cfg ~scale app) in
      Hashtbl.add timing_reports key r;
      r

(* ---------------- Table I ---------------- *)

type table1_row = {
  t1_name : string;
  t1_category : string;
  t1_ctas : int;
  t1_threads_per_cta : int;
  t1_total_insts : int; (* dynamic warp instructions *)
  t1_gld_insts : int; (* dynamic global-load warp instructions *)
  t1_gld_fraction : float;
}

let table1 scale =
  List.map
    (fun app ->
      let r = func_result scale app in
      let fs = r.Runner.fr_fs in
      let total = fs.Gsim.Funcsim.warp_insts in
      let gld = Gsim.Funcsim.total_gld_warps fs in
      {
        t1_name = app.App.name;
        t1_category = cat_name app.App.category;
        t1_ctas = r.Runner.fr_ctas;
        t1_threads_per_cta = r.Runner.fr_threads_per_cta;
        t1_total_insts = total;
        t1_gld_insts = gld;
        t1_gld_fraction =
          (if total = 0 then 0.0 else float_of_int gld /. float_of_int total);
      })
    all_apps

let render_table1 scale =
  Tables.render
    ~title:
      "Table I: application characteristics (dynamic warp instructions, \
       scaled datasets)"
    ~header:
      [ "app"; "category"; "CTAs"; "thr/CTA"; "total insts"; "global loads";
        "load frac" ]
    (List.map
       (fun r ->
         [ r.t1_name; r.t1_category; Tables.int r.t1_ctas;
           Tables.int r.t1_threads_per_cta; Tables.int r.t1_total_insts;
           Tables.int r.t1_gld_insts; Tables.pct r.t1_gld_fraction ])
       (table1 scale))

(* ---------------- Table II ---------------- *)

let render_table2 () =
  Format.asprintf
    "Table II: simulated configuration (Tesla C2050 / GPGPU-Sim defaults)@\n\
     %a@\n"
    Config.pp Config.default

(* ---------------- Table III ---------------- *)

let render_table3 scale =
  Tables.render
    ~title:"Table III: profiler-counter emulation (functional simulation)"
    ~header:
      [ "app"; "gld_request"; "shared_load"; "l1_hit"; "l1_miss";
        "l2_read_hits"; "l2_read_queries"; "l2_sector_queries" ]
    (List.map
       (fun app ->
         let r = func_result scale app in
         let c = Gsim.Funcsim.counters r.Runner.fr_fs in
         [ app.App.name; Tables.int c.Gsim.Funcsim.gld_request;
           Tables.int c.Gsim.Funcsim.shared_load;
           Tables.int c.Gsim.Funcsim.l1_global_load_hit;
           Tables.int c.Gsim.Funcsim.l1_global_load_miss;
           Tables.int c.Gsim.Funcsim.l2_read_hits;
           Tables.int c.Gsim.Funcsim.l2_read_queries;
           Tables.int c.Gsim.Funcsim.l2_read_sector_queries ])
       all_apps)

(* ---------------- Fig 1 ---------------- *)

type fig1_row = {
  f1_name : string;
  f1_static_d : int;
  f1_static_n : int;
  f1_dyn_d_fraction : float; (* fraction of executed global load warps *)
}

let fig1 scale =
  List.map
    (fun app ->
      let r = func_result scale app in
      {
        f1_name = app.App.name;
        f1_static_d = r.Runner.fr_static_d;
        f1_static_n = r.Runner.fr_static_n;
        f1_dyn_d_fraction = Gsim.Funcsim.deterministic_fraction r.Runner.fr_fs;
      })
    all_apps

let render_fig1 scale =
  Tables.render
    ~title:
      "Fig 1: deterministic vs non-deterministic global loads (static \
       instruction counts and dynamic warp fractions)"
    ~header:[ "app"; "static D"; "static N"; "static D frac"; "dynamic D frac" ]
    (List.map
       (fun r ->
         let tot = r.f1_static_d + r.f1_static_n in
         [ r.f1_name; Tables.int r.f1_static_d; Tables.int r.f1_static_n;
           (if tot = 0 then "-"
            else Tables.pct (float_of_int r.f1_static_d /. float_of_int tot));
           Tables.pct r.f1_dyn_d_fraction ])
       (fig1 scale))

(* ---------------- Fig 2 ---------------- *)

type fig2_row = {
  f2_name : string;
  f2_req_per_warp : load_class -> float;
  f2_req_per_thread : load_class -> float;
}

let fig2 scale =
  List.map
    (fun app ->
      let r = timing_report scale app in
      {
        f2_name = app.App.name;
        f2_req_per_warp = Stats.requests_per_warp (Runner.Report.stats_exn r);
        f2_req_per_thread = Stats.requests_per_active_thread (Runner.Report.stats_exn r);
      })
    all_apps

let render_fig2 scale =
  Tables.render
    ~title:
      "Fig 2: memory requests per warp and per active thread (N = \
       non-deterministic, D = deterministic)"
    ~header:[ "app"; "req/warp N"; "req/warp D"; "req/thread N"; "req/thread D" ]
    (List.map
       (fun r ->
         [ r.f2_name;
           Tables.f2 (r.f2_req_per_warp Nondeterministic);
           Tables.f2 (r.f2_req_per_warp Deterministic);
           Tables.f2 (r.f2_req_per_thread Nondeterministic);
           Tables.f2 (r.f2_req_per_thread Deterministic) ])
       (fig2 scale))

(* ---------------- Fig 3 ---------------- *)

let fig3 scale app =
  let r = timing_report scale app in
  Stats.l1_cycle_breakdown (Runner.Report.stats_exn r)

let render_fig3 scale =
  Tables.render
    ~title:"Fig 3: breakdown of L1 data-cache access cycles"
    ~header:
      [ "app"; "hit"; "hit_resv"; "miss"; "fail_tags"; "fail_mshr";
        "fail_icnt" ]
    (List.map
       (fun app ->
         let b = fig3 scale app in
         app.App.name :: List.map Tables.pct (Array.to_list b))
       all_apps)

(* ---------------- Fig 4 ---------------- *)

let fig4 scale app =
  let r = timing_report scale app in
  let n_sms = r.Runner.Report.cfg.Config.n_sms in
  ( Stats.unit_busy_fraction (Runner.Report.stats_exn r) ~n_sms Gsim.Exec.SP,
    Stats.unit_busy_fraction (Runner.Report.stats_exn r) ~n_sms Gsim.Exec.SFU,
    Stats.unit_busy_fraction (Runner.Report.stats_exn r) ~n_sms Gsim.Exec.LDST )

let render_fig4 scale =
  Tables.render
    ~title:"Fig 4: busy fraction of each execution unit's first stage"
    ~header:[ "app"; "SP"; "SFU"; "LD/ST" ]
    (List.map
       (fun app ->
         let sp, sfu, ldst = fig4 scale app in
         [ app.App.name; Tables.pct sp; Tables.pct sfu; Tables.pct ldst ])
       all_apps)

(* ---------------- Fig 5 ---------------- *)

let fig5 scale app =
  let r = timing_report scale app in
  ( Stats.turnaround_breakdown (Runner.Report.stats_exn r) Nondeterministic,
    Stats.turnaround_breakdown (Runner.Report.stats_exn r) Deterministic )

let render_fig5 scale =
  Tables.render
    ~title:
      "Fig 5: average load turnaround breakdown (cycles): unloaded latency \
       + rsrv-fail by previous warps + rsrv-fail by current warp + wasted \
       in L2/DRAM"
    ~header:
      [ "app"; "cls"; "unloaded"; "rsrv_prev"; "rsrv_cur"; "wasted"; "total" ]
    (List.concat_map
       (fun app ->
         let n, d = fig5 scale app in
         let row cls (u, p, c, w) =
           [ app.App.name; short_class cls; Tables.f1 u; Tables.f1 p;
             Tables.f1 c; Tables.f1 w; Tables.f1 (u +. p +. c +. w) ]
         in
         [ row Nondeterministic n; row Deterministic d ])
       all_apps)

(* ---------------- Fig 6 / Fig 7 ---------------- *)

(* Most informative load pc of a class: widest spread of
   requests-per-warp buckets (the paper picked pcs whose request count
   varies), tie-broken by executed warps. *)
let hottest_pc stats cls =
  let score (ps : Stats.pc_stats) =
    (Hashtbl.length ps.Stats.ps_by_nreq, ps.Stats.ps_warps)
  in
  Hashtbl.fold
    (fun _ (ps : Stats.pc_stats) best ->
      if ps.Stats.ps_cls <> cls then best
      else
        match best with
        | Some b when score b >= score ps -> best
        | _ -> Some ps)
    stats.Stats.per_pc None

type fig6_series = {
  f6_app : string;
  f6_kernel : string;
  f6_pc : int;
  f6_cls : load_class;
  f6_points : (int * float) list; (* nreq -> avg turnaround *)
}

let series_of_pc app (ps : Stats.pc_stats) =
  {
    f6_app = app.App.name;
    f6_kernel = ps.Stats.ps_kernel;
    f6_pc = ps.Stats.ps_pc;
    f6_cls = ps.Stats.ps_cls;
    f6_points =
      Hashtbl.fold
        (fun n (b : Stats.nreq_bucket) acc ->
          ( n,
            float_of_int b.Stats.nb_turnaround /. float_of_int (max 1 b.Stats.nb_count)
          )
          :: acc)
        ps.Stats.ps_by_nreq []
      |> List.sort compare;
  }

let fig6 scale =
  List.concat_map
    (fun name ->
      let app = Suite.find name in
      let r = timing_report scale app in
      List.filter_map
        (fun cls ->
          Option.map (series_of_pc app) (hottest_pc (Runner.Report.stats_exn r) cls))
        [ Nondeterministic; Deterministic ])
    [ "bfs"; "sssp"; "spmv" ]

let render_fig6 scale =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "Fig 6: load turnaround vs number of generated requests (selected load \
     pcs from bfs, sssp, spmv)\n";
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "%s (%s pc=0x%x, %s): %s\n" s.f6_app s.f6_kernel
           s.f6_pc
           (short_class s.f6_cls)
           (String.concat " "
              (List.map
                 (fun (n, t) -> Printf.sprintf "%d:%.0f" n t)
                 s.f6_points)));
      ())
    (fig6 scale);
  Buffer.contents buf

type fig7_row = {
  f7_nreq : int;
  f7_count : int;
  f7_common : float;
  f7_gap_l1d : float;
  f7_gap_icnt_l2 : float;
  f7_gap_l2_icnt : float;
}

let fig7 scale =
  let app = Suite.find "bfs" in
  let r = timing_report scale app in
  match hottest_pc (Runner.Report.stats_exn r) Nondeterministic with
  | None -> ((" none", 0), [])
  | Some ps ->
      ( (ps.Stats.ps_kernel, ps.Stats.ps_pc),
        Hashtbl.fold
          (fun n (b : Stats.nreq_bucket) acc ->
            let c = float_of_int (max 1 b.Stats.nb_count) in
            {
              f7_nreq = n;
              f7_count = b.Stats.nb_count;
              f7_common = float_of_int b.Stats.nb_common /. c;
              f7_gap_l1d = float_of_int b.Stats.nb_gap_l1d /. c;
              f7_gap_icnt_l2 = float_of_int b.Stats.nb_gap_icnt_l2 /. c;
              f7_gap_l2_icnt = float_of_int b.Stats.nb_gap_l2_icnt /. c;
            }
            :: acc)
          ps.Stats.ps_by_nreq []
        |> List.sort compare )

let render_fig7 scale =
  let (kernel, pc), rows = fig7 scale in
  Tables.render
    ~title:
      (Printf.sprintf
         "Fig 7: turnaround breakdown vs #requests for the hottest \
          non-deterministic load (%s pc=0x%x)"
         kernel pc)
    ~header:
      [ "#req"; "samples"; "common"; "gap@L1D"; "gap@icnt-L2"; "gap@L2-icnt" ]
    (List.map
       (fun r ->
         [ Tables.int r.f7_nreq; Tables.int r.f7_count; Tables.f1 r.f7_common;
           Tables.f1 r.f7_gap_l1d; Tables.f1 r.f7_gap_icnt_l2;
           Tables.f1 r.f7_gap_l2_icnt ])
       rows)

(* ---------------- Fig 8 ---------------- *)

let fig8 scale app =
  let r = timing_report scale app in
  let s = (Runner.Report.stats_exn r) in
  ( (Stats.l1_miss_ratio s Nondeterministic, Stats.l2_miss_ratio s Nondeterministic),
    (Stats.l1_miss_ratio s Deterministic, Stats.l2_miss_ratio s Deterministic) )

let render_fig8 scale =
  Tables.render
    ~title:"Fig 8: L1 and L2 miss ratios by load class"
    ~header:[ "app"; "L1 N"; "L1 D"; "L2 N"; "L2 D" ]
    (List.map
       (fun app ->
         let (l1n, l2n), (l1d, l2d) = fig8 scale app in
         [ app.App.name; Tables.pct l1n; Tables.pct l1d; Tables.pct l2n;
           Tables.pct l2d ])
       all_apps)

(* ---------------- Fig 9 ---------------- *)

let fig9 scale app =
  Gsim.Funcsim.shared_per_global (func_result scale app).Runner.fr_fs

let render_fig9 scale =
  Tables.render
    ~title:"Fig 9: shared-memory loads per global-memory load"
    ~header:[ "app"; "shared/global" ]
    (List.map
       (fun app -> [ app.App.name; Tables.f2 (fig9 scale app) ])
       all_apps)

(* ---------------- Fig 10 ---------------- *)

let fig10 scale app =
  let fs = (func_result scale app).Runner.fr_fs in
  (Gsim.Funcsim.cold_miss_ratio fs, Gsim.Funcsim.avg_accesses_per_block fs)

let render_fig10 scale =
  Tables.render
    ~title:"Fig 10: cold-miss ratio and average accesses per 128B block"
    ~header:[ "app"; "cold miss"; "accesses/block" ]
    (List.map
       (fun app ->
         let cold, avg = fig10 scale app in
         [ app.App.name; Tables.pct cold; Tables.f1 avg ])
       all_apps)

(* ---------------- Fig 11 ---------------- *)

let fig11 scale app = Gsim.Funcsim.sharing (func_result scale app).Runner.fr_fs

let render_fig11 scale =
  Tables.render
    ~title:"Fig 11: data blocks shared by multiple CTAs"
    ~header:
      [ "app"; "shared-block ratio"; "shared-access ratio"; "avg CTAs/block" ]
    (List.map
       (fun app ->
         let s = fig11 scale app in
         [ app.App.name;
           Tables.pct s.Gsim.Funcsim.sh_block_ratio;
           Tables.pct s.Gsim.Funcsim.sh_access_ratio;
           Tables.f1 s.Gsim.Funcsim.sh_avg_ctas ])
       all_apps)

(* ---------------- Fig 12 ---------------- *)

let fig12 scale app =
  Gsim.Funcsim.cta_distance_histogram (func_result scale app).Runner.fr_fs

let render_fig12 scale =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "Fig 12: CTA-distance frequency for blocks shared by multiple CTAs \
     (top 8 distances per app)\n";
  List.iter
    (fun cat ->
      Buffer.add_string buf
        (Printf.sprintf "-- %s --\n" (cat_name cat));
      List.iter
        (fun app ->
          let hist = fig12 scale app in
          let top =
            List.sort (fun (_, a) (_, b) -> compare b a) hist |> fun l ->
            List.filteri (fun i _ -> i < 8) l
          in
          Buffer.add_string buf
            (Printf.sprintf "%-6s %s\n" app.App.name
               (String.concat " "
                  (List.map
                     (fun (d, f) -> Printf.sprintf "d%d:%.0f%%" d (100. *. f))
                     top))))
        (Suite.by_category cat))
    [ App.Linear; App.Image; App.Graph ];
  Buffer.contents buf

(* ---------------- input-size sensitivity ---------------- *)

(* Burtscher et al. (the paper's related work) found that irregularity
   does not change drastically with input size; this experiment checks
   the same for the classification-based metrics. *)
type sensitivity_row = {
  sn_app : string;
  sn_scale : string;
  sn_dyn_d_fraction : float;
  sn_req_per_thread_n : float;
}

let sensitivity apps =
  List.concat_map
    (fun name ->
      let app = Suite.find name in
      List.map
        (fun scale ->
          let r = func_result scale app in
          let fs = r.Runner.fr_fs in
          {
            sn_app = name;
            sn_scale = App.string_of_scale scale;
            sn_dyn_d_fraction = Gsim.Funcsim.deterministic_fraction fs;
            sn_req_per_thread_n =
              Gsim.Funcsim.requests_per_active_thread fs Nondeterministic;
          })
        [ App.Small; App.Default ])
    apps

let render_sensitivity () =
  Tables.render
    ~title:
      "Input-size sensitivity: the D/N mix and N coalescing barely move \
       with dataset size (cf. Burtscher et al.)"
    ~header:[ "app"; "scale"; "dynamic D frac"; "N req/thread" ]
    (List.map
       (fun r ->
         [ r.sn_app; r.sn_scale; Tables.pct r.sn_dyn_d_fraction;
           Tables.f2 r.sn_req_per_thread_n ])
       (sensitivity [ "spmv"; "bfs"; "ccl"; "mis"; "srad" ]))

(* ---------------- Section X ablations ---------------- *)

type ablation_row = {
  ab_app : string;
  ab_variant : string;
  ab_cycles : int;
  ab_l1_miss_n : float;
  ab_turnaround_n : float;
  ab_fail_frac : float; (* fraction of L1 cycles lost to rsrv fails *)
}

let ablation_run scale app cfg variant =
  let s = Runner.Report.stats_exn (timing_report ~cfg scale app) in
  let b = Stats.l1_cycle_breakdown s in
  {
    ab_app = app.App.name;
    ab_variant = variant;
    ab_cycles = s.Stats.cycles;
    ab_l1_miss_n = Stats.l1_miss_ratio s Nondeterministic;
    ab_turnaround_n = Stats.avg_turnaround s Nondeterministic;
    ab_fail_frac = b.(3) +. b.(4) +. b.(5);
  }

let render_ablation ~title rows =
  Tables.render ~title
    ~header:[ "app"; "variant"; "cycles"; "L1 miss N"; "turnaround N"; "rsrv-fail frac" ]
    (List.map
       (fun r ->
         [ r.ab_app; r.ab_variant; Tables.int r.ab_cycles;
           Tables.pct r.ab_l1_miss_n; Tables.f1 r.ab_turnaround_n;
           Tables.pct r.ab_fail_frac ])
       rows)

let graph_apps = Suite.by_category App.Graph
let graph_and_spmv = graph_apps @ [ Suite.find "spmv" ]

type ablation = {
  abl_id : string;
  abl_title : string;
  abl_apps : App.t list;
  abl_variants : (string * (Config.t -> Config.t)) list;
}

(* The same-shaped ablations.  A variant is a named edit of
   [timing_cfg ()]; "baseline" edits nothing, so it is the figures'
   run. *)
let ablations =
  let baseline = ("baseline", Fun.id) in
  let ndet fl = Config.with_policy (Config.Ndet_flags fl) in
  [ {
      abl_id = "ablate-split";
      abl_title =
        "Section X.A ablation: warp splitting for non-deterministic loads \
         (graph applications)";
      abl_apps = graph_apps;
      abl_variants =
        [ baseline;
          ("split8", ndet { Config.no_policy with lp_split = 8 });
          ("split4", ndet { Config.no_policy with lp_split = 4 }) ];
    };
    {
      abl_id = "ablate-cta";
      abl_title =
        "Section X.B ablation: CTA scheduling (round-robin vs clustered)";
      abl_apps = all_apps;
      abl_variants =
        [ ("round-robin", Config.with_cta_sched Config.Round_robin);
          ("cluster2", Config.with_cta_sched (Config.Clustered 2));
          ("cluster4", Config.with_cta_sched (Config.Clustered 4)) ];
    };
    {
      abl_id = "ablate-prefetch";
      abl_title =
        "Section X.A discussion: next-line prefetching applied only to \
         non-deterministic loads (graph apps + spmv)";
      abl_apps = graph_and_spmv;
      abl_variants =
        [ baseline;
          ("prefetch-N", ndet { Config.no_policy with lp_prefetch = true }) ];
    };
    {
      abl_id = "ablate-bypass";
      abl_title =
        "Instruction-aware L1 bypass: non-deterministic loads skip the L1, \
         leaving tags/MSHRs to deterministic traffic (graph apps + spmv)";
      abl_apps = graph_and_spmv;
      abl_variants =
        [ baseline;
          ("bypass-N", ndet { Config.no_policy with lp_bypass = true }) ];
    };
    {
      abl_id = "ablate-warpsched";
      abl_title =
        "Warp scheduling: loose round-robin (paper-era default) vs \
         greedy-then-oldest";
      abl_apps = all_apps;
      abl_variants =
        List.map
          (fun w -> (Config.warp_sched_name w, Config.with_warp_sched w))
          Config.warp_scheds;
    } ]

let ablation_rows scale a =
  List.concat_map
    (fun app ->
      List.map
        (fun (name, edit) -> ablation_run scale app (edit (timing_cfg ())) name)
        a.abl_variants)
    a.abl_apps

(* advisor-guided per-pc policies vs the global one-knob variants *)
let advice scale =
  List.map (fun app -> (app, Advisor.advise_app app scale)) graph_and_spmv

let advisor_rows scale (app, advice) =
  let guided =
    match Advisor.policies advice with
    | [] -> timing_cfg ()
    | ps -> timing_cfg () |> Config.(with_policy (Per_pc (ps, Baseline)))
  in
  [ ablation_run scale app (timing_cfg ()) "baseline";
    ablation_run scale app guided "advisor" ]

let render_ablate_advisor scale =
  let advice = advice scale in
  "Per-load advice (classification x stride x walk detection):\n"
  ^ String.concat ""
      (List.map (fun (_, a) -> Format.asprintf "%a" Advisor.pp_advice a) advice)
  ^ "\n"
  ^ render_ablation
      ~title:
        "Section X.A realized: advisor-guided per-instruction policies \
         (prefetch walking N loads, split gathering N loads)"
      (List.concat_map (advisor_rows scale) advice)

let ablate_l2 scale =
  List.concat_map
    (fun app ->
      List.map
        (fun (k, name) ->
          let cfg = timing_cfg () |> Config.with_l2_cluster k in
          let s = Runner.Report.stats_exn (timing_report ~cfg scale app) in
          ( app.App.name,
            name,
            s.Stats.cycles,
            Stats.l2_miss_ratio s Nondeterministic,
            Stats.avg_turnaround s Nondeterministic ))
        [ (0, "global-L2"); (2, "cluster2"); (7, "cluster7") ])
    all_apps

let render_ablate_l2 scale =
  Tables.render
    ~title:"Section X.C ablation: semi-global L2 (SM clusters own L2 slices)"
    ~header:[ "app"; "variant"; "cycles"; "L2 miss N"; "turnaround N" ]
    (List.map
       (fun (app, v, cycles, miss, turn) ->
         [ app; v; Tables.int cycles; Tables.pct miss; Tables.f1 turn ])
       (ablate_l2 scale))

(* ---------------- the experiment table ---------------- *)

let all =
  let ablation id =
    let a = List.find (fun a -> a.abl_id = id) ablations in
    (id, fun scale -> render_ablation ~title:a.abl_title (ablation_rows scale a))
  in
  [ ("table1", render_table1);
    ("table2", fun _ -> render_table2 ());
    ("table3", render_table3);
    ("fig1", render_fig1);
    ("fig2", render_fig2);
    ("fig3", render_fig3);
    ("fig4", render_fig4);
    ("fig5", render_fig5);
    ("fig6", render_fig6);
    ("fig7", render_fig7);
    ("fig8", render_fig8);
    ("fig9", render_fig9);
    ("fig10", render_fig10);
    ("fig11", render_fig11);
    ("fig12", render_fig12);
    ablation "ablate-split";
    ablation "ablate-cta";
    ("ablate-l2", render_ablate_l2);
    ablation "ablate-prefetch";
    ablation "ablate-bypass";
    ablation "ablate-warpsched";
    ("ablate-advisor", render_ablate_advisor);
    ("sensitivity", fun _ -> render_sensitivity ()) ]

(* ---------------- memory-system policy sweep ---------------- *)

(* The tentpole comparison: every app under every first-class policy,
   run through the cached parallel sweep runner with profiling on, so
   the per-class reservation-fail cycles (the paper's Fig 3 wasted
   cycles, split D/N by the profile reducer) can be compared against
   the baseline next to the raw speedup. *)

type policy_row = {
  po_app : string;
  po_category : string;
  po_policy : string;
  po_cycles : int;
  po_speedup : float; (* baseline cycles / policy cycles; 1.0 = baseline *)
  po_fail_d : int; (* D-class L1 reservation-fail probe cycles *)
  po_fail_n : int;
  po_fail_n_delta : float; (* relative N-fail change vs baseline *)
}

let policy_sweep ?(policies = Config.named_policies) ?(workers = 4) scale =
  let module P = Parsweep in
  let cfg = timing_cfg () in
  let cfgs =
    List.map
      (fun p -> (Config.policy_name p, cfg |> Config.with_policy p))
      policies
  in
  let apps = List.map (fun (a : App.t) -> a.App.name) all_apps in
  let job_list =
    P.jobs ~apps ~scales:[ scale ] ~cfgs ~profile:true ()
  in
  let outcomes = P.run ~workers job_list in
  let class_fails (tm : P.timing_summary) i =
    match tm.P.tm_profile with
    | Some p -> Array.fold_left ( + ) 0 p.Gsim.Profile.per_class.(i).Gsim.Profile.cp_l1_fail
    | None -> 0
  in
  let decoded =
    List.concat
      (List.mapi
         (fun i (j : P.job) ->
           match outcomes.(i) with
           | P.Failed _ -> []
           | P.Completed payload ->
               [ (j, P.timing_summary_of_json payload) ])
         job_list)
  in
  let baseline app =
    List.find_opt
      (fun ((j : P.job), _) -> j.P.sj_app = app && j.P.sj_label = "baseline")
      decoded
  in
  List.map
    (fun ((j : P.job), tm) ->
      let cycles = tm.P.tm_stats.Stats.cycles in
      let fail_n = class_fails tm (Stats.cls_index Nondeterministic) in
      let speedup, fail_n_delta =
        match baseline j.P.sj_app with
        | Some (_, base) ->
            let bc = base.P.tm_stats.Stats.cycles in
            let bf = class_fails base (Stats.cls_index Nondeterministic) in
            ( (if cycles = 0 then 1.0
               else float_of_int bc /. float_of_int cycles),
              float_of_int (fail_n - bf) /. float_of_int (max 1 bf) )
        | None -> (1.0, 0.0)
      in
      {
        po_app = j.P.sj_app;
        po_category = cat_name (Suite.find j.P.sj_app).App.category;
        po_policy = j.P.sj_label;
        po_cycles = cycles;
        po_speedup = speedup;
        po_fail_d = class_fails tm (Stats.cls_index Deterministic);
        po_fail_n = fail_n;
        po_fail_n_delta = fail_n_delta;
      })
    decoded

let render_policy_rows rows =
  Tables.render
    ~title:
      "Memory-system policies: cycles, speedup over baseline, and \
       L1 reservation-fail cycles by load class"
    ~header:
      [ "app"; "cat"; "policy"; "cycles"; "speedup"; "D fails"; "N fails";
        "N-fail delta" ]
    (List.map
       (fun r ->
         [ r.po_app; r.po_category; r.po_policy; Tables.int r.po_cycles;
           Tables.f2 r.po_speedup; Tables.int r.po_fail_d;
           Tables.int r.po_fail_n; Tables.pct r.po_fail_n_delta ])
       rows)

let policy_rows_to_json scale rows =
  let module J = Gsim.Stats_io.Json in
  J.Obj
    [ ("schema", J.Str "critload-bench-policies-v1");
      ("scale", J.Str (App.string_of_scale scale));
      ( "rows",
        J.Arr
          (List.map
             (fun r ->
               J.Obj
                 [ ("app", J.Str r.po_app);
                   ("category", J.Str r.po_category);
                   ("policy", J.Str r.po_policy);
                   ("cycles", J.Int r.po_cycles);
                   ("speedup", J.Float r.po_speedup);
                   ("l1_fail_cycles_d", J.Int r.po_fail_d);
                   ("l1_fail_cycles_n", J.Int r.po_fail_n);
                   ("n_fail_delta", J.Float r.po_fail_n_delta) ])
             rows) ) ]
