(* Unit tests for the GPU-simulator components: cache + MSHR outcomes,
   coalescer, interconnect, memory partition, and warp-level SIMT
   divergence semantics. *)

open Ptx.Types
module B = Ptx.Builder

let mk_req ?(sm = 0) ?(kind = Gsim.Request.Load) ?(cta = -1) line =
  Gsim.Request.make ~cta ~line_addr:line ~sm_id:sm ~kind
    ~cls:Dataflow.Classify.Deterministic ~wl:None

let outcome =
  Alcotest.testable
    (fun ppf o ->
      Format.pp_print_string ppf
        (match o with
        | Gsim.Cache.Hit -> "Hit"
        | Gsim.Cache.Hit_reserved -> "Hit_reserved"
        | Gsim.Cache.Miss -> "Miss"
        | Gsim.Cache.Rsrv_fail Gsim.Cache.Fail_tags -> "Fail_tags"
        | Gsim.Cache.Rsrv_fail Gsim.Cache.Fail_mshr -> "Fail_mshr"
        | Gsim.Cache.Rsrv_fail Gsim.Cache.Fail_icnt -> "Fail_icnt"))
    ( = )

(* ---------------- cache + MSHR ---------------- *)

let small_cache ?(mshr = 4) ?(merge = 2) () =
  Gsim.Cache.create ~sets:2 ~ways:2 ~line_size:128 ~mshr_entries:mshr
    ~mshr_max_merge:merge

let test_cache_miss_then_hit () =
  let c = small_cache () in
  Alcotest.check outcome "first access misses" Gsim.Cache.Miss
    (Gsim.Cache.access_load c ~req:(mk_req 0) ~icnt_ok:true);
  Alcotest.check outcome "in-flight access merges" Gsim.Cache.Hit_reserved
    (Gsim.Cache.access_load c ~req:(mk_req 0) ~icnt_ok:true);
  let waiters = Gsim.Cache.fill c ~line_addr:0 in
  Alcotest.(check int) "two waiters released" 2 (List.length waiters);
  Alcotest.check outcome "after fill it hits" Gsim.Cache.Hit
    (Gsim.Cache.access_load c ~req:(mk_req 0) ~icnt_ok:true)

let test_cache_merge_limit () =
  let c = small_cache ~merge:2 () in
  ignore (Gsim.Cache.access_load c ~req:(mk_req 0) ~icnt_ok:true);
  Alcotest.check outcome "merge 2" Gsim.Cache.Hit_reserved
    (Gsim.Cache.access_load c ~req:(mk_req 0) ~icnt_ok:true);
  Alcotest.check outcome "merge capacity exhausted"
    (Gsim.Cache.Rsrv_fail Gsim.Cache.Fail_mshr)
    (Gsim.Cache.access_load c ~req:(mk_req 0) ~icnt_ok:true)

let test_cache_tag_reservation_fail () =
  let c = small_cache ~mshr:16 () in
  (* set 0 holds lines 0 and 512 (2 sets * 128B); both ways reserved *)
  Alcotest.check outcome "miss 1" Gsim.Cache.Miss
    (Gsim.Cache.access_load c ~req:(mk_req 0) ~icnt_ok:true);
  Alcotest.check outcome "miss 2" Gsim.Cache.Miss
    (Gsim.Cache.access_load c ~req:(mk_req 512) ~icnt_ok:true);
  Alcotest.check outcome "set full of reserved lines"
    (Gsim.Cache.Rsrv_fail Gsim.Cache.Fail_tags)
    (Gsim.Cache.access_load c ~req:(mk_req 1024) ~icnt_ok:true);
  (* the other set is unaffected *)
  Alcotest.check outcome "other set misses normally" Gsim.Cache.Miss
    (Gsim.Cache.access_load c ~req:(mk_req 128) ~icnt_ok:true)

let test_cache_mshr_exhaustion () =
  let c = small_cache ~mshr:1 () in
  Alcotest.check outcome "miss reserves the single mshr" Gsim.Cache.Miss
    (Gsim.Cache.access_load c ~req:(mk_req 0) ~icnt_ok:true);
  Alcotest.check outcome "no mshr left (different set)"
    (Gsim.Cache.Rsrv_fail Gsim.Cache.Fail_mshr)
    (Gsim.Cache.access_load c ~req:(mk_req 128) ~icnt_ok:true)

let test_cache_icnt_fail () =
  let c = small_cache () in
  Alcotest.check outcome "icnt full blocks the miss"
    (Gsim.Cache.Rsrv_fail Gsim.Cache.Fail_icnt)
    (Gsim.Cache.access_load c ~req:(mk_req 0) ~icnt_ok:false);
  (* no state was reserved: a retry with space succeeds *)
  Alcotest.check outcome "retry succeeds" Gsim.Cache.Miss
    (Gsim.Cache.access_load c ~req:(mk_req 0) ~icnt_ok:true)

let test_cache_lru_eviction () =
  let c = small_cache () in
  let touch line =
    (match Gsim.Cache.access_load c ~req:(mk_req line) ~icnt_ok:true with
    | Gsim.Cache.Miss -> ignore (Gsim.Cache.fill c ~line_addr:line)
    | _ -> ())
  in
  touch 0;
  touch 512;
  (* set 0 now holds {0, 512}; touching 0 makes 512 the LRU *)
  touch 0;
  touch 1024;
  (* 512 must have been evicted, 0 retained *)
  Alcotest.check outcome "retained MRU line" Gsim.Cache.Hit
    (Gsim.Cache.access_load c ~req:(mk_req 0) ~icnt_ok:true);
  Alcotest.check outcome "evicted LRU line" Gsim.Cache.Miss
    (Gsim.Cache.access_load c ~req:(mk_req 512) ~icnt_ok:true)

let test_cache_invalidate_and_write_allocate () =
  let c = small_cache () in
  ignore (Gsim.Cache.access_load c ~req:(mk_req 0) ~icnt_ok:true);
  ignore (Gsim.Cache.fill c ~line_addr:0);
  Gsim.Cache.invalidate c ~line_addr:0;
  Alcotest.check outcome "invalidated line misses" Gsim.Cache.Miss
    (Gsim.Cache.access_load c ~req:(mk_req 0) ~icnt_ok:true);
  Alcotest.(check bool) "write allocate succeeds" true
    (Gsim.Cache.write_allocate c ~line_addr:128);
  Alcotest.check outcome "write-allocated line hits" Gsim.Cache.Hit
    (Gsim.Cache.access_load c ~req:(mk_req 128) ~icnt_ok:true)

(* [touch] against a list-based LRU model: a set is its resident lines,
   most recent first.  A hit moves the line to the front; a miss puts
   it there and, when the set is full, drops the last (least recent)
   line.  Line numbers range over twice the cache's capacity, so
   streams both hit and evict. *)
let prop_touch_matches_lru_model =
  let gen =
    QCheck.Gen.(
      int_range 1 4 >>= fun sets ->
      int_range 1 4 >>= fun ways ->
      list_size (int_range 0 200) (int_bound ((2 * sets * ways) - 1))
      >|= fun lines -> (sets, ways, lines))
  in
  let print (sets, ways, lines) =
    Printf.sprintf "sets=%d ways=%d lines=[%s]" sets ways
      (String.concat ";" (List.map string_of_int lines))
  in
  QCheck.Test.make ~count:500 ~name:"cache: touch matches a list LRU model"
    (QCheck.make ~print gen)
    (fun (sets, ways, lines) ->
      let c =
        Gsim.Cache.create ~sets ~ways ~line_size:128 ~mshr_entries:0
          ~mshr_max_merge:0
      in
      let model = Array.make sets [] in
      List.for_all
        (fun l ->
          let la = l * 128 and s = l mod sets in
          let hit = List.mem la model.(s) in
          let others = List.filter (( <> ) la) model.(s) in
          let kept =
            if hit || List.length others < ways then others
            else List.filteri (fun i _ -> i < ways - 1) others
          in
          model.(s) <- la :: kept;
          Gsim.Cache.touch c ~line_addr:la = hit)
        lines)

(* ---------------- coalescer ---------------- *)

let test_coalesce_fully_coalesced () =
  let addrs = Array.init 32 (fun i -> 4 * i) in
  Alcotest.(check int) "one line" 1
    (Gsim.Coalesce.count ~line_size:128 ~mask:0xFFFFFFFF ~addrs)

let test_coalesce_strided () =
  let addrs = Array.init 32 (fun i -> 128 * i) in
  Alcotest.(check int) "32 lines" 32
    (Gsim.Coalesce.count ~line_size:128 ~mask:0xFFFFFFFF ~addrs)

let test_coalesce_respects_mask () =
  let addrs = Array.init 32 (fun i -> 128 * i) in
  Alcotest.(check int) "only active lanes counted" 2
    (Gsim.Coalesce.count ~line_size:128 ~mask:0b101 ~addrs)

let test_coalesce_split () =
  let addrs = Array.init 32 (fun i -> 128 * i) in
  let groups =
    Gsim.Coalesce.split_lines ~line_size:128 ~width:8 ~mask:0xFFFFFFFF ~addrs
  in
  Alcotest.(check int) "4 sub-warps" 4 (List.length groups);
  Alcotest.(check int) "8 lines each" 8 (List.length (List.hd groups))

let prop_coalesce_split_preserves_lines =
  QCheck.Test.make ~count:200
    ~name:"warp splitting preserves the set of touched lines"
    QCheck.(
      pair (int_bound 0xFFFF)
        (array_of_size (QCheck.Gen.return 32) (int_bound 100_000)))
    (fun (mask, addrs) ->
      let full =
        Gsim.Coalesce.lines ~line_size:128 ~mask ~addrs
        |> List.sort_uniq compare
      in
      let split =
        Gsim.Coalesce.split_lines ~line_size:128 ~width:8 ~mask ~addrs
        |> List.concat
        |> List.sort_uniq compare
      in
      (* split may repeat lines across sub-warps but must cover the
         same set *)
      List.for_all (fun l -> List.mem l split) full
      && List.for_all (fun l -> List.mem l full) split)

let prop_coalesce_count_bounds =
  QCheck.Test.make ~count:200 ~name:"coalesced request count bounds"
    QCheck.(
      pair (int_bound 0xFFFFFFFF)
        (array_of_size (QCheck.Gen.return 32) (int_bound 1_000_000)))
    (fun (mask, addrs) ->
      let n = Gsim.Coalesce.count ~line_size:128 ~mask ~addrs in
      let active = Gsim.Warp.popcount mask in
      if active = 0 then n = 0 else n >= 1 && n <= active)

(* ---------------- interconnect ---------------- *)

let test_icnt_credits_and_latency () =
  let cfg = { Gsim.Config.default with icnt_buffer_size = 2 } in
  let icnt = Gsim.Icnt.create cfg in
  Alcotest.(check bool) "can inject" true (Gsim.Icnt.can_inject icnt ~sm:0);
  let r1 = mk_req 0 in
  let r2 = mk_req 128 in
  Gsim.Icnt.inject_request icnt ~now:0 r1;
  Gsim.Icnt.inject_request icnt ~now:0 r2;
  Alcotest.(check bool) "buffer full" false (Gsim.Icnt.can_inject icnt ~sm:0);
  let part0 = Gsim.Icnt.partition_of cfg ~sm:0 0 in
  (* nothing arrives before the latency *)
  Alcotest.(check bool) "not arrived yet" true
    (Gsim.Icnt.pop_request icnt ~now:1 ~part:part0 = None);
  (* after the latency the request pops and the credit returns *)
  let popped =
    Gsim.Icnt.pop_request icnt ~now:cfg.Gsim.Config.icnt_latency ~part:part0
  in
  Alcotest.(check bool) "arrived" true (popped <> None);
  Alcotest.(check bool) "credit returned" true
    (Gsim.Icnt.can_inject icnt ~sm:0)

let test_icnt_response_path () =
  let cfg = Gsim.Config.default in
  let icnt = Gsim.Icnt.create cfg in
  let r = mk_req ~sm:3 0 in
  Gsim.Icnt.inject_response icnt ~now:10 r;
  Alcotest.(check bool) "wrong sm sees nothing" true
    (Gsim.Icnt.pop_response icnt ~now:100 ~sm:0 = None);
  Alcotest.(check bool) "response arrives for its SM" true
    (Gsim.Icnt.pop_response icnt ~now:(10 + cfg.Gsim.Config.icnt_latency)
       ~sm:3
    <> None)

let test_l2_cluster_partitioning () =
  (* with l2_cluster on, SMs in different clusters use disjoint
     partition subsets for the same address *)
  let cfg = Gsim.Config.default |> Gsim.Config.with_l2_cluster 7 in
  let p0 = Gsim.Icnt.partition_of cfg ~sm:0 0 in
  let p1 = Gsim.Icnt.partition_of cfg ~sm:13 0 in
  Alcotest.(check bool) "clusters map to different partitions" true (p0 <> p1);
  (* without clustering the partition is SM-independent *)
  let cfg0 = Gsim.Config.default in
  Alcotest.(check int) "global L2 ignores sm"
    (Gsim.Icnt.partition_of cfg0 ~sm:0 1280)
    (Gsim.Icnt.partition_of cfg0 ~sm:9 1280)

(* ---------------- memory partition ---------------- *)

let test_l2part_services_load () =
  let cfg = Gsim.Config.default in
  let stats = Gsim.Stats.create () in
  let icnt = Gsim.Icnt.create cfg in
  let part = Gsim.L2part.create cfg ~id:0 ~stats in
  let line = 0 in
  let r = mk_req line in
  Alcotest.(check int) "request routed to partition 0" 0
    (Gsim.Icnt.partition_of cfg ~sm:0 line);
  Gsim.Icnt.inject_request icnt ~now:0 r;
  (* run the partition forward until the response arrives *)
  let response = ref None in
  let t = ref 0 in
  while !response = None && !t < 1000 do
    Gsim.L2part.cycle part ~now:!t ~icnt;
    response := Gsim.Icnt.pop_response icnt ~now:!t ~sm:0;
    incr t
  done;
  (match !response with
  | None -> Alcotest.fail "no response within 1000 cycles"
  | Some resp ->
      Alcotest.(check bool) "serviced by DRAM" true
        (resp.Gsim.Request.level = Gsim.Request.Lvl_dram);
      Alcotest.(check bool) "timestamps ordered" true
        (resp.Gsim.Request.t_icnt <= resp.Gsim.Request.t_arrive
        && resp.Gsim.Request.t_arrive <= resp.Gsim.Request.t_l2_start
        && resp.Gsim.Request.t_l2_start < resp.Gsim.Request.t_resp_arrive));
  (* a second access to the same line is an L2 hit *)
  let r2 = mk_req line in
  Gsim.Icnt.inject_request icnt ~now:!t r2;
  let response2 = ref None in
  let t2 = ref !t in
  while !response2 = None && !t2 < !t + 1000 do
    Gsim.L2part.cycle part ~now:!t2 ~icnt;
    response2 := Gsim.Icnt.pop_response icnt ~now:!t2 ~sm:0;
    incr t2
  done;
  match !response2 with
  | None -> Alcotest.fail "no second response"
  | Some resp ->
      Alcotest.(check bool) "second access is an L2 hit" true
        (resp.Gsim.Request.level = Gsim.Request.Lvl_l2)

(* ---------------- warp divergence semantics ---------------- *)

(* Execute a kernel twice: once with 32-wide warps, once with 1-wide
   warps (scalar reference).  For race-free kernels the final memory
   must be identical. *)
let run_with_warp_size kernel ~n_threads ~setup warp_size =
  let global = Gsim.Mem.create (1 lsl 16) in
  setup global;
  let launch =
    Gsim.Launch.create ~kernel
      ~grid:(n_threads / 32, 1, 1)
      ~block:(32, 1, 1)
      ~params:[ ("a", 0L); ("n", Int64.of_int n_threads) ]
      ~global
  in
  let cfg = { Gsim.Config.default with warp_size } in
  ignore (Gsim.Funcsim.run ~cfg launch);
  global

let divergent_kernel () =
  (* per-thread data-dependent loop plus nested ifs *)
  let b = B.create ~name:"div" ~params:[ Workloads.Kutil.u64 "a"; Workloads.Kutil.u32 "n" ] () in
  let ap = B.ld_param b "a" in
  let n = B.ld_param b "n" in
  let tid = B.global_tid b in
  let pin = B.setp b Lt tid n in
  B.if_ b pin (fun () ->
      let x = B.ld b Global U32 (B.at b ~base:ap ~scale:4 tid) in
      let acc = B.fresh_reg b in
      B.emit b (Ptx.Instr.Mov (acc, Imm 0L));
      (* trip count = x mod 7, different per thread *)
      let trips = B.rem b x (B.int 7) in
      B.for_loop b ~init:(B.int 0) ~bound:trips ~step:(B.int 1) (fun i ->
          let podd = B.setp b Eq (B.band b i (B.int 1)) (B.int 1) in
          B.if_ b podd (fun () ->
              B.emit b (Ptx.Instr.Iop (Add, acc, Reg acc, B.int 3)));
          B.if_not b podd (fun () ->
              B.emit b (Ptx.Instr.Iop (Add, acc, Reg acc, B.int 5))));
      B.st b Global U32 (B.at b ~base:ap ~scale:4 tid) (Reg acc));
  B.finish b

let test_divergence_vs_scalar () =
  let kernel = divergent_kernel () in
  let n = 128 in
  let setup g =
    for i = 0 to n - 1 do
      Gsim.Mem.set_u32 g (4 * i) (i * 2654435761 land 0xFFFF)
    done
  in
  let m32 = run_with_warp_size kernel ~n_threads:n ~setup 32 in
  let m1 = run_with_warp_size kernel ~n_threads:n ~setup 1 in
  let same = ref true in
  for i = 0 to n - 1 do
    if Gsim.Mem.get_u32 m32 (4 * i) <> Gsim.Mem.get_u32 m1 (4 * i) then
      same := false
  done;
  Alcotest.(check bool) "warp-of-32 matches scalar execution" true !same

let prop_divergence_random_inputs =
  QCheck.Test.make ~count:25
    ~name:"divergent kernel: warp-of-32 equals scalar (random inputs)"
    QCheck.(array_of_size (QCheck.Gen.return 64) (int_bound 0xFFFF))
    (fun inputs ->
      let kernel = divergent_kernel () in
      let setup g =
        Array.iteri (fun i v -> Gsim.Mem.set_u32 g (4 * i) v) inputs
      in
      let m32 = run_with_warp_size kernel ~n_threads:64 ~setup 32 in
      let m1 = run_with_warp_size kernel ~n_threads:64 ~setup 1 in
      let same = ref true in
      for i = 0 to 63 do
        if Gsim.Mem.get_u32 m32 (4 * i) <> Gsim.Mem.get_u32 m1 (4 * i) then
          same := false
      done;
      !same)

let test_exit_divergence () =
  (* threads exit at different points; remaining lanes must continue *)
  let b = B.create ~name:"exits" ~params:[ Workloads.Kutil.u64 "a"; Workloads.Kutil.u32 "n" ] () in
  let ap = B.ld_param b "a" in
  let _n = B.ld_param b "n" in
  let tid = B.global_tid b in
  let plow = B.setp b Lt tid (B.int 16) in
  let skip = B.fresh_label b "CONT" in
  B.bra_ifnot b plow skip;
  B.emit b Ptx.Instr.Exit;
  B.label b skip;
  B.st b Global U32 (B.at b ~base:ap ~scale:4 tid) (B.int 7);
  let kernel = B.finish b in
  let global = Gsim.Mem.create 4096 in
  let launch =
    Gsim.Launch.create ~kernel ~grid:(1, 1, 1) ~block:(32, 1, 1)
      ~params:[ ("a", 0L); ("n", 32L) ]
      ~global
  in
  ignore (Gsim.Funcsim.run launch);
  Alcotest.(check int) "early-exit lane wrote nothing" 0
    (Gsim.Mem.get_u32 global (4 * 3));
  Alcotest.(check int) "surviving lane wrote" 7
    (Gsim.Mem.get_u32 global (4 * 20))

(* A warp diverging on %tid.x < 16 runs the if's body on the low half
   and is whole again from the branch's reconvergence point (the
   analysis's immediate post-dominator): each instruction from there on
   runs once, with all 32 lanes. *)
let test_reconverges_at_join () =
  let b = B.create ~name:"join" ~params:[ Workloads.Kutil.u64 "a" ] () in
  let ap = B.ld_param b "a" in
  B.if_ b (B.setp b Lt B.tid_x (B.int 16)) (fun () ->
      B.st b Global U32 (B.at b ~base:ap ~scale:4 B.tid_x) (B.int 1));
  B.st b Global U32 (B.at b ~base:ap ~scale:4 B.tid_x) (B.int 2);
  let launch =
    Gsim.Launch.create ~kernel:(B.finish b) ~grid:(1, 1, 1) ~block:(32, 1, 1)
      ~params:[ ("a", 0L) ] ~global:(Gsim.Mem.create 4096)
  in
  let body = launch.Gsim.Launch.kernel.Ptx.Kernel.body in
  let pcs = List.init (Array.length body) Fun.id in
  let bra =
    List.find
      (fun pc -> match body.(pc) with Ptx.Instr.Bra _ -> true | _ -> false)
      pcs
  in
  let join =
    (Dataflow.Depgraph.reconvergence launch.Gsim.Launch.analysis).(bra)
  in
  Alcotest.(check bool) "reconverges before exit" true (join > bra);
  let cta = Gsim.Cta.create launch ~warp_size:32 ~cta_lin:0 in
  let w = cta.Gsim.Cta.warps.(0) in
  let trace = ref [] in
  while not (Gsim.Warp.finished w) do
    (* [peek_unit] skips labels, so [pc] is the instruction [step] runs *)
    ignore (Gsim.Warp.peek_unit w);
    trace := (Gsim.Warp.pc w, Gsim.Warp.active_mask w) :: !trace;
    ignore (Gsim.Warp.step w)
  done;
  Alcotest.(check bool) "the body runs on the low half" true
    (List.exists (fun (pc, m) -> pc > bra && pc < join && m = 0xFFFF) !trace);
  let full = Gsim.Warp.full_mask 32 in
  Alcotest.(check (list (pair int int)))
    "from the join on: once each, all 32 lanes"
    (List.filter_map
       (fun pc ->
         match body.(pc) with
         | Ptx.Instr.Label _ -> None
         | _ -> if pc >= join then Some (pc, full) else None)
       pcs)
    (List.rev (List.filter (fun (pc, _) -> pc >= join) !trace))

(* ---------------- SM slot management ---------------- *)

let mini_launch () =
  let b = B.create ~name:"noop" ~params:[ Workloads.Kutil.u32 "n" ] () in
  let _ = B.ld_param b "n" in
  let kernel = B.finish b in
  Gsim.Launch.create ~kernel ~grid:(4, 1, 1) ~block:(64, 1, 1)
    ~params:[ ("n", 0L) ]
    ~global:(Gsim.Mem.create 256)

let test_sm_slot_packing () =
  let cfg = Gsim.Config.default in
  let stats = Gsim.Stats.create () in
  let sm = Gsim.Sm.create cfg ~id:0 ~stats ~warp_slots:4 in
  let launch = mini_launch () in
  (* each CTA is 2 warps: two fit, the third does not *)
  Alcotest.(check bool) "cta 0 fits" true (Gsim.Sm.try_launch sm launch ~cta_lin:0);
  Alcotest.(check int) "2 slots left" 2 (Gsim.Sm.free_slots sm);
  Alcotest.(check bool) "cta 1 fits" true (Gsim.Sm.try_launch sm launch ~cta_lin:1);
  Alcotest.(check bool) "cta 2 rejected" false
    (Gsim.Sm.try_launch sm launch ~cta_lin:2);
  Alcotest.(check bool) "sm busy" false (Gsim.Sm.idle sm)

let test_sm_reconfigure_empty () =
  let cfg = Gsim.Config.default in
  let stats = Gsim.Stats.create () in
  let sm = Gsim.Sm.create cfg ~id:0 ~stats ~warp_slots:4 in
  Gsim.Sm.reconfigure sm ~warp_slots:8 ~warps_per_cta:2;
  Alcotest.(check int) "resized" 8 (Gsim.Sm.free_slots sm)

(* ---------------- determinism ---------------- *)

(* identical launches on fresh machines produce identical statistics *)
let test_cycle_sim_deterministic () =
  let run () =
    let app = Workloads.Suite.find "mis" in
    let r = app.Workloads.App.make Workloads.App.Small in
    let cfg = Gsim.Config.default |> Gsim.Config.with_caps ~max_warp_insts:20_000 () in
    let machine = Gsim.Gpu.create_machine ~cfg () in
    Workloads.App.iter_launches r (Gsim.Gpu.run_launch machine);
    let s = machine.Gsim.Gpu.stats in
    (s.Gsim.Stats.cycles, s.Gsim.Stats.warp_insts,
     Array.to_list s.Gsim.Stats.l1_events,
     s.Gsim.Stats.per_class.(1).Gsim.Stats.cs_turnaround)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "two runs identical" true (a = b)

(* ---------------- dot exports ---------------- *)

let test_dot_exports () =
  let b = B.create ~name:"dotk" ~params:[ Workloads.Kutil.u64 "a" ] () in
  let a = B.ld_param b "a" in
  let p = B.setp b Lt B.tid_x (B.int 4) in
  B.if_ b p (fun () ->
      let v = B.ld b Global U32 (B.addr a) in
      B.st b Global U32 (B.addr a) v);
  let dg = Dataflow.Depgraph.of_kernel (B.finish b) in
  let dot = Ptx.Cfg.to_dot (Dataflow.Depgraph.cfg dg) in
  Alcotest.(check bool) "cfg dot has digraph" true
    (String.length dot > 20 && String.sub dot 0 7 = "digraph");
  Alcotest.(check bool) "cfg dot has edges" true
    (List.exists
       (fun line -> String.length line > 4 && String.sub line 2 1 = "B")
       (String.split_on_char '\n' dot));
  let ddot = Dataflow.Depgraph.to_dot dg in
  Alcotest.(check bool) "deps dot highlights the load" true
    (let rec contains s sub i =
       if i + String.length sub > String.length s then false
       else if String.sub s i (String.length sub) = sub then true
       else contains s sub (i + 1)
     in
     contains ddot "lightcoral" 0)

let tests =
  [
    Alcotest.test_case "sm: slot packing" `Quick test_sm_slot_packing;
    Alcotest.test_case "sm: reconfigure" `Quick test_sm_reconfigure_empty;
    Alcotest.test_case "cycle sim determinism" `Quick
      test_cycle_sim_deterministic;
    Alcotest.test_case "dot exports" `Quick test_dot_exports;
    Alcotest.test_case "cache: miss/merge/fill/hit" `Quick
      test_cache_miss_then_hit;
    Alcotest.test_case "cache: merge limit" `Quick test_cache_merge_limit;
    Alcotest.test_case "cache: tag reservation fail" `Quick
      test_cache_tag_reservation_fail;
    Alcotest.test_case "cache: mshr exhaustion" `Quick
      test_cache_mshr_exhaustion;
    Alcotest.test_case "cache: icnt fail leaves no state" `Quick
      test_cache_icnt_fail;
    Alcotest.test_case "cache: LRU eviction" `Quick test_cache_lru_eviction;
    Alcotest.test_case "cache: invalidate + write allocate" `Quick
      test_cache_invalidate_and_write_allocate;
    QCheck_alcotest.to_alcotest prop_touch_matches_lru_model;
    Alcotest.test_case "coalesce: fully coalesced" `Quick
      test_coalesce_fully_coalesced;
    Alcotest.test_case "coalesce: strided worst case" `Quick
      test_coalesce_strided;
    Alcotest.test_case "coalesce: mask respected" `Quick
      test_coalesce_respects_mask;
    Alcotest.test_case "coalesce: warp splitting" `Quick test_coalesce_split;
    QCheck_alcotest.to_alcotest prop_coalesce_split_preserves_lines;
    QCheck_alcotest.to_alcotest prop_coalesce_count_bounds;
    Alcotest.test_case "icnt: credits and latency" `Quick
      test_icnt_credits_and_latency;
    Alcotest.test_case "icnt: response path" `Quick test_icnt_response_path;
    Alcotest.test_case "icnt: semi-global L2 routing" `Quick
      test_l2_cluster_partitioning;
    Alcotest.test_case "l2 partition: dram then l2 hit" `Quick
      test_l2part_services_load;
    Alcotest.test_case "warp: divergence vs scalar" `Quick
      test_divergence_vs_scalar;
    QCheck_alcotest.to_alcotest prop_divergence_random_inputs;
    Alcotest.test_case "warp: divergent exits" `Quick test_exit_divergence;
    Alcotest.test_case "warp: reconverges at the join" `Quick
      test_reconverges_at_join;
  ]

let () = Alcotest.run "gsim_units" [ ("units", tests) ]
