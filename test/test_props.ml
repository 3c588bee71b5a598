(* Property-test hardening pass over the coalescer and the PTX
   printer/parser.

   Coalescer: for arbitrary (mask, address vector) inputs the generated
   requests must cover every active thread's cache line exactly once,
   never exceed one request per active thread, and fully-strided warps
   must collapse to the minimum possible request count.

   PTX: kernels built through the Ptx.Builder eDSL (structured control
   flow included) must survive print -> parse with an identical
   instruction stream. *)

open Ptx.Types
module B = Ptx.Builder

let line_size = 128

(* ---------------- coalescer ---------------- *)

let gen_mask_addrs =
  QCheck.pair
    (QCheck.int_bound 0xFFFFFFFF)
    (QCheck.array_of_size (QCheck.Gen.return 32) (QCheck.int_bound 1_000_000))

let active_lines mask addrs =
  let out = ref [] in
  Gsim.Warp.iter_active mask (fun lane ->
      out := (addrs.(lane) / line_size * line_size) :: !out);
  List.sort_uniq compare !out

(* every active thread's line appears in the request list exactly once *)
let prop_cover_each_sector_once =
  QCheck.Test.make ~count:500
    ~name:"coalesce: requests cover every active thread's line exactly once"
    gen_mask_addrs
    (fun (mask, addrs) ->
      let reqs = Gsim.Coalesce.lines ~line_size ~mask ~addrs in
      let no_dups = List.length (List.sort_uniq compare reqs) = List.length reqs in
      no_dups && List.sort compare reqs = active_lines mask addrs)

let prop_count_at_most_active =
  QCheck.Test.make ~count:500
    ~name:"coalesce: request count <= active threads (0 iff none active)"
    gen_mask_addrs
    (fun (mask, addrs) ->
      let n = Gsim.Coalesce.count ~line_size ~mask ~addrs in
      let active = Gsim.Warp.popcount (mask land 0xFFFFFFFF) in
      if active = 0 then n = 0 else n >= 1 && n <= active)

(* a fully-strided warp (lane i reads base + i*elem) generates the
   minimum number of requests: exactly the lines of the touched span *)
let prop_strided_minimal =
  QCheck.Test.make ~count:500
    ~name:"coalesce: fully-strided warps coalesce to the minimum"
    QCheck.(pair (int_bound 100_000) (oneofl [ 1; 2; 4; 8; 16 ]))
    (fun (base, elem) ->
      let addrs = Array.init 32 (fun i -> base + (i * elem)) in
      let n = Gsim.Coalesce.count ~line_size ~mask:0xFFFFFFFF ~addrs in
      let first = base / line_size in
      let last = (base + (31 * elem)) / line_size in
      n = last - first + 1)

(* splitting never changes the set of lines and never reduces coverage:
   each sub-warp covers exactly its own lanes' lines *)
let prop_split_subwarp_coverage =
  QCheck.Test.make ~count:300
    ~name:"coalesce: each sub-warp covers exactly its own lanes"
    gen_mask_addrs
    (fun (mask, addrs) ->
      let width = 8 in
      let groups =
        Gsim.Coalesce.split_lines ~line_size ~width ~mask ~addrs
      in
      (* recompute the expected non-empty sub-warp line sets *)
      let expected = ref [] in
      for g = 3 downto 0 do
        let gmask = mask land (0xFF lsl (g * width)) in
        if gmask <> 0 then expected := active_lines gmask addrs :: !expected
      done;
      List.length groups = List.length !expected
      && List.for_all2
           (fun got want -> List.sort compare got = want)
           groups !expected)

(* ---------------- PTX round-trip via Builder ---------------- *)

(* Random structured kernels: a recursive op language interpreted into
   Builder calls.  Operand references index a growing pool of values,
   so every generated program is well-formed by construction. *)
type rop =
  | R_iop of iop * int * int
  | R_fop of fop * dtype * int * int
  | R_fma of dtype * int * int * int
  | R_funary of funary * dtype * int
  | R_mad of int * int * int
  | R_cvt of dtype * dtype * int
  | R_sreg of sreg
  | R_ld of space * dtype * int
  | R_st of space * dtype * int * int
  | R_atom of atomop * dtype * int * int
  | R_selp of cmp * dtype * int * int
  | R_pred of cmp * cmp * int * int
  | R_if of cmp * int * int * rop list
  | R_for of int * rop list
  | R_bar

(* Choices come from the constructor lists, so every printable form is
   drawn: all but the two the verifier rejects (an [Ld] from [Param],
   a float op on a non-float type). *)
let gen_rop : rop QCheck.Gen.t =
  let open QCheck.Gen in
  let idx = int_bound 1000 in
  let dtype = oneofl dtypes in
  let base =
    [ (4, map3 (fun op i j -> R_iop (op, i, j)) (oneofl iops) idx idx);
      ( 2,
        map3
          (fun (op, ty) i j -> R_fop (op, ty, i, j))
          (pair (oneofl fops) (oneofl (List.filter dtype_is_float dtypes)))
          idx idx );
      ( 1,
        map2
          (fun (ty, i) (j, k) -> R_fma (ty, i, j, k))
          (pair dtype idx) (pair idx idx) );
      ( 1,
        map3
          (fun op ty i -> R_funary (op, ty, i))
          (oneofl funarys) dtype idx );
      (1, map3 (fun i j k -> R_mad (i, j, k)) idx idx idx);
      (1, map3 (fun d s i -> R_cvt (d, s, i)) dtype dtype idx);
      (1, map (fun r -> R_sreg r) (oneofl sregs));
      ( 2,
        map3
          (fun sp ty i -> R_ld (sp, ty, i))
          (oneofl (List.filter (fun sp -> sp <> Param) spaces))
          dtype idx );
      ( 2,
        map3
          (fun (sp, ty) i j -> R_st (sp, ty, i, j))
          (pair (oneofl spaces) dtype)
          idx idx );
      ( 1,
        map3
          (fun (op, ty) i j -> R_atom (op, ty, i, j))
          (pair (oneofl atomops) dtype)
          idx idx );
      ( 1,
        map3
          (fun (c, ty) i j -> R_selp (c, ty, i, j))
          (pair (oneofl cmps) dtype)
          idx idx );
      ( 1,
        map3
          (fun (c1, c2) i j -> R_pred (c1, c2, i, j))
          (pair (oneofl cmps) (oneofl cmps))
          idx idx );
      (1, return R_bar) ]
  in
  let rec gen depth =
    if depth = 0 then frequency base
    else
      frequency
        (base
        @ [ ( 2,
              map3
                (fun c (i, j) body -> R_if (c, i, j, body))
                (oneofl cmps)
                (pair idx idx)
                (list_size (int_range 1 5) (gen (depth - 1))) );
            ( 1,
              map2
                (fun trips body -> R_for (trips, body))
                (int_range 1 4)
                (list_size (int_range 1 4) (gen (depth - 1))) ) ])
  in
  gen 2

let build_kernel ops =
  let b =
    B.create ~name:"prop"
      ~params:[ { Ptx.Kernel.pname = "a"; pty = U64 };
                { Ptx.Kernel.pname = "n"; pty = U32 } ]
      ~smem_bytes:256 ()
  in
  let ap = B.ld_param b "a" in
  let n = B.ld_param b "n" in
  let pool = ref [| B.global_tid b; n; B.int 3; B.float 1.5 |] in
  let pick i = !pool.(i mod Array.length !pool) in
  let push v = pool := Array.append !pool [| v |] in
  let addr_of sp i =
    (* global addresses hang off the parameter; shared off offset 0 *)
    match sp with
    | Global -> B.at b ~base:ap ~scale:8 (pick i)
    | _ -> B.at b ~base:(B.int 0) ~scale:4 (pick i)
  in
  let rec interp op =
    match op with
    | R_iop (o, i, j) -> push (B.iop b o (pick i) (pick j))
    | R_fop (o, ty, i, j) -> push (B.fop b o ~ty (pick i) (pick j))
    | R_fma (ty, i, j, k) -> push (B.fma b ~ty (pick i) (pick j) (pick k))
    | R_funary (o, ty, i) -> push (B.funary b o ~ty (pick i))
    | R_mad (i, j, k) -> push (B.mad b (pick i) (pick j) (pick k))
    | R_cvt (d, s, i) -> push (B.cvt b ~dst_ty:d ~src_ty:s (pick i))
    | R_sreg r -> push (B.mov b (B.special r))
    | R_ld (sp, ty, i) -> push (B.ld b sp ty (addr_of sp i))
    | R_st (sp, ty, i, j) -> B.st b sp ty (addr_of sp i) (pick j)
    | R_atom (o, ty, i, j) ->
        push (B.atom b o ty (addr_of Global i) (pick j))
    | R_selp (c, ty, i, j) ->
        let p = B.setp b c ~ty (pick i) (pick j) in
        push (B.selp b (pick i) (pick j) p)
    | R_pred (c1, c2, i, j) ->
        (* not/and/or.pred over two comparisons *)
        let p = B.setp b c1 (pick i) (pick j) in
        let q = B.pand b (B.pnot b p) (B.setp b c2 (pick j) (pick i)) in
        B.emit b (Ptx.Instr.Por (q, q, p));
        push (B.selp b (pick i) (pick j) q)
    | R_if (c, i, j, body) ->
        let p = B.setp b c (pick i) (pick j) in
        B.if_ b p (fun () -> List.iter interp body)
    | R_for (trips, body) ->
        B.for_loop b ~init:(B.int 0) ~bound:(B.int trips) ~step:(B.int 1)
          (fun iv ->
            push iv;
            List.iter interp body)
    | R_bar -> B.bar b
  in
  List.iter interp ops;
  B.finish b

let gen_builder_kernel =
  QCheck.make
    ~print:(fun ops -> Ptx.Kernel.to_string (build_kernel ops))
    QCheck.Gen.(list_size (int_range 1 12) gen_rop |> map (fun l -> l))

let same_stream (k1 : Ptx.Kernel.t) (k2 : Ptx.Kernel.t) =
  k1.Ptx.Kernel.kname = k2.Ptx.Kernel.kname
  && k1.Ptx.Kernel.params = k2.Ptx.Kernel.params
  && k1.Ptx.Kernel.nregs = k2.Ptx.Kernel.nregs
  && k1.Ptx.Kernel.npregs = k2.Ptx.Kernel.npregs
  && k1.Ptx.Kernel.smem_bytes = k2.Ptx.Kernel.smem_bytes
  && Array.length k1.Ptx.Kernel.body = Array.length k2.Ptx.Kernel.body
  && (let same = ref true in
      Array.iteri
        (fun pc i ->
          if i <> k2.Ptx.Kernel.body.(pc) then same := false)
        k1.Ptx.Kernel.body;
      !same)

let prop_builder_roundtrip =
  QCheck.Test.make ~count:150
    ~name:"ptx: parse of printed builder kernels reproduces the stream"
    gen_builder_kernel
    (fun ops ->
      let k = build_kernel ops in
      let k2 = Ptx.Parse.kernel_of_string (Ptx.Kernel.to_string k) in
      same_stream k k2)

(* the classifier must agree on a kernel and its print/parse image —
   classification is a function of the instruction stream alone *)
let prop_classification_stable_under_roundtrip =
  QCheck.Test.make ~count:75
    ~name:"ptx: load classification survives print/parse"
    gen_builder_kernel
    (fun ops ->
      let k = build_kernel ops in
      let k2 = Ptx.Parse.kernel_of_string (Ptx.Kernel.to_string k) in
      let digest k =
        List.map
          (fun (li : Dataflow.Classify.load_info) ->
            ( li.Dataflow.Classify.li_pc,
              li.Dataflow.Classify.li_space,
              li.Dataflow.Classify.li_class ))
          (Dataflow.Classify.classify (Dataflow.Depgraph.of_kernel k))
            .Dataflow.Classify.res_loads
      in
      digest k = digest k2)

(* ---------------- JSON emitter/parser ---------------- *)

let gen_json =
  let open QCheck.Gen in
  let module J = Gsim.Stats_io.Json in
  let leaf =
    frequency
      [ (2, map (fun i -> J.Int i) (int_range (-1000000) 1000000));
        (1, map (fun f -> J.Float f) (float_bound_exclusive 1e9));
        (2, map (fun s -> J.Str s) (string_size ~gen:printable (int_bound 12)));
        (1, return (J.Bool true));
        (1, return (J.Bool false));
        (1, return J.Null) ]
  in
  let rec value depth =
    if depth = 0 then leaf
    else
      frequency
        [ (3, leaf);
          (1, map (fun l -> J.Arr l) (list_size (int_bound 5) (value (depth - 1))));
          ( 1,
            map
              (fun kvs ->
                (* object keys must be distinct for round-trip equality *)
                let seen = Hashtbl.create 8 in
                J.Obj
                  (List.filter
                     (fun (k, _) ->
                       if Hashtbl.mem seen k then false
                       else begin
                         Hashtbl.add seen k ();
                         true
                       end)
                     kvs))
              (list_size (int_bound 5)
                 (pair (string_size ~gen:printable (int_bound 8))
                    (value (depth - 1)))) ) ]
  in
  QCheck.make (value 3)

let prop_json_roundtrip =
  QCheck.Test.make ~count:500 ~name:"json: of_string (to_string v) = v"
    gen_json
    (fun v ->
      let module J = Gsim.Stats_io.Json in
      J.of_string (J.to_string v) = v)

(* ---------------- field-table codecs ---------------- *)

module Io = Gsim.Stats_io
module C = Gsim.Config
module Ps = Critload.Parsweep

(* Every scalar field distinct and non-default, and inside the bounds
   [Config.check] puts on a decoded config (1..32 fits every field).
   The record literal names every field, so a new one must be given a
   value here, and a field missing from the codec's table then fails
   the round trip instead of colliding in the sweep cache. *)
let distinct_config base policy =
  let v i = 1 + (base mod 2) + i in
  { C.n_sms = v 0; warp_size = v 1; max_threads_per_sm = v 2;
    max_ctas_per_sm = v 3; shared_mem_per_sm = v 4; l1_sets = v 5;
    l1_ways = v 6; line_size = v 7; l1_mshr_entries = v 8;
    l1_mshr_max_merge = v 9; l1_hit_latency = v 10; n_mem_partitions = v 11;
    l2_sets = v 12; l2_ways = v 13; l2_mshr_entries = v 14; l2_latency = v 15;
    icnt_latency = v 16; icnt_buffer_size = v 17; l2_input_queue_size = v 18;
    dram_latency = v 19; dram_interval = v 20; dram_queue_size = v 21;
    sp_latency = v 22; sfu_latency = v 23; sfu_initiation = v 24;
    shared_latency = v 25; shared_banks = v 26; max_warp_insts = v 27;
    max_cycles = v 28; cta_sched = C.Clustered (v 29); warp_sched = C.Gto;
    l2_cluster = v 30; policy }

(* one value of each policy variant, parameters likewise distinct,
   non-default and in bounds *)
let distinct_policies base =
  let v i = 21 + (base mod 2) + i in
  let flags = { C.lp_split = v 0; lp_prefetch = true; lp_bypass = true } in
  let iar = { C.iar_entries = v 1; iar_max_wait = v 2 } in
  [ C.Baseline;
    C.Ndet_flags flags;
    C.Iar iar;
    C.Holistic
      { C.hp_bypass_sample = v 3; hp_bypass_hit_pct = v 4;
        hp_protect_ndet = false; hp_throttle_window = v 5;
        hp_throttle_high_pct = v 6; hp_throttle_low_pct = v 7 };
    C.Per_pc ([ ((Printf.sprintf "k%d" base, v 8), flags) ], C.Iar iar) ]

let prop_config_table_complete =
  QCheck.Test.make ~count:50
    ~name:"codec: every config field round-trips; variant digests differ"
    (QCheck.int_bound 1000)
    (fun base ->
      let cfgs = List.map (distinct_config base) (distinct_policies base) in
      let back c =
        Io.Json.to_string (Io.config_to_json c)
        |> Io.Json.of_string |> Io.config_of_json
      in
      let digests = List.map Io.config_digest (C.default :: cfgs) in
      List.for_all (fun c -> back c = c) cfgs
      && List.length (List.sort_uniq compare digests) = List.length digests)

(* Real documents for every table-driven decoder, from one short
   profiled timing run and one functional run. *)
let codec_docs =
  lazy
    (let cfg = C.default |> C.with_caps ~max_warp_insts:3_000 () in
     let timing = Ps.exec_job (Ps.job ~cfg ~warmup:false ~profile:true "bfs") in
     let func = Ps.exec_job (Ps.job ~cfg ~mode:Ps.Func "2mm") in
     let health =
       { Critload.Protocol.empty_health with
         Critload.Protocol.h_queued = 1; h_accepted = 2; h_completed = 3;
         h_cache_hits = 4; h_disconnects = 5 }
     in
     let decoder f v = ignore (f v) in
     [ ("stats", Io.Json.member "stats" timing, decoder Io.stats_of_json);
       ( "profile",
         Io.Json.member "profile" timing,
         decoder Gsim.Profile.of_json );
       ("timing summary", timing, decoder Ps.timing_summary_of_json);
       ("func summary", func, decoder Ps.func_summary_of_json);
       ( "health",
         Critload.Protocol.health_to_json health,
         decoder Critload.Protocol.health_of_json ) ]
     @ List.map
         (fun p ->
           ( "config " ^ C.policy_name p,
             Io.config_to_json (distinct_config 1 p),
             decoder Io.config_of_json ))
         (distinct_policies 1))

type step = K of string | I of int
type mutation = Drop | Retype | Grow | Shrink

(* every node below the root, with its path *)
let rec nodes path v acc =
  let acc = if path = [] then acc else (List.rev path, v) :: acc in
  match v with
  | Io.Json.Obj ms ->
      List.fold_left (fun acc (k, x) -> nodes (K k :: path) x acc) acc ms
  | Io.Json.Arr xs ->
      snd
        (List.fold_left
           (fun (i, acc) x -> (i + 1, nodes (I i :: path) x acc))
           (0, acc) xs)
  | _ -> acc

(* [v] with the node at [path] replaced by [g node]; [None] removes it *)
let rec modify path g v =
  let child rest x = if rest = [] then g x else Some (modify rest g x) in
  match (path, v) with
  | K k :: rest, Io.Json.Obj ms ->
      Io.Json.Obj
        (List.filter_map
           (fun (k', x) ->
             if k' <> k then Some (k', x)
             else Option.map (fun y -> (k', y)) (child rest x))
           ms)
  | I i :: rest, Io.Json.Arr xs ->
      Io.Json.Arr
        (List.concat
           (List.mapi
              (fun j x ->
                if j <> i then [ x ] else Option.to_list (child rest x))
              xs))
  | _ -> v

let retype = function
  | Io.Json.Str _ -> Io.Json.Int 1
  | Io.Json.Obj _ -> Io.Json.Arr []
  | Io.Json.Arr _ -> Io.Json.Obj []
  | _ -> Io.Json.Str "x"

let mutate m path doc =
  let g x =
    match (m, x) with
    | Drop, _ -> None
    | Grow, Io.Json.Arr xs ->
        let last = match List.rev xs with y :: _ -> y | [] -> Io.Json.Int 0 in
        Some (Io.Json.Arr (xs @ [ last ]))
    | Shrink, Io.Json.Arr (_ :: _ as xs) ->
        Some (Io.Json.Arr (List.rev (List.tl (List.rev xs))))
    | _ -> Some (retype x)
  in
  modify path g doc

(* the deepest member key on the path: the name an error must carry *)
let member_name path =
  List.fold_left (fun acc s -> match s with K k -> k | I _ -> acc) "" path

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let gen_mutation =
  let open QCheck.Gen in
  let docs = Lazy.force codec_docs in
  int_bound (List.length docs - 1) >>= fun d ->
  let name, doc, decode = List.nth docs d in
  let all = Array.of_list (nodes [] doc []) in
  map2
    (fun n m ->
      let path, _ = all.(n) in
      let m =
        match (m, List.rev path) with Drop, I _ :: _ -> Retype | _ -> m
      in
      (name, path, m, decode, doc))
    (int_bound (Array.length all - 1))
    (oneofl [ Drop; Retype; Grow; Shrink ])

let print_mutation (name, path, m, _, _) =
  Printf.sprintf "%s: %s at %s" name
    (match m with
    | Drop -> "drop"
    | Retype -> "retype"
    | Grow -> "grow"
    | Shrink -> "shrink")
    (String.concat "."
       (List.map (function K k -> k | I i -> string_of_int i) path))

let prop_codec_mutations =
  QCheck.Test.make ~count:1000
    ~name:"codec: a damaged document decodes or names the member"
    (QCheck.make ~print:print_mutation gen_mutation)
    (fun (_, path, m, decode, doc) ->
      match decode (mutate m path doc) with
      | () -> true
      | exception Io.Json.Parse_error e -> contains e (member_name path)
      | exception _ -> false)

(* ---------------- names ---------------- *)

(* Each enumerated type's printer is its one spelling, and its decoder
   the printer's inverse over the constructor list: every listed
   value's name decodes to that value, no two values share a name, and
   a junk name is rejected.  [decode] answers [None] for a rejection;
   any other exception fails the case. *)
let names what ?(junk = "junk") print decode all =
  Alcotest.test_case ("names: " ^ what) `Quick (fun () ->
      List.iter
        (fun v ->
          Alcotest.(check bool) (print v ^ " decodes to itself") true
            (decode (print v) = Some v))
        all;
      let spelled = List.map print all in
      Alcotest.(check int) "names are distinct" (List.length all)
        (List.length (List.sort_uniq compare spelled));
      Alcotest.(check bool) (junk ^ " is rejected") true (decode junk = None))

let invalid_arg_opt f s =
  match f s with v -> Some v | exception Invalid_argument _ -> None

let parse_error_opt f s =
  match f s with v -> Some v | exception Io.Json.Parse_error _ -> None

(* One instruction parsed inside an otherwise empty kernel. *)
let parse_instr text =
  match
    Ptx.Parse.kernel_of_string
      (".kernel k ()\n.reg 4 .pred 1 .shared 0\n{\n" ^ text ^ ";\nexit;\n}\n")
  with
  | k -> Some k.Ptx.Kernel.body.(0)
  | exception Ptx.Parse.Error _ -> None

(* [doc] with member [key] set to the string [s]. *)
let with_str key s = function
  | Io.Json.Obj ms ->
      Io.Json.Obj
        (List.map
           (fun (k, v) -> (k, if k = key then Io.Json.Str s else v))
           ms)
  | v -> v

module T = Gsim.Trace

let access src outcome =
  T.Ev_access { cycle = 1; where = T.S_l1 0; line = 128; src; outcome }

(* A trace type's name, read back from the event [ev v] carries under
   [key]: the decoder is private to Trace, so it is reached through
   [event_of_json]. *)
let trace_names what key ev field all =
  let print v = Io.Json.str_field key (T.event_to_json (ev v)) in
  let decode s =
    Option.bind
      (parse_error_opt T.event_of_json
         (with_str key s (T.event_to_json (ev (List.hd all)))))
      field
  in
  names what print decode all

let name_cases =
  let instr text f = Option.bind (parse_instr text) f in
  let cfg_json = Io.config_to_json C.default in
  [ names "dtype" string_of_dtype (invalid_arg_opt dtype_of_string) dtypes;
    names "space" string_of_space (invalid_arg_opt space_of_string) spaces;
    names "cmp" string_of_cmp (invalid_arg_opt cmp_of_string) cmps;
    names "iop" string_of_iop
      (fun m ->
        instr (m ^ " %r0, %r1, %r2") (function
          | Ptx.Instr.Iop (o, _, _, _) -> Some o
          | _ -> None))
      iops;
    names "fop"
      (fun (o, ty) -> fop_mnemonic o ty)
      (fun m ->
        instr (m ^ " %r0, %r1, %r2") (function
          | Ptx.Instr.Fop (o, ty, _, _, _) -> Some (o, ty)
          | _ -> None))
      (List.concat_map (fun o -> [ (o, F32); (o, F64) ]) fops);
    names "funary" string_of_funary
      (fun f ->
        instr (f ^ ".f32 %r0, %r1") (function
          | Ptx.Instr.Funary (o, _, _, _) -> Some o
          | _ -> None))
      funarys;
    names "atomop" string_of_atomop
      (fun a ->
        instr ("atom.global." ^ a ^ ".u32 %r0, [%r1], %r2") (function
          | Ptx.Instr.Atom (o, _, _, _, _) -> Some o
          | _ -> None))
      atomops;
    names "sreg" ~junk:"%tid.w" string_of_sreg
      (fun r ->
        instr ("mov %r0, " ^ r) (function
          | Ptx.Instr.Mov (_, Sreg s) -> Some s
          | _ -> None))
      sregs;
    names "load class" Dataflow.Classify.short_class
      (parse_error_opt (fun s -> Io.Codec.load_class.dec (Io.Json.Str s)))
      Dataflow.Classify.load_classes;
    names "warp scheduler" C.warp_sched_name
      (fun s ->
        Option.map
          (fun c -> c.C.warp_sched)
          (parse_error_opt Io.config_of_json
             (with_str "warp_sched" s cfg_json)))
      C.warp_scheds;
    trace_names "cache outcome" "outcome"
      (access T.A_store)
      (function T.Ev_access e -> Some e.outcome | _ -> None)
      Gsim.Cache.
        [ Hit; Hit_reserved; Miss; Rsrv_fail Fail_tags; Rsrv_fail Fail_mshr;
          Rsrv_fail Fail_icnt ];
    trace_names "access source" "src"
      (fun src -> access src Gsim.Cache.Hit)
      (function T.Ev_access e -> Some e.src | _ -> None)
      T.[ A_load Deterministic; A_load Nondeterministic; A_store; A_prefetch ];
    trace_names "memory level" "level"
      (fun level ->
        T.Ev_load_return
          { cycle = 9; sm = 0; cta = 0; kernel = "k"; pc = 4;
            cls = Dataflow.Classify.Deterministic; nreq = 1; turnaround = 8;
            level })
      (function T.Ev_load_return e -> Some e.level | _ -> None)
      Gsim.Request.[ Lvl_l1; Lvl_l2; Lvl_dram ];
    trace_names "icnt direction" "dir"
      (fun dir -> T.Ev_icnt_enq { cycle = 2; dir; sm = 0; part = 1; line = 0 })
      (function T.Ev_icnt_enq e -> Some e.dir | _ -> None)
      T.[ Dir_req; Dir_resp ];
    names "scale" Workloads.App.string_of_scale
      (invalid_arg_opt Workloads.App.scale_of_string)
      Workloads.App.scales;
    names "job mode" Critload.Runner.mode_name
      (fun m ->
        Result.to_option
          (Critload.Protocol.job_of_json
             (Io.Json.Obj
                [ ("app", Io.Json.Str "2mm"); ("mode", Io.Json.Str m) ]))
        |> Option.map (fun j -> j.Ps.sj_mode))
      Critload.Runner.modes;
    names "reject reason" Critload.Protocol.reject_reason_to_string
      (fun r ->
        match
          Critload.Protocol.response_of_json
            (with_str "reason" r
               (Critload.Protocol.response_to_json
                  (Critload.Protocol.Rejected
                     { id = "j"; reason = Queue_full; retry_after = 0.5 })))
        with
        | Ok (Critload.Protocol.Rejected { reason; _ }) -> Some reason
        | _ -> None)
      Critload.Protocol.[ Queue_full; Shutting_down ] ]

let tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_cover_each_sector_once;
      prop_count_at_most_active;
      prop_strided_minimal;
      prop_split_subwarp_coverage;
      prop_builder_roundtrip;
      prop_classification_stable_under_roundtrip;
      prop_json_roundtrip;
      prop_config_table_complete;
      prop_codec_mutations ]
  @ name_cases

let () = Alcotest.run "props" [ ("props", tests) ]
