(* The repository benchmark: four closed-batch workloads on the simulator
   runtime, each a pre-generated transaction log processed to completion.

   [bench.exe run --workload W --seed N --seconds S --trace 0|1] repeats
   the workload (generate, bulk-load every engine, run, verify) for about
   S host seconds, then prints one JSON line. With [--trace 0]
   it carries the end-to-end metrics; with [--trace 1] it carries the
   per-layer metrics, from the same untraced repetitions plus one extra
   repetition run under an installed [Bohm_obs.Recorder].

   Every layer is measured from outside, by timing and counting around
   the calls into its public functions; nothing here adds tracing inside
   the engines. The benchmark's own spans (generate, create, run,
   readback, verify) are kept in memory and written as a Chrome trace
   when [--trace-out] is given.

   [bench.exe figures] re-runs three workloads at the paper figures'
   seeds and sizes and checks them against the recorded BENCH cells. *)

module Sim = Bohm_runtime.Sim
module Stats = Bohm_txn.Stats
module Txn = Bohm_txn.Txn
module Key = Bohm_txn.Key
module Value = Bohm_txn.Value
module Ycsb = Bohm_workload.Ycsb
module Config = Bohm_core.Config
module Reference = Bohm_harness.Reference
module Recorder = Bohm_obs.Recorder
module Timeline = Bohm_obs.Timeline
module Critical_path = Bohm_obs.Critical_path
module Histogram = Bohm_util.Histogram
module Bohm_sim = Bohm_core.Engine.Make (Sim)
module Hek_sim = Bohm_hekaton.Engine.Make (Sim)
module Silo_sim = Bohm_silo.Engine.Make (Sim)
module Twopl_sim = Bohm_twopl.Engine.Make (Sim)

(* --- workloads --- *)

type engine = Twopl | Bohm | Occ | Si | Hekaton

(* The paper's legend order. *)
let all_engines = [ Twopl; Bohm; Occ; Si; Hekaton ]
let baselines = [ Twopl; Occ; Si; Hekaton ]

let engine_name = function
  | Twopl -> "2pl"
  | Bohm -> "bohm"
  | Occ -> "occ"
  | Si -> "si"
  | Hekaton -> "hekaton"

type workload = {
  name : string;
  rows : int;
  record_bytes : int;
  count : int;
  engines : engine list;
  workers : int;  (** Worker threads of each single-layer baseline. *)
  cc : int;  (** BOHM CC threads, per shard. *)
  exec : int;  (** BOHM execution threads, per shard. *)
  shards : int;
  batch : int;
  preprocess : bool;
  generate : rows:int -> count:int -> seed:int -> Txn.t array;
}

let rows = 100_000
let rmw10 = Ycsb.rmw_profile 10
let rmw2_read8 = Ycsb.mixed_profile ~rmws:2 ~reads:8

let ycsb ~theta profile ~rows ~count ~seed =
  Ycsb.generate ~rows ~theta ~count ~seed profile

(* Each workload is one recorded figure cell's configuration (see
   BENCHMARK.json for why each was chosen and which layer it binds). *)
let workloads =
  let bohm16 =
    {
      name = "";
      rows;
      record_bytes = 1000;
      count = 6_000;
      engines = [ Bohm ];
      workers = 16;
      cc = 4;
      exec = 12;
      shards = 1;
      batch = 1000;
      preprocess = false;
      generate = ycsb ~theta:0.9 rmw10;
    }
  in
  [
    (* Fig. 4, exec=12, CC=4: the CC layer binds every batch. *)
    {
      bohm16 with
      name = "uniform-cc";
      record_bytes = 8;
      count = 10_000;
      generate = ycsb ~theta:0.0 rmw10;
    };
    (* Fig. 5 top, 16 threads: deep write chains, exec binds. *)
    { bohm16 with name = "hot-exec" };
    (* Fig. 6 top, 16 threads: the only workload that runs the baselines. *)
    {
      bohm16 with
      name = "mixed-hot";
      engines = all_engines;
      generate = ycsb ~theta:0.9 rmw2_read8;
    };
    (* Flash-crowd, 2 shards: preprocessing, adaptive partition map,
       cross-shard routing and the vote round. The generator is not
       shard-aware, so nearly every transaction spans both shards. *)
    {
      bohm16 with
      name = "flash-shards";
      record_bytes = 8;
      count = 16_000;
      exec = 8;
      shards = 2;
      batch = 250;
      preprocess = true;
      generate =
        (fun ~rows ~count ~seed ->
          Ycsb.generate_flash_crowd ~rows ~count ~seed ~phases:4
            ~hot_keys:2048 ~hot_frac:0.9 rmw2_read8);
    };
  ]

(* --- host-side spans around layer calls --- *)

let now = Unix.gettimeofday
let t_origin = now ()

type span = {
  sp_name : string;
  sp_engine : string;
  sp_rep : int;
  sp_start : float;
  sp_stop : float;
}

let spans = ref []

(* Time [f], record it as a span and return its result with the
   duration in seconds. *)
let timed ?(engine = "") ~rep name f =
  let t0 = now () in
  let v = f () in
  let t1 = now () in
  spans :=
    { sp_name = name; sp_engine = engine; sp_rep = rep; sp_start = t0; sp_stop = t1 }
    :: !spans;
  (v, t1 -. t0)

(* Chrome trace of the harness spans: one track per engine plus one for
   the harness. Spans of one repetition share its number; none nests in
   another, so each span's self time is its duration. *)
let write_trace path =
  let oc = open_out path in
  output_string oc "{\"traceEvents\": [";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": \"%s\", \
         \"ts\": %.1f, \"dur\": %.1f, \"args\": {\"rep\": %d}}"
        (if i = 0 then "" else ",")
        s.sp_name
        (if s.sp_engine = "" then "harness" else s.sp_engine)
        ((s.sp_start -. t_origin) *. 1e6)
        ((s.sp_stop -. s.sp_start) *. 1e6)
        s.sp_rep)
    (List.rev !spans);
  output_string oc "\n]}\n";
  close_out oc

(* --- one engine run --- *)

type result = {
  engine : engine;
  stats : Stats.t;
  create_s : float;
  run_s : float;
  steps : int;
  alloc_words : float;
  probes : int;  (** BOHM storage-index probes; 0 for the baselines. *)
  finals : Value.t array;  (** Final value of each written key. *)
  readback_s : float;
}

type instance = {
  i_run : Txn.t array -> Stats.t;
  i_read : Key.t -> Value.t;
  i_probes : unit -> int;
}

let no_probes () = 0

let create w ~obs engine tables =
  let init = Ycsb.initial_value in
  let hekaton mode =
    let db = Hek_sim.create ~mode ~workers:w.workers ~tables init in
    { i_run = Hek_sim.run db; i_read = Hek_sim.read_latest db; i_probes = no_probes }
  in
  match engine with
  | Bohm ->
      let config =
        Config.make ~cc_threads:w.cc ~exec_threads:w.exec ~batch_size:w.batch
          ~shards:w.shards ~preprocess:w.preprocess ~obs ()
      in
      let db = Bohm_sim.create config ~tables init in
      {
        i_run = Bohm_sim.run db;
        i_read = Bohm_sim.read_latest db;
        i_probes = (fun () -> Bohm_sim.index_probes db);
      }
  | Twopl ->
      let db = Twopl_sim.create ~workers:w.workers ~tables init in
      { i_run = Twopl_sim.run db; i_read = Twopl_sim.read_latest db; i_probes = no_probes }
  | Occ ->
      let db = Silo_sim.create ~workers:w.workers ~tables init in
      { i_run = Silo_sim.run db; i_read = Silo_sim.read_latest db; i_probes = no_probes }
  | Si -> hekaton Bohm_hekaton.Engine.Snapshot
  | Hekaton -> hekaton Bohm_hekaton.Engine.Hekaton

let allocated_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* One simulation: bulk load, run, read back the written keys. *)
let run_engine w ~rep ~obs engine tables txns written =
  let engine_s = engine_name engine in
  Sim.run (fun () ->
      let inst, create_s =
        timed ~engine:engine_s ~rep "create" (fun () -> create w ~obs engine tables)
      in
      let steps0 = Sim.steps () and words0 = allocated_words () in
      let stats, run_s = timed ~engine:engine_s ~rep "run" (fun () -> inst.i_run txns) in
      let alloc_words = allocated_words () -. words0 in
      let steps = Sim.steps () - steps0 in
      let finals, readback_s =
        timed ~engine:engine_s ~rep "readback" (fun () -> Array.map inst.i_read written)
      in
      {
        engine;
        stats;
        create_s;
        run_s;
        steps;
        alloc_words;
        probes = inst.i_probes ();
        finals;
        readback_s;
      })

(* --- correctness --- *)

let written_keys txns =
  let tbl = Hashtbl.create 1024 in
  Array.iter (fun (t : Txn.t) -> Array.iter (fun k -> Hashtbl.replace tbl k ()) t.write_set) txns;
  let keys = Array.of_seq (Hashtbl.to_seq_keys tbl) in
  Array.sort Key.compare keys;
  keys

(* The serial replay every serializable engine must agree with: YCSB RMWs
   are increments, so the final state is order-independent. *)
let expected_finals tables txns written =
  let r = Reference.create ~tables Ycsb.initial_value in
  ignore (Reference.run r txns);
  Array.map (Reference.read r) written

(* Transactions of this run that did not complete (or a committed count
   above the number given), or whose writes disagree with the reference,
   plus any CC aborts by an engine that must never abort (BOHM, 2PL).
   Capped at the number attempted. *)
let failed_txns txns written expected r =
  let n = Array.length txns in
  let incomplete = n - (r.stats.Stats.committed + r.stats.logic_aborts) in
  let bad = Hashtbl.create 16 in
  Array.iteri
    (fun i k -> if not (Value.equal r.finals.(i) expected.(i)) then Hashtbl.replace bad k ())
    written;
  let wrong =
    if Hashtbl.length bad = 0 then 0
    else
      Array.fold_left
        (fun acc (t : Txn.t) ->
          if Array.exists (Hashtbl.mem bad) t.write_set then acc + 1 else acc)
        0 txns
  in
  let forbidden_aborts =
    match r.engine with Bohm | Twopl -> r.stats.cc_aborts | _ -> 0
  in
  min n (abs incomplete + wrong + forbidden_aborts)

(* The modeled outcome of a run: everything in [Stats] but host-side
   latency histograms. Equal inputs must give equal outcomes. *)
let modeled (s : Stats.t) =
  (s.txns, s.committed, s.logic_aborts, s.cc_aborts, s.elapsed, s.extra)

(* --- repetitions --- *)

type rep = {
  gen_s : float;
  results : result list;
  verify_s : float;
  failed : int;
  heap_peak_mb : float;  (** Process major-heap peak when the repetition ends. *)
}

let repetition w ~seed ~rep ?recorder () =
  Gc.compact ();
  let txns, gen_s =
    timed ~rep "generate" (fun () -> w.generate ~rows:w.rows ~count:w.count ~seed)
  in
  let tables = Ycsb.tables ~rows:w.rows ~record_bytes:w.record_bytes in
  let written = written_keys txns in
  let obs = recorder <> None in
  let results =
    List.map
      (fun engine ->
        Gc.compact ();
        let go () = run_engine w ~rep ~obs engine tables txns written in
        match recorder with
        | None -> go ()
        | Some mk -> Recorder.with_recorder (mk engine) go)
      w.engines
  in
  let failed, verify_s =
    timed ~rep "verify" (fun () ->
        let expected = expected_finals tables txns written in
        List.fold_left (fun acc r -> acc + failed_txns txns written expected r) 0 results)
  in
  let readback_s = List.fold_left (fun acc r -> acc +. r.readback_s) 0. results in
  let heap_peak_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.
  in
  { gen_s; results; verify_s = verify_s +. readback_s; failed; heap_peak_mb }

(* A set-up without a run: generate the log and bulk-load every engine. *)
let setup_round w ~seed ~rep =
  Gc.compact ();
  let _, gen_s = timed ~rep "generate" (fun () -> w.generate ~rows:w.rows ~count:w.count ~seed) in
  let tables = Ycsb.tables ~rows:w.rows ~record_bytes:w.record_bytes in
  List.fold_left
    (fun acc engine ->
      Gc.compact ();
      let _, create_s =
        Sim.run (fun () ->
            timed ~engine:(engine_name engine) ~rep "create" (fun () ->
                create w ~obs:false engine tables))
      in
      acc +. create_s)
    gen_s w.engines

let median = function
  | [] -> 0.
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let result_of reps engine =
  List.filter_map (fun r -> List.find_opt (fun x -> x.engine = engine) r.results) reps

let setup_s r = r.gen_s +. List.fold_left (fun acc x -> acc +. x.create_s) 0. r.results
let run_s r = List.fold_left (fun acc x -> acc +. x.run_s) 0. r.results

let host_txn_per_s r =
  let committed = List.fold_left (fun acc x -> acc + x.stats.Stats.committed) 0 r.results in
  float_of_int committed /. run_s r

(* --- metrics --- *)

type metric = { m_name : string; m_value : float; m_unit : string }

let m m_name m_unit m_value = { m_name; m_value; m_unit }

(* [setup_s] is the warm set-up a process pays for every database after
   its first: the first set-up, the first repetition's, also pays the
   runtime's heap growth, and is reported per layer as [setup.first_s].
   [setups] are the set-up-only rounds that close the run. The heap peak
   is taken after the first repetition, so it depends neither on how many
   repetitions fit the run nor on the set-up rounds. *)
let end_to_end reps ~setups ~attempted ~failed =
  let first = List.hd reps in
  let bohm = (List.hd (result_of reps Bohm)).stats in
  [
    m "modeled_txn_per_s" "txn/s" (Stats.throughput bohm);
    m "host_txn_per_s" "txn/s" (median (List.map host_txn_per_s reps));
    m "setup_s" "s" (median (setups @ List.map setup_s (List.tl reps)));
    m "verified_ratio" "fraction" (1. -. (float_of_int failed /. float_of_int attempted));
    m "heap_peak_mb" "MB" first.heap_peak_mb;
  ]

let bohm_stages = [ "preprocess"; "rebalance"; "cc"; "gc"; "exec"; "shard_vote" ]

let baseline_stages = function
  | Twopl -> [ "lock"; "exec" ]
  | _ -> [ "exec"; "commit" ]

let latency_phases = [ "queue_wait"; "cc_wait"; "dep_stall"; "exec" ]

let core_counters =
  [
    "wakeups"; "exec_retry_scans"; "steals"; "gc_collected"; "slabs_opened";
    "slabs_retired"; "rebalances"; "segs_moved"; "cc_imbalance_max";
    "cc_imbalance_mean"; "cross_shard_txns"; "shard_votes";
  ]

let extra s k = Option.value ~default:0. (Stats.extra s k)

(* Per-layer metrics. [reps] are the untraced repetitions; [traced] is
   the one repetition run under a recorder, with that recorder per
   engine. An engine the workload does not run reports 0 for its
   metrics, as does a counter of a stage the workload never reaches. *)
let per_layer reps (traced : rep) recorders =
  let per_engine engine =
    let name = engine_name engine in
    let rs = result_of reps engine in
    let med f = median (List.map f rs) in
    let ran = rs <> [] in
    let first f = if ran then f (List.hd rs) else 0. in
    [
      m ("create_s." ^ name) "s" (med (fun r -> r.create_s));
      m ("host_s." ^ name) "s" (med (fun r -> r.run_s));
      m ("sim.steps." ^ name) "count" (first (fun r -> float_of_int r.steps));
      m ("sim.host_ns_per_step." ^ name) "ns"
        (med (fun r -> r.run_s *. 1e9 /. float_of_int (max 1 r.steps)));
      m ("alloc_words_per_txn." ^ name) "words"
        (first (fun r -> r.alloc_words /. float_of_int (max 1 r.stats.Stats.txns)));
    ]
    @ (if engine = Bohm then []
       else
         [ m ("modeled_txn_per_s." ^ name) "txn/s" (first (fun r -> Stats.throughput r.stats)) ])
    @
    match engine with
    | Occ | Si | Hekaton ->
        [ m ("cc_abort_ratio." ^ name) "fraction" (first (fun r -> Stats.abort_rate r.stats)) ]
    | Bohm | Twopl -> []
  in
  let b = List.hd (result_of reps Bohm) in
  let bs = b.stats in
  let per_txn v = v /. float_of_int (max 1 bs.Stats.committed) in
  let core =
    m "core.exec_attempts_per_txn" "ratio"
      (per_txn (float_of_int bs.committed +. extra bs "dep_blocks"))
    :: m "core.index_probes_per_txn" "count" (per_txn (float_of_int b.probes))
    :: List.map
         (fun k ->
           let unit = if String.starts_with ~prefix:"cc_imbalance" k then "ratio" else "count" in
           m ("core." ^ k) unit (extra bs k))
         core_counters
  in
  let timeline engine =
    match List.assoc_opt engine recorders with
    | Some r -> Timeline.of_recorder r
    | None -> []
  in
  let stage_sum records stage =
    float_of_int (List.fold_left (fun acc r -> acc + Timeline.stage r stage) 0 records)
  in
  let bohm_tl = timeline Bohm in
  let bohm_cp = Critical_path.analyze (List.assoc Bohm recorders) in
  let stages =
    List.map (fun s -> m ("stage_cycles." ^ s) "cycles" (stage_sum bohm_tl s)) bohm_stages
    @ List.concat_map
        (fun e ->
          let tl = timeline e in
          List.map
            (fun s ->
              m (Printf.sprintf "stage_cycles.%s.%s" (engine_name e) s) "cycles" (stage_sum tl s))
            (baseline_stages e))
        baselines
    @ List.map
        (fun s -> m ("binding_share." ^ s) "fraction" (Critical_path.binding_share bohm_cp s))
        bohm_stages
    @ [
        m "batch_makespan_p50_cycles" "cycles"
          (median (List.map (fun r -> float_of_int (Timeline.makespan r)) bohm_tl));
      ]
  in
  let traced_bohm = List.find (fun r -> r.engine = Bohm) traced.results in
  let latency =
    List.concat_map
      (fun phase ->
        let pct p =
          match Stats.latency traced_bohm.stats phase with
          | Some h when Histogram.count h > 0 -> float_of_int (Histogram.percentile h p)
          | _ -> 0.
        in
        [
          m (Printf.sprintf "latency.%s.p50_cycles" phase) "cycles" (pct 50.);
          m (Printf.sprintf "latency.%s.p99_cycles" phase) "cycles" (pct 99.);
        ])
      latency_phases
  in
  [
    m "workload.gen_s" "s" (median (List.map (fun r -> r.gen_s) reps));
    m "setup.first_s" "s" (setup_s (List.hd reps));
  ]
  @ List.concat_map per_engine all_engines
  @ core @ stages @ latency
  @ [
      m "trace.overhead_ratio" "ratio" (run_s traced /. median (List.map run_s reps));
      m "harness.verify_s" "s" (median (List.map (fun r -> r.verify_s) reps));
    ]

(* --- output --- *)

let json_float f = if Float.is_finite f then Printf.sprintf "%.17g" f else "0"

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" x.m_name
             (json_float x.m_value) x.m_unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

let find_workload name =
  match List.find_opt (fun w -> w.name = name) workloads with
  | Some w -> w
  | None ->
      Printf.eprintf "unknown workload %S (one of: %s)\n" name
        (String.concat ", " (List.map (fun w -> w.name) workloads));
      exit 2

(* Repetitions that always run, even past the time budget, and set-up-only
   rounds that close each run. *)
let min_reps = 3
let setup_rounds = 5

let run_cmd ~workload ~seed ~seconds ~trace ~trace_out =
  let w = find_workload workload in
  let t_start = now () in
  (* Stop before a repetition that would overrun the budget, judging by
     the last one and keeping room for the set-up rounds, so a run lasts
     about [seconds] whatever the workload. *)
  let rec loop i last acc =
    let reserve = match acc with r :: _ -> float_of_int setup_rounds *. setup_s r | [] -> 0. in
    if i >= min_reps && now () -. t_start +. last +. reserve > seconds then List.rev acc
    else
      let t0 = now () in
      let r = repetition w ~seed ~rep:i () in
      loop (i + 1) (now () -. t0) (r :: acc)
  in
  let reps = loop 0 0. [] in
  let n = List.length reps in
  let setups = List.init setup_rounds (fun i -> setup_round w ~seed ~rep:(n + i)) in
  List.iteri
    (fun i r -> Printf.eprintf "repetition %d: setup %.3f s, run %.3f s\n" i (setup_s r) (run_s r))
    reps;
  let attempted = List.length reps * List.length w.engines * w.count in
  let failed = List.fold_left (fun acc r -> acc + r.failed) 0 reps in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if failed > 0 then problem "%d of %d transactions failed verification" failed attempted;
  (* Equal inputs must give equal modeled outcomes, repetition to
     repetition. *)
  List.iter
    (fun e ->
      match result_of reps e with
      | first :: rest ->
          let differs r = modeled r.stats <> modeled first.stats || r.steps <> first.steps in
          if List.exists differs rest then
            problem "%s: modeled outcome differs between repetitions" (engine_name e)
      | [] -> ())
    w.engines;
  let metrics =
    if not trace then end_to_end reps ~setups ~attempted ~failed
    else begin
      let recorders = List.map (fun e -> (e, Recorder.create ())) w.engines in
      let traced =
        repetition w ~seed ~rep:(n + setup_rounds) ~recorder:(fun e -> List.assoc e recorders) ()
      in
      if traced.failed > 0 then
        problem "traced run: %d transactions failed verification" traced.failed;
      (* The observer property: recording must not change the modeled run. *)
      List.iter
        (fun r ->
          let u = List.hd (result_of reps r.engine) in
          if modeled r.stats <> modeled u.stats || r.steps <> u.steps then
            problem "%s: traced run's modeled outcome differs from the untraced run"
              (engine_name r.engine))
        traced.results;
      Option.iter
        (fun path ->
          write_trace (path ^ ".trace.json");
          Timeline.write_jsonl ~path:(path ^ ".timeline.jsonl")
            (Timeline.of_recorder (List.assoc Bohm recorders)))
        trace_out;
      per_layer reps traced recorders
    end
  in
  List.iter (fun p -> Printf.eprintf "FAIL: %s\n" p) (List.rev !problems);
  Printf.eprintf "%s seed %d: %d repetitions, %d txns x %d engines each\n%!" w.name seed
    (List.length reps) w.count (List.length w.engines);
  let correct = !problems = [] in
  print_result ~correct ~attempted ~failed metrics;
  if not correct then exit 1

(* --- figure cross-check --- *)

(* Recorded cells, to their recorded precision (6 significant digits):
   BENCH_PR9.json fig4 (exec=12, CC=4); BENCH_PR6.json fig5 top and fig6
   top, x=16, in the paper's legend order. *)
let figure_cells =
  [
    ("uniform-cc", 41, 8_000, [ (Bohm, 2689210.) ]);
    ("hot-exec", 51, 6_000, [ (Bohm, 309120.) ]);
    ( "mixed-hot",
      51,
      6_000,
      [
        (Twopl, 488459.); (Bohm, 999231.); (Occ, 795114.); (Si, 1031930.); (Hekaton, 749344.);
      ] );
  ]

let figures_cmd () =
  let ok = ref true in
  List.iter
    (fun (name, seed, count, cells) ->
      let w = { (find_workload name) with count } in
      let r = repetition w ~seed ~rep:0 () in
      if r.failed > 0 then begin
        ok := false;
        Printf.printf "%s: %d transactions failed verification\n" name r.failed
      end;
      List.iter
        (fun (engine, recorded) ->
          let got = Stats.throughput (List.find (fun x -> x.engine = engine) r.results).stats in
          let same = Printf.sprintf "%.6g" got = Printf.sprintf "%.6g" recorded in
          if not same then ok := false;
          Printf.printf "%-12s seed %d n=%d %-8s %.0f recorded %.6g %s\n%!" name seed count
            (engine_name engine) got recorded
            (if same then "ok" else "MISMATCH"))
        cells)
    figure_cells;
  if not !ok then exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let trace_out = ref None in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload generator seed");
      ("--seconds", Arg.Set_float seconds, "S host seconds of repetitions");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ( "--trace-out",
        Arg.String (fun s -> trace_out := Some s),
        "PREFIX write the traced run's spans and timeline" );
    ]
  in
  let cmd = ref "" in
  Arg.parse specs (fun a -> cmd := a) "bench.exe (run | figures) [options]";
  match !cmd with
  | "run" ->
      if !trace <> 0 && !trace <> 1 then begin
        prerr_endline "--trace must be 0 or 1";
        exit 2
      end;
      run_cmd ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
        ~trace_out:!trace_out
  | "figures" -> figures_cmd ()
  | _ ->
      prerr_endline "usage: bench.exe (run | figures) [options]";
      exit 2
