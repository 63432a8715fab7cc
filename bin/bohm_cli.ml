(* Command-line front-end over the experiment harness.

   bohm_cli run     — one engine x workload configuration on the simulator
   bohm_cli analyze — static footprint certifier + batch conflict-graph
                      report, optionally cross-validated against a run
   bohm_cli bench   — regenerate paper figures/tables (same drivers as
                      bench/main.exe) *)

open Cmdliner

module Stats = Bohm_txn.Stats
module Ycsb = Bohm_workload.Ycsb
module Smallbank = Bohm_workload.Smallbank
module Ycsb_ir = Bohm_workload.Ycsb_ir
module Smallbank_ir = Bohm_workload.Smallbank_ir
module Absint = Bohm_analysis_static.Absint
module Certify = Bohm_analysis_static.Certify
module Conflict_graph = Bohm_analysis_static.Conflict_graph
module Sanitizer_report = Bohm_analysis.Report
module Check = Bohm_harness.Serialization_check
module Runner = Bohm_harness.Runner
module Report = Bohm_harness.Report
module Experiments = Bohm_harness.Experiments

(* --- shared converters --- *)

module Mvto_sim = Bohm_mvto.Engine.Make (Bohm_runtime.Sim)

type cli_engine = Std of Runner.engine | Mvto

let engine_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "bohm" -> Ok (Std Runner.Bohm)
    | "hekaton" -> Ok (Std Runner.Hekaton)
    | "si" | "snapshot" -> Ok (Std Runner.Si)
    | "occ" | "silo" -> Ok (Std Runner.Occ)
    | "2pl" | "locking" -> Ok (Std Runner.Twopl)
    | "mvto" -> Ok Mvto
    | _ -> Error (`Msg ("unknown engine: " ^ s ^ " (bohm|hekaton|si|occ|2pl|mvto)"))
  in
  let print fmt = function
    | Std e -> Format.pp_print_string fmt (Runner.name e)
    | Mvto -> Format.pp_print_string fmt "MVTO"
  in
  Arg.conv (parse, print)

type workload_kind = W_10rmw | W_2rmw8r | W_readonly_mix | W_smallbank

let workload_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "10rmw" | "ycsb-10rmw" -> Ok W_10rmw
    | "2rmw8r" | "ycsb-2rmw8r" -> Ok W_2rmw8r
    | "readonly-mix" -> Ok W_readonly_mix
    | "smallbank" -> Ok W_smallbank
    | _ ->
        Error
          (`Msg
            ("unknown workload: " ^ s
           ^ " (10rmw|2rmw8r|readonly-mix|smallbank)"))
  in
  let print fmt w =
    Format.pp_print_string fmt
      (match w with
      | W_10rmw -> "10rmw"
      | W_2rmw8r -> "2rmw8r"
      | W_readonly_mix -> "readonly-mix"
      | W_smallbank -> "smallbank")
  in
  Arg.conv (parse, print)

(* --- run command --- *)

let run_cmd =
  let engine =
    Arg.(value & opt engine_conv (Std Runner.Bohm) & info [ "e"; "engine" ] ~doc:"Engine: bohm, hekaton, si, occ, 2pl or mvto.")
  in
  let workload =
    Arg.(value & opt workload_conv W_10rmw & info [ "w"; "workload" ] ~doc:"Workload: 10rmw, 2rmw8r, readonly-mix or smallbank.")
  in
  let threads =
    Arg.(value & opt int 8 & info [ "t"; "threads" ] ~doc:"Simulated threads (per shard when --shards > 1).")
  in
  let shards =
    Arg.(
      value & opt int 1
      & info [ "shards" ]
          ~doc:
            "BOHM shard count: each shard runs a complete pipeline \
             (CC partitions, execution pool, version store) over its slice \
             of the key space; batches commit through one deterministic \
             cross-shard vote round.")
  in
  let cross_shard_pct =
    Arg.(
      value & opt float 10.0
      & info [ "cross-shard-pct" ]
          ~doc:
            "Percentage of YCSB transactions spanning two shards (only \
             meaningful with --shards > 1 on the 10rmw/2rmw8r workloads; \
             the rest are confined to one shard).")
  in
  let theta =
    Arg.(value & opt float 0.0 & info [ "theta" ] ~doc:"Zipfian contention parameter (YCSB).")
  in
  let rows =
    Arg.(value & opt int 100_000 & info [ "rows" ] ~doc:"Table rows (YCSB) / customers (SmallBank).")
  in
  let count =
    Arg.(value & opt int 10_000 & info [ "n"; "txns" ] ~doc:"Transactions to run.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Workload seed.") in
  let cc_fraction =
    Arg.(value & opt float 0.25 & info [ "cc-fraction" ] ~doc:"Fraction of threads for BOHM's CC layer.")
  in
  let batch =
    Arg.(value & opt int 1000 & info [ "batch" ] ~doc:"BOHM batch size.")
  in
  let no_gc = Arg.(value & flag & info [ "no-gc" ] ~doc:"Disable BOHM garbage collection.") in
  let no_annotation =
    Arg.(value & flag & info [ "no-annotation" ] ~doc:"Disable BOHM's read-annotation optimization.")
  in
  let preprocess =
    Arg.(
      value & flag
      & info [ "preprocess" ]
          ~doc:"Enable BOHM's pipelined pre-processing stage (paper 3.2.2).")
  in
  let no_cc_rebalance =
    Arg.(
      value & flag
      & info [ "no-cc-rebalance" ]
          ~doc:
            "Disable adaptive CC repartitioning (epoch-versioned partition \
             maps rebalanced between batches; inert anyway unless \
             $(b,--preprocess) is on). Off pins the static hash assignment.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"PATH"
          ~doc:
            "Record pipeline phase spans and write a Chrome trace-event \
             JSON file to $(docv) (loadable in Perfetto / chrome://tracing).")
  in
  let timeline =
    Arg.(
      value
      & opt (some string) None
      & info [ "timeline" ] ~docv:"PATH"
          ~doc:
            "Record the run and write the per-batch timeline (makespan, \
             per-stage durations, commit/steal/wakeup counts, slab \
             occupancy, CC imbalance, vote latencies) as JSONL to $(docv). \
             With $(b,--trace) the same records also ride the trace file \
             as Chrome counter tracks.")
  in
  let latency =
    Arg.(
      value & flag
      & info [ "latency" ]
          ~doc:
            "Record per-transaction latency histograms and print per-phase \
             p50/p95/p99 (cycles on the simulator).")
  in
  let sanitize =
    Arg.(
      value & flag
      & info [ "sanitize" ]
          ~doc:
            "Run under the full sanitizer suite (footprint shim, race \
             detector, version-chain audit) and exit nonzero on any \
             diagnostic.")
  in
  let action engine workload threads shards cross_shard_pct theta rows count
      seed cc_fraction batch no_gc no_annotation preprocess no_cc_rebalance
      trace timeline latency sanitize =
    let ycsb_gen profile =
      if shards > 1 then
        Ycsb.generate_sharded ~rows ~theta ~count ~seed ~shards
          ~cross_fraction:(cross_shard_pct /. 100.) profile
      else Ycsb.generate ~rows ~theta ~count ~seed profile
    in
    let spec, txns =
      match workload with
      | W_10rmw ->
          ( {
              Runner.tables = Ycsb.tables ~rows ~record_bytes:1000;
              init = Ycsb.initial_value;
            },
            ycsb_gen (Ycsb.rmw_profile 10) )
      | W_2rmw8r ->
          ( {
              Runner.tables = Ycsb.tables ~rows ~record_bytes:1000;
              init = Ycsb.initial_value;
            },
            ycsb_gen (Ycsb.mixed_profile ~rmws:2 ~reads:8) )
      | W_readonly_mix ->
          ( {
              Runner.tables = Ycsb.tables ~rows ~record_bytes:1000;
              init = Ycsb.initial_value;
            },
            Ycsb.generate_mix ~rows ~read_only_fraction:0.01 ~scan:1000
              ~update_profile:(Ycsb.rmw_profile 10) ~theta ~count ~seed )
      | W_smallbank ->
          ( {
              Runner.tables = Smallbank.tables ~customers:rows;
              init = Smallbank.initial_value;
            },
            Smallbank.generate ~customers:rows ~count ~seed ~spin:4_000 () )
    in
    let obs_on = trace <> None || timeline <> None || latency in
    let bohm =
      {
        Runner.cc_fraction;
        batch_size = batch;
        shards;
        gc = not no_gc;
        read_annotation = not no_annotation;
        preprocess;
        cc_rebalance = not no_cc_rebalance;
        obs = obs_on;
      }
    in
    let recorder = if obs_on then Some (Bohm_obs.Recorder.create ()) else None in
    let run_once () =
      match engine with
      | Std e when sanitize ->
          let stats, report = Runner.run_sim_sanitized ~bohm e ~threads spec txns in
          (Runner.name e, stats, Some report)
      | Std e -> (Runner.name e, Runner.run_sim ~bohm e ~threads spec txns, None)
      | Mvto when sanitize ->
          prerr_endline "bohm_cli run: --sanitize is not supported for MVTO";
          exit 2
      | Mvto ->
          ( "MVTO",
            Bohm_runtime.Sim.run (fun () ->
                let db =
                  Mvto_sim.create ~workers:threads ~tables:spec.Runner.tables
                    spec.Runner.init
                in
                Mvto_sim.run db txns),
            None )
    in
    let name, stats, sanitizer =
      match recorder with
      | None -> run_once ()
      | Some r -> Bohm_obs.Recorder.with_recorder r run_once
    in
    Report.header
      ~title:
        (if shards > 1 then
           Printf.sprintf "%s / %d shards x %d threads" name shards threads
         else Printf.sprintf "%s / %d threads" name threads);
    Report.print_kv
      ([
         ("throughput", Report.float_to_string (Stats.throughput stats) ^ " txns/s");
         ("transactions", string_of_int stats.Stats.txns);
         ("committed", string_of_int stats.Stats.committed);
         ("logic aborts", string_of_int stats.Stats.logic_aborts);
         ("cc aborts", string_of_int stats.Stats.cc_aborts);
         ("virtual time", Printf.sprintf "%.4f s" stats.Stats.elapsed);
       ]
      @ List.map
          (fun (k, v) -> (k, Report.float_to_string v))
          stats.Stats.extra);
    if latency then begin
      print_newline ();
      Report.print_series ~x_label:"phase"
        ~columns:[ "p50"; "p95"; "p99"; "p999"; "mean"; "stddev"; "count" ]
        ~rows:
          (List.map
             (fun (phase, h) ->
               let s = Bohm_util.Histogram.to_summary h in
               ( phase,
                 [
                   Some (float_of_int s.Bohm_util.Histogram.s_p50);
                   Some (float_of_int s.Bohm_util.Histogram.s_p95);
                   Some (float_of_int s.Bohm_util.Histogram.s_p99);
                   Some (float_of_int s.Bohm_util.Histogram.s_p999);
                   Some s.Bohm_util.Histogram.s_mean;
                   Some s.Bohm_util.Histogram.s_stddev;
                   Some (float_of_int s.Bohm_util.Histogram.s_count);
                 ] ))
             stats.Stats.latency)
    end;
    (match recorder with
    | None -> ()
    | Some r ->
        (* One replay feeds both export paths. *)
        let records =
          if timeline <> None || trace <> None then
            Bohm_obs.Timeline.of_recorder r
          else []
        in
        (match timeline with
        | Some path ->
            Bohm_obs.Timeline.write_jsonl ~path records;
            Printf.printf "\ntimeline: %s\n" path
        | None -> ());
        (match trace with
        | Some path ->
            Bohm_obs.Chrome.write
              ~counters:(Bohm_obs.Timeline.counters records)
              ~path r;
            Printf.printf "\ntrace: %s\n" path
        | None -> ()));
    match sanitizer with
    | None -> ()
    | Some report ->
        print_newline ();
        print_endline (Sanitizer_report.to_string report);
        if not (Sanitizer_report.is_clean report) then exit 1
  in
  let term =
    Term.(
      const action $ engine $ workload $ threads $ shards $ cross_shard_pct
      $ theta $ rows $ count $ seed $ cc_fraction $ batch $ no_gc
      $ no_annotation $ preprocess $ no_cc_rebalance $ trace $ timeline
      $ latency $ sanitize)
  in
  Cmd.v (Cmd.info "run" ~doc:"Run one engine/workload configuration on the simulator.") term

(* --- tune command (SEDA thread-allocation search, paper 4.1) --- *)

let tune_cmd =
  let threads =
    Arg.(value & opt int 16 & info [ "t"; "threads" ] ~doc:"Total simulated threads to divide.")
  in
  let theta =
    Arg.(value & opt float 0.0 & info [ "theta" ] ~doc:"Zipfian contention parameter.")
  in
  let rows = Arg.(value & opt int 100_000 & info [ "rows" ] ~doc:"Table rows.") in
  let bytes =
    Arg.(value & opt int 1000 & info [ "record-bytes" ] ~doc:"Record size in bytes.")
  in
  let rmws = Arg.(value & opt int 10 & info [ "rmws" ] ~doc:"RMWs per transaction.") in
  let reads = Arg.(value & opt int 0 & info [ "reads" ] ~doc:"Pure reads per transaction.") in
  let action threads theta rows bytes rmws reads =
    let spec =
      { Runner.tables = Ycsb.tables ~rows ~record_bytes:bytes; init = Ycsb.initial_value }
    in
    let txns =
      Ycsb.generate ~rows ~theta ~count:6_000 ~seed:1
        (Ycsb.mixed_profile ~rmws ~reads)
    in
    let r = Bohm_harness.Autotune.search ~threads spec txns in
    Report.header
      ~title:(Printf.sprintf "Autotune: %d threads, %dRMW-%dR, theta=%.2f" threads rmws reads theta);
    Report.print_series ~x_label:"cc threads" ~columns:[ "txns/s" ]
      ~rows:
        (List.map
           (fun (cc, t) -> (string_of_int cc, [ Some t ]))
           r.Bohm_harness.Autotune.samples);
    print_newline ();
    Report.print_kv
      [
        ("best split", Printf.sprintf "%d cc / %d exec"
           r.Bohm_harness.Autotune.cc_threads r.Bohm_harness.Autotune.exec_threads);
        ("throughput", Report.float_to_string r.Bohm_harness.Autotune.throughput ^ " txns/s");
      ]
  in
  Cmd.v
    (Cmd.info "tune" ~doc:"Search for the best CC/execution thread split (SEDA controller).")
    Term.(const action $ threads $ theta $ rows $ bytes $ rmws $ reads)

(* --- analyze command (static footprint certifier, paper 2.3) --- *)

module Bohm_sim = Bohm_core.Engine.Make (Bohm_runtime.Sim)

let analyze_cmd =
  let workload =
    Arg.(
      value & opt workload_conv W_10rmw
      & info [ "w"; "workload" ]
          ~doc:"Workload: 10rmw, 2rmw8r, readonly-mix or smallbank.")
  in
  let rows =
    Arg.(
      value & opt int 1_000
      & info [ "rows" ] ~doc:"Table rows (YCSB) / customers (SmallBank).")
  in
  let count =
    Arg.(value & opt int 2_000 & info [ "n"; "txns" ] ~doc:"Transactions to analyze.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Workload seed.") in
  let theta =
    Arg.(value & opt float 0.0 & info [ "theta" ] ~doc:"Zipfian contention parameter (YCSB).")
  in
  let partitions =
    Arg.(
      value & opt int 4
      & info [ "partitions" ]
          ~doc:"CC partitions for the predicted placeholder-load report.")
  in
  let shards =
    Arg.(
      value & opt int 1
      & info [ "shards" ]
          ~doc:
            "Also report the batch's static sharding profile for this shard \
             count: per-shard placeholder load, cross-shard transaction \
             fraction, cross-shard dependency edges and expected vote \
             fan-out.")
  in
  let cross_validate =
    Arg.(
      value & flag
      & info [ "cross-validate" ]
          ~doc:
            "Also run BOHM on the simulator: (a) the lowered IR batch under \
             the dynamic sanitizers (inferred declarations must cover every \
             observed access) and (b) an instrumented workload whose \
             observed serialization graph must agree edge-for-edge with the \
             static conflict graph.")
  in
  let threads =
    Arg.(value & opt int 8 & info [ "t"; "threads" ] ~doc:"Simulated threads for cross-validation runs.")
  in
  let action workload rows count seed theta partitions shards cross_validate
      threads =
    let wname =
      match workload with
      | W_10rmw -> "10rmw"
      | W_2rmw8r -> "2rmw8r"
      | W_readonly_mix -> "readonly-mix"
      | W_smallbank -> "smallbank"
    in
    let ycsb profile =
      ( Ycsb_ir.generate ~rows ~theta ~count ~seed profile,
        Ycsb.generate ~rows ~theta ~count ~seed profile,
        {
          Runner.tables = Ycsb.tables ~rows ~record_bytes:1000;
          init = Ycsb.initial_value;
        } )
    in
    let insts, declared, spec =
      match workload with
      | W_10rmw -> ycsb (Ycsb.rmw_profile 10)
      | W_2rmw8r -> ycsb (Ycsb.mixed_profile ~rmws:2 ~reads:8)
      | W_readonly_mix ->
          ( Ycsb_ir.generate_mix ~rows ~read_only_fraction:0.01 ~scan:1000
              ~update_profile:(Ycsb.rmw_profile 10) ~theta ~count ~seed,
            Ycsb.generate_mix ~rows ~read_only_fraction:0.01 ~scan:1000
              ~update_profile:(Ycsb.rmw_profile 10) ~theta ~count ~seed,
            {
              Runner.tables = Ycsb.tables ~rows ~record_bytes:1000;
              init = Ycsb.initial_value;
            } )
      | W_smallbank ->
          ( Smallbank_ir.generate ~customers:rows ~count ~seed ~spin:4_000 (),
            Smallbank.generate ~customers:rows ~count ~seed ~spin:4_000 (),
            {
              Runner.tables = Smallbank.tables ~customers:rows;
              init = Smallbank.initial_value;
            } )
    in
    (* Certify the closure generator's hand-written declarations against
       the inferred may-sets of the IR twin (same seed, same draws). *)
    let report = Sanitizer_report.create () in
    Certify.check_all report insts ~declared;
    let fps = Array.map Absint.infer insts in
    let sum f = Array.fold_left (fun acc fp -> acc + Array.length (f fp)) 0 fps in
    let over_r, over_w =
      Array.fold_left
        (fun (r, w) i ->
          let dr, dw = Certify.overdeclared insts.(i) ~declared:declared.(i) in
          (r + List.length dr, w + List.length dw))
        (0, 0)
        (Array.init (Array.length insts) Fun.id)
    in
    let g = Conflict_graph.of_instances insts in
    Report.header
      ~title:(Printf.sprintf "Static footprint analysis: %s, %d txns" wname count);
    Report.print_kv
      [
        ("may-reads", string_of_int (sum (fun fp -> fp.Absint.may_reads)));
        ("must-reads", string_of_int (sum (fun fp -> fp.Absint.must_reads)));
        ("may-writes", string_of_int (sum (fun fp -> fp.Absint.may_writes)));
        ("must-writes", string_of_int (sum (fun fp -> fp.Absint.must_writes)));
        ("conditional writes", string_of_int (sum Absint.conditional_writes));
        ( "over-declared",
          Printf.sprintf "%d reads, %d writes (legal; wasted CC work)" over_r
            over_w );
      ];
    print_newline ();
    print_endline (Conflict_graph.summary g ~partitions);
    if shards > 1 then begin
      print_newline ();
      print_endline (Conflict_graph.shard_summary g ~shards)
    end;
    let dyn_dirty = ref false in
    if cross_validate then begin
      (* (a) the inferred declarations must cover every access an actual
         run performs (soundness: observed ⊆ may). *)
      let lowered = Array.map Certify.lower insts in
      let _stats, dyn = Runner.run_sim_sanitized Runner.Bohm ~threads spec lowered in
      print_newline ();
      Printf.printf "sanitized BOHM run on lowered IR: %s\n"
        (if Sanitizer_report.is_clean dyn then "clean"
         else Sanitizer_report.to_string dyn);
      if not (Sanitizer_report.is_clean dyn) then dyn_dirty := true;
      (* (b) the static conflict graph must be the serialization graph a
         BOHM run realizes (batch order = timestamp order). *)
      let g_rows = 16 and g_txns = min count 64 in
      let w =
        Check.make_workload ~rows:g_rows ~txns:g_txns ~rmws_per_txn:2
          ~reads_per_txn:2 ~seed
      in
      let tables =
        [| Bohm_storage.Table.make ~tid:0 ~name:"t" ~rows:g_rows ~record_bytes:8 |]
      in
      let final_read =
        Bohm_runtime.Sim.run (fun () ->
            let db =
              Bohm_sim.create
                (Bohm_core.Config.make ~cc_threads:2 ~exec_threads:3
                   ~batch_size:8 ())
                ~tables Check.initial_value
            in
            ignore (Bohm_sim.run db (Check.txns w));
            Bohm_sim.read_latest db)
      in
      let static_g = Conflict_graph.of_txns (Check.txns w) in
      let edge_str (a, b, k) =
        Printf.sprintf "%d->%d %s" a b
          (match k with `Ww -> "ww" | `Wr -> "wr" | `Rw -> "rw")
      in
      (match Check.observed_graph w ~final_read with
      | Error msg ->
          Sanitizer_report.add report Sanitizer_report.Static_graph_mismatch
            ("observed graph corrupt: " ^ msg)
      | Ok observed ->
          let static_only, observed_only =
            Conflict_graph.diff static_g ~observed
          in
          List.iter
            (fun e ->
              Sanitizer_report.add report Sanitizer_report.Static_graph_mismatch
                ("static-only edge " ^ edge_str e))
            static_only;
          List.iter
            (fun e ->
              Sanitizer_report.add report Sanitizer_report.Static_graph_mismatch
                ("observed-only edge " ^ edge_str e))
            observed_only;
          Printf.printf
            "conflict-graph cross-validation (BOHM, %d txns): %s\n" g_txns
            (if static_only = [] && observed_only = [] then
               Printf.sprintf "agrees edge-for-edge (%d edges)"
                 (List.length observed)
             else "MISMATCH"))
    end;
    print_newline ();
    print_endline (Sanitizer_report.to_string report);
    if (not (Sanitizer_report.is_clean report)) || !dyn_dirty then exit 1
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Static footprint certification and batch conflict-graph analysis \
          (exit 1 on any diagnostic).")
    Term.(
      const action $ workload $ rows $ count $ seed $ theta $ partitions
      $ shards $ cross_validate $ threads)

(* --- report command (critical-path analysis of a saved trace) --- *)

let report_cmd =
  let trace =
    Arg.(
      required
      & opt (some string) None
      & info [ "trace" ] ~docv:"PATH"
          ~doc:
            "Chrome trace-event file written by $(b,bohm_cli run --trace) \
             (or any file accepted by the re-importer).")
  in
  let top =
    Arg.(
      value & opt int 5
      & info [ "top" ] ~docv:"N"
          ~doc:"Rows per section of the summary (binding stages, blamed \
                (writer, key) pairs).")
  in
  let action trace top =
    let recorder =
      match
        try Bohm_obs.Chrome.read ~path:trace
        with Sys_error msg -> Error msg
      with
      | Ok r -> r
      | Error msg ->
          prerr_endline ("bohm_cli report: " ^ msg);
          exit 2
    in
    let cp = Bohm_obs.Critical_path.analyze recorder in
    Report.header ~title:(Printf.sprintf "Critical path: %s" trace);
    Format.printf "%a@." (Bohm_obs.Critical_path.pp ~top) cp
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Replay a saved trace and print the per-batch critical path: \
          binding pipeline stages and the dependency-stall blame ledger.")
    Term.(const action $ trace $ top)

(* --- bench command --- *)

let bench_cmd =
  (* An enum converter: every name is validated before anything runs, and
     an unknown one is a usage error listing the valid names. *)
  let names =
    Arg.(
      value
      & pos_all
          (enum (List.map (fun (name, _) -> (name, name)) Experiments.experiments))
          []
      & info [] ~docv:"EXPERIMENT"
          ~doc:
            ("Experiments to run (default: all). One of "
            ^ String.concat " " (List.map fst Experiments.experiments)
            ^ "."))
  in
  let quick = Arg.(value & flag & info [ "quick" ] ~doc:"Shrink sweeps for a smoke run.") in
  let scale =
    Arg.(value & opt float 1.0 & info [ "scale" ] ~doc:"Multiply transaction counts.")
  in
  let action names quick scale =
    match names with
    | [] -> Experiments.run_all ~scale ~quick ()
    | names ->
        List.iter
          (fun name ->
            let f = List.assoc name Experiments.experiments in
            List.iter Experiments.print (f ~scale ~quick ()))
          names
  in
  Cmd.v
    (Cmd.info "bench" ~doc:"Regenerate the paper's tables and figures.")
    Term.(const action $ names $ quick $ scale)

let () =
  let doc = "BOHM multi-version concurrency control — experiment driver" in
  let info = Cmd.info "bohm_cli" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info [ run_cmd; analyze_cmd; report_cmd; bench_cmd; tune_cmd ]))
