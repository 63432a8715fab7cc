(* Benchmark harness entry point.

   With no arguments, regenerates every table and figure of the paper's
   evaluation on the simulated multicore machine, runs the ablation
   benches, and finishes with the Bechamel component micro-benchmarks.
   Pass experiment names (any of [Experiments.experiments], or micro
   micro-slabs micro-sim smoke sanitize; --help lists them) to run a
   subset; --quick shrinks sweeps for smoke runs; --scale=F
   multiplies transaction counts; --json=PATH also writes every table of
   the run (with per-column throughput ceilings) as one JSON document. *)

module Experiments = Bohm_harness.Experiments
module Runner = Bohm_harness.Runner
module Stats = Bohm_txn.Stats
module Ycsb = Bohm_workload.Ycsb
module Table = Bohm_storage.Table
module Check = Bohm_harness.Serialization_check
module Analysis = Bohm_analysis.Report

let usage () =
  prerr_endline
    "usage: main.exe [--quick] [--scale=F] [--json=PATH] [--sanitize] \
     [experiment ...]";
  prerr_endline "experiments:";
  List.iter
    (fun (name, _) -> prerr_endline ("  " ^ name))
    Experiments.experiments;
  prerr_endline "  micro";
  prerr_endline
    "  micro-slabs (version-store chain-walk micro-benches only; fast)";
  prerr_endline "  micro-sim (simulator host ns per scheduler step only; fast)";
  prerr_endline "  smoke   (fig4-config correctness gate; non-zero exit on loss)";
  prerr_endline
    "  sanitize (every engine under the full sanitizer suite; non-zero exit \
     on diagnostics)";
  prerr_endline
    "options: --sanitize also runs the smoke configurations under the \
     sanitizer suite";
  exit 2

(* Every engine, fully sanitized — footprint shim, race tracing, chain
   audit — on the serialization-check workload (contended RMWs plus pure
   reads: the access mix that exercises every code path the checkers
   watch). Any diagnostic is a hard failure. *)
let sanitize ~scale ~quick =
  let rows = 48 in
  let count =
    max 60 (int_of_float ((if quick then 120. else 400.) *. scale))
  in
  let w =
    Check.make_workload ~rows ~txns:count ~rmws_per_txn:2 ~reads_per_txn:2
      ~seed:11
  in
  let spec =
    {
      Runner.tables = [| Table.make ~tid:0 ~name:"sanitize" ~rows ~record_bytes:8 |];
      init = Check.initial_value;
    }
  in
  let failures = ref 0 in
  List.iter
    (fun engine ->
      let stats, report =
        Runner.run_sim_sanitized engine ~threads:6 spec (Check.txns w)
      in
      let clean = Analysis.is_clean report in
      Printf.printf "sanitize %-8s %s (%d/%d committed)\n"
        (Runner.name engine)
        (if clean then "PASS" else "FAIL")
        stats.Stats.committed count;
      if not clean then begin
        print_endline (Analysis.to_string report);
        incr failures
      end)
    (Runner.all @ [ Runner.Mvto ]);
  (* BOHM additionally with a parking-width execution pool, with the
     preprocessing stage on (routed dispatch) and off (scan dispatch):
     both exercise the waiter-registration/seal/ready-queue protocol and
     the dangling-waiter audit under the full checker suite (the runs
     above, at 6 threads, cover the retry-list path). These runs use 12
     threads at cc_fraction 1/3 (cc=4/exec=8): parking engages only at 8+
     execution threads. *)
  List.iter
    (fun (label, preprocess) ->
      let bohm =
        { Runner.default_bohm_opts with cc_fraction = 1. /. 3.; preprocess }
      in
      let stats, report =
        Runner.run_sim_sanitized ~bohm Runner.Bohm ~threads:12 spec
          (Check.txns w)
      in
      let clean = Analysis.is_clean report in
      Printf.printf "sanitize %-8s %s (%d/%d committed)\n" label
        (if clean then "PASS" else "FAIL")
        stats.Stats.committed count;
      if not clean then begin
        print_endline (Analysis.to_string report);
        incr failures
      end)
    [ ("Bohm+pre", true); ("Bohm-pre", false) ];
  if !failures > 0 then begin
    Printf.eprintf "sanitize: %d engine(s) produced diagnostics\n" !failures;
    exit 1
  end

(* Tier-1 CI gate: the fig4 configuration at a small scale must commit
   every input transaction. Catches perf work that silently drops, dupes
   or deadlocks transactions; finishes in seconds. *)
let smoke ~scale ~sanitized =
  let count = max 500 (int_of_float (500. *. scale)) in
  let rows = 100_000 in
  let spec =
    {
      Runner.tables = Ycsb.tables ~rows ~record_bytes:8;
      init = Ycsb.initial_value;
    }
  in
  let txns =
    Ycsb.generate ~rows ~theta:0.0 ~count ~seed:41 (Ycsb.rmw_profile 10)
  in
  let failures = ref 0 in
  let check label (stats, report) =
    let clean = match report with None -> true | Some r -> Analysis.is_clean r in
    let ok =
      stats.Stats.committed = count
      && stats.Stats.logic_aborts = 0
      && stats.Stats.cc_aborts = 0
      && clean
    in
    Printf.printf "smoke %-42s %s (%d/%d committed)\n" label
      (if ok then "PASS" else "FAIL")
      stats.Stats.committed count;
    (match report with
    | Some r when not (Analysis.is_clean r) -> print_endline (Analysis.to_string r)
    | _ -> ());
    if not ok then incr failures
  in
  (* With --sanitize the same configurations run under the full checker
     suite (cc=4/exec=8 expressed as 12 threads at cc_fraction 1/3 — the
     identical split). *)
  let run ~preprocess =
    if sanitized then
      let bohm =
        { Runner.default_bohm_opts with cc_fraction = 1. /. 3.; preprocess }
      in
      let stats, r = Runner.run_sim_sanitized ~bohm Runner.Bohm ~threads:12 spec txns in
      (stats, Some r)
    else (Runner.run_bohm_sim ~cc:4 ~exec:8 ~preprocess spec txns, None)
  in
  let suffix = if sanitized then " sanitized" else "" in
  check ("bohm cc=4 exec=8" ^ suffix) (run ~preprocess:false);
  check ("bohm cc=4 exec=8 preprocess routed" ^ suffix) (run ~preprocess:true);
  (* Two complete per-shard pipelines with a 10% cross-shard mix: routed
     footprint slices, epoch-aligned batches and the per-batch vote round
     must still commit every transaction (sanitized: under the full
     checker suite, cross-shard reads included). *)
  let sharded_txns =
    Ycsb.generate_sharded ~rows ~theta:0.0 ~count ~seed:41 ~shards:2
      ~cross_fraction:0.1 (Ycsb.rmw_profile 10)
  in
  check ("bohm 2 shards x (cc=4 exec=8) preprocess" ^ suffix)
    (if sanitized then
       let bohm =
         { Runner.default_bohm_opts with cc_fraction = 1. /. 3.;
           preprocess = true; shards = 2 }
       in
       let stats, r =
         Runner.run_sim_sanitized ~bohm Runner.Bohm ~threads:12 spec
           sharded_txns
       in
       (stats, Some r)
     else
       ( Runner.run_bohm_sim ~cc:4 ~exec:8 ~shards:2 ~preprocess:true spec
           sharded_txns,
         None ));
  (* Live adaptive repartitioning under a migrating flash crowd: small
     batches so map publications actually fire mid-run, checking that an
     epoch switch never loses, dupes or mis-routes a transaction
     (sanitized: under the full checker suite, so the chain audit also
     re-derives every version's owner through the per-batch maps). *)
  let flash_txns =
    Ycsb.generate_flash_crowd ~rows ~count ~seed:41 ~phases:3 ~hot_keys:256
      ~hot_frac:0.9 (Ycsb.mixed_profile ~rmws:2 ~reads:8)
  in
  check ("bohm cc=4 exec=8 preprocess rebalance flash" ^ suffix)
    (if sanitized then
       let bohm =
         { Runner.default_bohm_opts with cc_fraction = 1. /. 3.;
           batch_size = 100; preprocess = true }
       in
       let stats, r =
         Runner.run_sim_sanitized ~bohm Runner.Bohm ~threads:12 spec
           flash_txns
       in
       (stats, Some r)
     else
       ( Runner.run_bohm_sim ~cc:4 ~exec:8 ~batch:100 ~preprocess:true spec
           flash_txns,
         None ));
  if !failures > 0 then begin
    Printf.eprintf "smoke: %d configuration(s) failed\n" !failures;
    exit 1
  end

let () =
  let quick = ref false in
  let scale = ref 1.0 in
  let json = ref None in
  let sanitized = ref false in
  let selected = ref [] in
  Array.iteri
    (fun i arg ->
      if i > 0 then
        if arg = "--quick" then quick := true
        else if String.length arg > 8 && String.sub arg 0 8 = "--scale=" then
          scale := float_of_string (String.sub arg 8 (String.length arg - 8))
        else if String.length arg > 7 && String.sub arg 0 7 = "--json=" then
          json := Some (String.sub arg 7 (String.length arg - 7))
        else if arg = "--sanitize" then sanitized := true
        else if arg = "--help" || arg = "-h" then usage ()
        else selected := arg :: !selected)
    Sys.argv;
  let selected = List.rev !selected in
  (* Fail on an unwritable JSON path before the runs, not after. *)
  (match !json with
  | Some path -> (
      try close_out (open_out path)
      with Sys_error msg ->
        prerr_endline ("cannot write --json path: " ^ msg);
        exit 2)
  | None -> ());
  let t0 = Unix.gettimeofday () in
  let run_one name =
    if name = "micro" then Micro.run ()
    else if name = "micro-slabs" then Micro.run_version_store ()
    else if name = "micro-sim" then Micro.run_sim_steps ()
    else if name = "smoke" then smoke ~scale:!scale ~sanitized:!sanitized
    else if name = "sanitize" then sanitize ~scale:!scale ~quick:!quick
    else
      match List.assoc_opt name Experiments.experiments with
      | Some f -> List.iter Experiments.print (f ~scale:!scale ~quick:!quick ())
      | None ->
          prerr_endline ("unknown experiment: " ^ name);
          usage ()
  in
  (match selected with
  | [] ->
      Experiments.run_all ~scale:!scale ~quick:!quick ();
      Micro.run ()
  | names -> List.iter run_one names);
  (match !json with
  | Some path ->
      Bohm_harness.Report.json_write ~path;
      Printf.printf "\nWrote JSON results to %s\n" path
  | None -> ());
  Printf.printf "\nTotal bench wall time: %.1fs\n" (Unix.gettimeofday () -. t0)
