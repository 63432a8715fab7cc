(* Tests for the multi-shard BOHM engine: the key -> shard map, complete
   per-shard pipelines over one shared input log, deterministic
   batch-aligned cross-shard commit (one vote round, no coordinator), the
   merged cross-shard serialization check with its lost-vote mutant, the
   static shard profile of a batch, and pinned numbers for one and two
   shards. *)

module Key = Bohm_txn.Key
module Value = Bohm_txn.Value
module Stats = Bohm_txn.Stats
module Table = Bohm_storage.Table
module Histogram = Bohm_util.Histogram
module Sim = Bohm_runtime.Sim
module Real = Bohm_runtime.Real
module Config = Bohm_core.Config
module Runner = Bohm_harness.Runner
module Check = Bohm_harness.Serialization_check
module Ycsb = Bohm_workload.Ycsb
module Conflict_graph = Bohm_analysis_static.Conflict_graph
module Buf = Bohm_obs.Buf
module Recorder = Bohm_obs.Recorder

module Sim_engine = Bohm_core.Engine.Make (Sim)
module Real_engine = Bohm_core.Engine.Make (Real)

let key row = Key.make ~table:0 ~row

(* --- the key -> shard map --- *)

let test_shard_of () =
  (* Range and stability over a spread of shard counts. *)
  List.iter
    (fun shards ->
      for row = 0 to 500 do
        let s = Key.shard_of ~shards (key row) in
        Alcotest.(check bool)
          (Printf.sprintf "shard in range (shards=%d row=%d)" shards row)
          true
          (s >= 0 && s < shards);
        Alcotest.(check int) "stable" s (Key.shard_of ~shards (key row))
      done)
    [ 1; 2; 3; 4; 7 ];
  for row = 0 to 100 do
    Alcotest.(check int) "one shard means shard 0" 0
      (Key.shard_of ~shards:1 (key row))
  done;
  (* Every shard of 4 is populated over a modest key range. *)
  let hit = Array.make 4 false in
  for row = 0 to 999 do
    hit.(Key.shard_of ~shards:4 (key row)) <- true
  done;
  Array.iteri
    (fun s h -> Alcotest.(check bool) (Printf.sprintf "shard %d hit" s) true h)
    hit;
  (* Decorrelated from the CC partition hash: keys of one partition rank
     must spread over several shards (the shard map remixes [Key.hash],
     it does not re-divide it). *)
  let shards_seen = Hashtbl.create 8 in
  for row = 0 to 999 do
    if Key.hash (key row) mod 4 = 0 then
      Hashtbl.replace shards_seen (Key.shard_of ~shards:4 (key row)) ()
  done;
  Alcotest.(check bool) "partition 0 spans shards" true
    (Hashtbl.length shards_seen > 1);
  Alcotest.check_raises "zero shards rejected"
    (Invalid_argument "Key.shard_of: shards must be positive") (fun () ->
      ignore (Key.shard_of ~shards:0 (key 1)))

let test_config_shards () =
  Alcotest.(check int) "default" 1 (Config.make ()).Config.shards;
  Alcotest.(check int) "explicit" 4
    (Config.make ~shards:4 ()).Config.shards;
  (match Config.make ~shards:0 () with
  | _ -> Alcotest.fail "shards=0 accepted"
  | exception Invalid_argument _ -> ());
  match Config.make ~shards:63 () with
  | _ -> Alcotest.fail "shards=63 accepted"
  | exception Invalid_argument _ -> ()

(* --- sharded pipeline correctness --- *)

let ycsb_tables rows = Ycsb.tables ~rows ~record_bytes:8

(* A sharded run must commit everything and leave the database in the
   same final state as the single-shard engine fed the same input log:
   the serialization order is the input order in both. *)
let test_sharded_matches_single_shard () =
  let rows = 512 and count = 600 in
  let txns =
    Ycsb.generate_sharded ~rows ~theta:0.0 ~count ~seed:5 ~shards:2
      ~cross_fraction:0.1 (Ycsb.rmw_profile 4)
  in
  let run shards =
    let stats, db =
      Sim.run (fun () ->
          let db =
            Sim_engine.create
              (Config.make ~cc_threads:2 ~exec_threads:3 ~batch_size:64
                 ~shards ~preprocess:true ())
              ~tables:(ycsb_tables rows) Ycsb.initial_value
          in
          (Sim_engine.run db txns, db))
    in
    let values =
      Array.init rows (fun row ->
          Value.to_int (Sim_engine.read_latest db (key row)))
    in
    (stats, values)
  in
  let stats1, values1 = run 1 in
  let stats2, values2 = run 2 in
  Alcotest.(check int) "single-shard commits all" count stats1.Stats.committed;
  Alcotest.(check int) "sharded commits all" count stats2.Stats.committed;
  Alcotest.(check (array int)) "final states agree" values1 values2;
  let extra name stats =
    Option.value ~default:(-1.) (List.assoc_opt name stats.Stats.extra)
  in
  Alcotest.(check bool) "cross-shard txns reported" true
    (extra "cross_shard_txns" stats2 > 0.);
  Alcotest.(check bool) "no vote aborts" true
    (extra "vote_aborts" stats2 = 0.);
  Alcotest.(check bool) "votes cover every (shard, batch)" true
    (extra "shard_votes" stats2 = 2. *. Float.of_int ((count + 63) / 64))

(* Cross-shard serializability on the simulator: multi-seed, 2 and 4
   shards, full vote-log audit plus merged-DSG acyclicity. *)
let test_sharded_serialization_sim () =
  List.iter
    (fun (seed, shards) ->
      let w =
        Check.make_workload ~rows:64 ~txns:240 ~rmws_per_txn:2
          ~reads_per_txn:2 ~seed
      in
      let tables = [| Table.make ~tid:0 ~name:"ser" ~rows:64 ~record_bytes:8 |] in
      let db =
        Sim.run (fun () ->
            let db =
              Sim_engine.create
                (Config.make ~cc_threads:2 ~exec_threads:3 ~batch_size:32
                   ~shards ~preprocess:true ())
                ~tables Check.initial_value
            in
            ignore (Sim_engine.run db (Check.txns w));
            db)
      in
      let vote_log = Sim_engine.vote_log db in
      Alcotest.(check int)
        (Printf.sprintf "vote log rows (seed=%d shards=%d)" seed shards)
        (shards * ((240 + 31) / 32))
        (List.length vote_log);
      let verdict =
        Check.check_sharded w ~shards
          ~final_read:(Sim_engine.read_latest db)
          ~vote_log
      in
      Alcotest.(check string)
        (Printf.sprintf "serializable (seed=%d shards=%d)" seed shards)
        "serializable"
        (Check.verdict_to_string verdict))
    [ (7, 2); (21, 2); (33, 2); (7, 4); (21, 4); (33, 4) ]

(* The same on the real (Domains) runtime. *)
let test_sharded_serialization_real () =
  List.iter
    (fun (seed, shards) ->
      let w =
        Check.make_workload ~rows:48 ~txns:200 ~rmws_per_txn:2
          ~reads_per_txn:2 ~seed
      in
      let tables = [| Table.make ~tid:0 ~name:"ser" ~rows:48 ~record_bytes:8 |] in
      let db =
        Real_engine.create
          (Config.make ~cc_threads:2 ~exec_threads:2 ~batch_size:32 ~shards
             ~preprocess:true ())
          ~tables Check.initial_value
      in
      ignore (Real_engine.run db (Check.txns w));
      let verdict =
        Check.check_sharded w ~shards
          ~final_read:(Real_engine.read_latest db)
          ~vote_log:(Real_engine.vote_log db)
      in
      Alcotest.(check string)
        (Printf.sprintf "serializable (real, seed=%d shards=%d)" seed shards)
        "serializable"
        (Check.verdict_to_string verdict))
    [ (11, 2); (29, 4) ]

(* Migrating hot-set (flash-crowd) workload with adaptive repartitioning
   live in every per-shard pipeline: map publications inside one shard
   must never leak into another's routing or the vote round, and the runs
   must stay provably serializable at 1, 2 and 4 shards. *)
let flash_workload ~seed =
  Check.make_flash_workload ~phases:3 ~hot_keys:12 ~hot_frac:0.9 ~rows:64
    ~txns:240 ~rmws_per_txn:2 ~reads_per_txn:2 ~seed

let test_flash_serialization_sim () =
  List.iter
    (fun (seed, shards) ->
      let w = flash_workload ~seed in
      let tables = [| Table.make ~tid:0 ~name:"ser" ~rows:64 ~record_bytes:8 |] in
      let db =
        Sim.run (fun () ->
            let db =
              Sim_engine.create
                (Config.make ~cc_threads:2 ~exec_threads:3 ~batch_size:32
                   ~shards ~preprocess:true ())
                ~tables Check.initial_value
            in
            ignore (Sim_engine.run db (Check.txns w));
            db)
      in
      let verdict =
        if shards = 1 then Check.check w ~final_read:(Sim_engine.read_latest db)
        else
          Check.check_sharded w ~shards
            ~final_read:(Sim_engine.read_latest db)
            ~vote_log:(Sim_engine.vote_log db)
      in
      Alcotest.(check string)
        (Printf.sprintf "flash serializable (seed=%d shards=%d)" seed shards)
        "serializable"
        (Check.verdict_to_string verdict))
    [ (43, 1); (43, 2); (47, 2); (43, 4) ]

let test_flash_serialization_real () =
  List.iter
    (fun (seed, shards) ->
      let w = flash_workload ~seed in
      let tables = [| Table.make ~tid:0 ~name:"ser" ~rows:64 ~record_bytes:8 |] in
      let db =
        Real_engine.create
          (Config.make ~cc_threads:2 ~exec_threads:2 ~batch_size:32 ~shards
             ~preprocess:true ())
          ~tables Check.initial_value
      in
      ignore (Real_engine.run db (Check.txns w));
      let verdict =
        if shards = 1 then
          Check.check w ~final_read:(Real_engine.read_latest db)
        else
          Check.check_sharded w ~shards
            ~final_read:(Real_engine.read_latest db)
            ~vote_log:(Real_engine.vote_log db)
      in
      Alcotest.(check string)
        (Printf.sprintf "flash serializable (real, seed=%d shards=%d)" seed
           shards)
        "serializable"
        (Check.verdict_to_string verdict))
    [ (51, 1); (51, 2); (51, 4) ]

(* The chain audit must stay clean across every shard's store. *)
let test_sharded_chain_audit () =
  let rows = 256 in
  let txns =
    Ycsb.generate_sharded ~rows ~theta:0.0 ~count:400 ~seed:9 ~shards:4
      ~cross_fraction:0.2 (Ycsb.rmw_profile 4)
  in
  let clean =
    Sim.run (fun () ->
        let db =
          Sim_engine.create
            (Config.make ~cc_threads:2 ~exec_threads:2 ~batch_size:64
               ~shards:4 ~preprocess:true ())
            ~tables:(ycsb_tables rows) Ycsb.initial_value
        in
        ignore (Sim_engine.run db txns);
        let report = Bohm_analysis.Report.create () in
        Sim_engine.check_chains db report;
        Bohm_analysis.Report.is_clean report)
  in
  Alcotest.(check bool) "chains clean on all shards" true clean

(* --- lost-vote fault injection --- *)

(* A shard whose abort vote is lost in transit commits a batch it voted
   to abort. The per-shard graphs still merge acyclic — execution is
   deterministic — so only the vote-log audit can catch it, and it
   must. *)
let test_lost_vote_caught () =
  let w =
    Check.make_workload ~rows:64 ~txns:200 ~rmws_per_txn:2 ~reads_per_txn:2
      ~seed:17
  in
  let tables = [| Table.make ~tid:0 ~name:"ser" ~rows:64 ~record_bytes:8 |] in
  let db =
    Sim.run (fun () ->
        let db =
          Sim_engine.create
            (Config.make ~cc_threads:2 ~exec_threads:3 ~batch_size:32
               ~shards:2 ~preprocess:true ())
            ~tables Check.initial_value
        in
        Sim_engine.inject_lost_vote db ~shard:1 ~batch:0;
        ignore (Sim_engine.run db (Check.txns w));
        db)
  in
  let vote_log = Sim_engine.vote_log db in
  (* The injected row records a local abort under a merged commit. *)
  Alcotest.(check bool) "injected row present" true
    (List.exists
       (fun (s, b, local, merged) -> s = 1 && b = 0 && (not local) && merged)
       vote_log);
  (* The flat checker sees a serializable history — determinism means the
     data itself is fine; only the vote audit can tell the batch should
     not have committed on shard 1. *)
  Alcotest.(check string) "flat check is blind to it" "serializable"
    (Check.verdict_to_string
       (Check.check w ~final_read:(Sim_engine.read_latest db)));
  match
    Check.check_sharded w ~shards:2
      ~final_read:(Sim_engine.read_latest db)
      ~vote_log
  with
  | Check.Corrupt msg ->
      let has sub =
        let n = String.length msg and m = String.length sub in
        let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "message names the lost vote (%s)" msg)
        true (has "voted to abort")
  | v ->
      Alcotest.failf "lost vote not caught: %s" (Check.verdict_to_string v)

let test_inject_lost_vote_validation () =
  Sim.run (fun () ->
      let db =
        Sim_engine.create
          (Config.make ~cc_threads:1 ~exec_threads:1 ~shards:2 ())
          ~tables:[| Table.make ~tid:0 ~name:"t" ~rows:8 ~record_bytes:8 |]
          (fun _ -> Value.zero)
      in
      (match Sim_engine.inject_lost_vote db ~shard:2 ~batch:0 with
      | () -> Alcotest.fail "out-of-range shard accepted"
      | exception Invalid_argument _ -> ());
      match Sim_engine.inject_lost_vote db ~shard:0 ~batch:(-1) with
      | () -> Alcotest.fail "negative batch accepted"
      | exception Invalid_argument _ -> ());
  (* A one-shard engine has no vote round to lose a vote from: the
     injection is refused rather than silently ignored. *)
  Sim.run (fun () ->
      let db =
        Sim_engine.create
          (Config.make ~cc_threads:1 ~exec_threads:1 ())
          ~tables:[| Table.make ~tid:0 ~name:"t" ~rows:8 ~record_bytes:8 |]
          (fun _ -> Value.zero)
      in
      match Sim_engine.inject_lost_vote db ~shard:0 ~batch:0 with
      | () -> Alcotest.fail "one-shard injection accepted"
      | exception Invalid_argument _ -> ())

(* --- static shard profile --- *)

(* Hand-built batch over one shard-0 key [ka] and one shard-1 key [kb]:
   t1 RMWs ka, t2 RMWs kb, t3 reads ka and RMWs kb (homed on shard 0 by
   its first read). Exactly one cross-shard transaction (t3 spans both),
   and of the two edges — wr t1->t3 on ka (homes 0,0) and ww t2->t3 on
   kb (homes 1,0) — exactly the ww crosses home shards. *)
let test_conflict_graph_shard_stats () =
  let find_key_on shard =
    let rec go row =
      if row > 10_000 then Alcotest.fail "no key found for shard"
      else if Key.shard_of ~shards:2 (key row) = shard then key row
      else go (row + 1)
    in
    go 0
  in
  let ka = find_key_on 0 and kb = find_key_on 1 in
  let g =
    Conflict_graph.of_footprints
      [|
        { Conflict_graph.id = 1; reads = [| ka |]; writes = [| ka |] };
        { Conflict_graph.id = 2; reads = [| kb |]; writes = [| kb |] };
        { Conflict_graph.id = 3; reads = [| ka; kb |]; writes = [| kb |] };
      |]
  in
  let s = Conflict_graph.shard_stats g ~shards:2 in
  Alcotest.(check (array int))
    "shard load counts write-set entries" [| 1; 2 |] s.Conflict_graph.shard_load;
  Alcotest.(check int) "one cross-shard txn" 1 s.Conflict_graph.cross_txns;
  Alcotest.(check (float 0.001)) "vote fan-out" 2.0 s.Conflict_graph.vote_fanout;
  Alcotest.(check int) "one cross-home edge" 1 s.Conflict_graph.cross_edges;
  let summary = Conflict_graph.shard_summary g ~shards:2 in
  Alcotest.(check bool) "summary mentions fan-out" true
    (String.length summary > 0);
  match Conflict_graph.shard_stats g ~shards:0 with
  | _ -> Alcotest.fail "shards=0 accepted"
  | exception Invalid_argument _ -> ()

(* --- observability --- *)

(* Sharded runs name their tracks s<shard>/<thread> and record one
   shard_vote latency sample per (shard, batch); and the observed run is
   schedule-identical to the unobserved one. *)
let test_sharded_obs () =
  let rows = 256 and count = 400 in
  let txns =
    Ycsb.generate_sharded ~rows ~theta:0.0 ~count ~seed:3 ~shards:2
      ~cross_fraction:0.1 (Ycsb.rmw_profile 4)
  in
  let spec =
    { Runner.tables = ycsb_tables rows; init = Ycsb.initial_value }
  in
  let bohm =
    {
      Runner.default_bohm_opts with
      Runner.batch_size = 64;
      preprocess = true;
      shards = 2;
      cc_fraction = 0.5;
    }
  in
  let plain = Runner.run_sim ~bohm Runner.Bohm ~threads:4 spec txns in
  let observed, recorder = Runner.run_sim_obs ~bohm Runner.Bohm ~threads:4 spec txns in
  Alcotest.(check int) "all committed" count observed.Stats.committed;
  (* Trace neutrality extends to the sharded driver. *)
  Alcotest.(check (float 0.0)) "same virtual time" plain.Stats.elapsed
    observed.Stats.elapsed;
  Alcotest.(check bool) "same extras" true
    (plain.Stats.extra = observed.Stats.extra);
  let names = List.map Buf.name (Recorder.tracks recorder) in
  List.iter
    (fun expected ->
      Alcotest.(check bool)
        (Printf.sprintf "track %s present" expected)
        true (List.mem expected names))
    [ "driver"; "s0/cc-0"; "s1/cc-0"; "s0/exec-0"; "s1/exec-1"; "s0/pre-0" ];
  let batches = (count + 63) / 64 in
  match Stats.latency observed "shard_vote" with
  | Some h ->
      Alcotest.(check int) "one vote sample per (shard, batch)" (2 * batches)
        (Histogram.count h)
  | None -> Alcotest.fail "shard_vote phase missing"

(* The Chrome export of a sharded run with adaptive repartitioning on:
   every worker track carries its s<shard>/ prefix, every track's B/E
   events balance, the exported document validates (counter tracks
   included), and each shard contributes exactly one shard_vote span per
   batch. *)
let test_sharded_chrome_export () =
  let rows = 256 and count = 400 and shards = 2 and batch = 64 in
  let txns =
    Ycsb.generate_sharded ~rows ~theta:0.0 ~count ~seed:7 ~shards
      ~cross_fraction:0.1 (Ycsb.rmw_profile 4)
  in
  let spec = { Runner.tables = ycsb_tables rows; init = Ycsb.initial_value } in
  let bohm =
    {
      Runner.default_bohm_opts with
      Runner.batch_size = batch;
      preprocess = true;
      cc_rebalance = true;
      shards;
      cc_fraction = 0.5;
    }
  in
  let _stats, recorder =
    Runner.run_sim_obs ~bohm Runner.Bohm ~threads:4 spec txns
  in
  (* Track-prefix integrity: everything except the driver lives under
     its shard's namespace. *)
  List.iter
    (fun buf ->
      let name = Bohm_obs.Buf.name buf in
      let prefixed =
        name = "driver"
        || List.exists
             (fun s ->
               let p = Printf.sprintf "s%d/" s in
               String.length name > String.length p
               && String.sub name 0 (String.length p) = p)
             (List.init shards Fun.id)
      in
      Alcotest.(check bool)
        (Printf.sprintf "track %s shard-prefixed" name)
        true prefixed)
    (Recorder.tracks recorder);
  (* Balanced begin/end per track, and the vote spans: one per (shard,
     batch), each inside its own shard's namespace. *)
  let batches = (count + batch - 1) / batch in
  let votes = ref 0 in
  List.iter
    (fun buf ->
      let name = Bohm_obs.Buf.name buf in
      let begins = ref 0 and ends = ref 0 in
      List.iter
        (fun (ev : Bohm_obs.Buf.event) ->
          match ev with
          | Bohm_obs.Buf.Begin { name = phase; _ } ->
              incr begins;
              if phase = "shard_vote" then begin
                incr votes;
                Alcotest.(check bool)
                  (Printf.sprintf "vote span on shard track %s" name)
                  true
                  (String.length name > 1 && name.[0] = 's')
              end
          | Bohm_obs.Buf.End _ -> incr ends
          | Bohm_obs.Buf.Instant _ -> ())
        (Bohm_obs.Buf.events buf);
      Alcotest.(check int)
        (Printf.sprintf "balanced B/E on %s" name)
        !begins !ends)
    (Recorder.tracks recorder);
  Alcotest.(check int) "one vote span per (shard, batch)" (shards * batches)
    !votes;
  (* The full export — counter tracks riding along — still validates. *)
  let records = Bohm_obs.Timeline.of_recorder recorder in
  let doc =
    Bohm_obs.Chrome.to_string
      ~counters:(Bohm_obs.Timeline.counters records)
      recorder
  in
  match Bohm_obs.Chrome.validate doc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "sharded trace invalid: %s" e

(* --- pinned shard counts --- *)

(* One small run per shard count, every modeled number pinned: virtual
   time (exact, as a hex float), commits, the full extras list and, at two
   shards, the vote log. shards=1 runs an 8-wide exec pool (the parking
   path), shards=2 a 3-wide one (the retry-list path plus the vote round),
   so a charge that moves on either path of the driver shows up here. *)
let pinned_rows = 512

let pinned_run ?shards ~exec txns =
  Sim.run (fun () ->
      let db =
        Sim_engine.create
          (Config.make ~cc_threads:2 ~exec_threads:exec ~batch_size:50 ?shards
             ~preprocess:true ())
          ~tables:(ycsb_tables pinned_rows) Ycsb.initial_value
      in
      let stats = Sim_engine.run db txns in
      (stats, Sim_engine.vote_log db))

let check_pinned label (stats, votes) ~elapsed ~extra ~vote_log =
  Alcotest.(check (float 0.0)) (label ^ " virtual time") elapsed
    stats.Stats.elapsed;
  Alcotest.(check int) (label ^ " commits") 400 stats.Stats.committed;
  Alcotest.(check (list (pair string (float 0.0))))
    (label ^ " extras") extra stats.Stats.extra;
  Alcotest.(check (list (pair (pair int int) (pair bool bool))))
    (label ^ " vote log") vote_log
    (List.map (fun (s, b, local, merged) -> ((s, b), (local, merged))) votes)


(* shards=1 is the default and carries none of the shard layer: the run
   with no [~shards] and the explicit shards=1 run both hit the pinned
   numbers, with no cross-shard counter among the extras and no vote. *)
let test_single_shard_untouched () =
  let txns =
    Ycsb.generate ~rows:pinned_rows ~theta:0.8 ~count:400 ~seed:41
      (Ycsb.rmw_profile 4)
  in
  List.iter
    (fun (label, shards) ->
      check_pinned label
        (pinned_run ?shards ~exec:8 txns)
        ~elapsed:0x1.80b60419a6558p-13
        ~extra:
          [
            ("cc_batch0_start_us", 0x1.6c978d4fdf3b6p+3);
            ("cc_imbalance_max", 0x1.23d70a3d70a3dp+0);
            ("cc_imbalance_mean", 0x1.0cccccccccccdp+0);
            ("cc_occ_p0", 0x1.8p+10);
            ("cc_occ_p1", 0x1.ap+10);
            ("dep_blocks", 0x1.e3p+8);
            ("exec_retry_scans", 0x1.b8p+5);
            ("gc_collected", 0x1.0cp+6);
            ("pre_complete_us", 0x1.14f8d4fdf3b64p+5);
            ("rebalances", 0x0p+0);
            ("segs_moved", 0x0p+0);
            ("slabs_opened", 0x1p+4);
            ("slabs_retired", 0x0p+0);
            ("steals", 0x1.08p+7);
            ("wakeups", 0x1.ap+5);
          ]
        ~vote_log:[])
    [ ("default shards", None); ("shards=1", Some 1) ]

let test_two_shards_pinned () =
  let rows = pinned_rows in
  check_pinned "shards=2"
    (pinned_run ~shards:2 ~exec:3
       (Ycsb.generate_sharded ~rows ~theta:0.8 ~count:400 ~seed:41 ~shards:2
          ~cross_fraction:0.1 (Ycsb.rmw_profile 4)))
    ~elapsed:0x1.22b9e0ae4d7d3p-13
    ~extra:
      [
        ("cc_batch0_start_us", 0x1.6333333333333p+3);
        ("cc_imbalance_max", 0x1.39f656f1826a4p+0);
        ("cc_imbalance_mean", 0x1.15fb6daab3e2ep+0);
        ("cc_occ_p0", 0x1.768p+10);
        ("cc_occ_p1", 0x1.a98p+10);
        ("cross_shard_txns", 0x1.bp+5);
        ("dep_blocks", 0x1.68p+8);
        ("exec_retry_scans", 0x1.9bp+8);
        ("gc_collected", 0x1.08p+5);
        ("pre_complete_us", 0x1.8cccccccccccdp+4);
        ("rebalances", 0x0p+0);
        ("segs_moved", 0x0p+0);
        ("shard_votes", 0x1p+4);
        ("slabs_opened", 0x1p+5);
        ("slabs_retired", 0x0p+0);
        ("steals", 0x1.14p+7);
        ("vote_aborts", 0x0p+0);
        ("wakeups", 0x0p+0);
      ]
    ~vote_log:
      (List.concat_map
         (fun s -> List.init 8 (fun b -> ((s, b), (true, true))))
         [ 0; 1 ])

(* --- the vote board primitive --- *)

let test_votes_board () =
  let module S = Bohm_runtime.Sync.Make (Sim) in
  Sim.run (fun () ->
      let v = S.Votes.create ~parties:2 ~rounds:3 in
      S.Votes.publish v ~party:0 ~round:0 ~abort:false;
      S.Votes.publish v ~party:1 ~round:0 ~abort:true;
      Alcotest.(check bool) "party 0 ready" false
        (S.Votes.await v ~party:0 ~round:0);
      Alcotest.(check bool) "party 1 abort" true
        (S.Votes.await v ~party:1 ~round:0);
      S.Votes.publish v ~party:0 ~round:1 ~abort:true;
      Alcotest.(check bool) "round 1 readable" true
        (S.Votes.await v ~party:0 ~round:1);
      (* Earlier rounds stay readable after later publishes. *)
      Alcotest.(check bool) "round 0 still readable" false
        (S.Votes.await v ~party:0 ~round:0));
  let module SR = Bohm_runtime.Sync.Make (Real) in
  (match SR.Votes.create ~parties:0 ~rounds:1 with
  | _ -> Alcotest.fail "zero parties accepted"
  | exception Invalid_argument _ -> ());
  match SR.Votes.create ~parties:1 ~rounds:(-1) with
  | _ -> Alcotest.fail "negative rounds accepted"
  | exception Invalid_argument _ -> ()

let () =
  Alcotest.run "bohm_shard"
    [
      ( "shard-map",
        [
          Alcotest.test_case "shard_of" `Quick test_shard_of;
          Alcotest.test_case "config shards" `Quick test_config_shards;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "matches single shard" `Quick
            test_sharded_matches_single_shard;
          Alcotest.test_case "chain audit" `Quick test_sharded_chain_audit;
          Alcotest.test_case "single shard untouched" `Quick
            test_single_shard_untouched;
          Alcotest.test_case "two shards pinned" `Quick
            test_two_shards_pinned;
        ] );
      ( "serialization",
        [
          Alcotest.test_case "sim 2/4 shards multi-seed" `Quick
            test_sharded_serialization_sim;
          Alcotest.test_case "flash sim 1/2/4 shards" `Quick
            test_flash_serialization_sim;
          Alcotest.test_case "flash real 1/2/4 shards" `Quick
            test_flash_serialization_real;
          Alcotest.test_case "real 2/4 shards" `Quick
            test_sharded_serialization_real;
          Alcotest.test_case "lost vote caught" `Quick test_lost_vote_caught;
          Alcotest.test_case "inject validation" `Quick
            test_inject_lost_vote_validation;
        ] );
      ( "static",
        [
          Alcotest.test_case "conflict-graph shard stats" `Quick
            test_conflict_graph_shard_stats;
        ] );
      ( "obs",
        [
          Alcotest.test_case "sharded tracks + vote phase" `Quick
            test_sharded_obs;
          Alcotest.test_case "sharded chrome export" `Quick
            test_sharded_chrome_export;
        ] );
      ( "sync",
        [ Alcotest.test_case "votes board" `Quick test_votes_board ] );
    ]
