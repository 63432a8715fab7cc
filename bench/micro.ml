(* Component micro-benchmarks (Bechamel): per-operation costs of the
   substrate pieces the engines are built from. These run on the real
   runtime — they measure this machine's OCaml code, not the simulated
   multicore. *)

open Bechamel
open Toolkit

module Key = Bohm_txn.Key
module Value = Bohm_txn.Value
module Txn = Bohm_txn.Txn
module Local_writes = Bohm_txn.Local_writes
module Rng = Bohm_util.Rng
module Zipf = Bohm_util.Zipf
module Heap = Bohm_util.Heap
module Real = Bohm_runtime.Real
module Version = Bohm_core.Version.Make (Real)

let zipf_bench =
  let z = Zipf.create ~n:1_000_000 ~theta:0.9 in
  let rng = Rng.create ~seed:1 in
  Test.make ~name:"zipf-sample(theta=0.9)" (Staged.stage (fun () -> Zipf.sample z rng))

let zipf_uniform_bench =
  let z = Zipf.create ~n:1_000_000 ~theta:0.0 in
  let rng = Rng.create ~seed:1 in
  Test.make ~name:"zipf-sample(uniform)" (Staged.stage (fun () -> Zipf.sample z rng))

let key_hash_bench =
  let k = Key.make ~table:2 ~row:123_456 in
  Test.make ~name:"key-hash" (Staged.stage (fun () -> Key.hash k))

let heap_bench =
  let rng = Rng.create ~seed:2 in
  Test.make ~name:"heap-push-pop(x64)"
    (Staged.stage (fun () ->
         let h = Heap.create () in
         for i = 1 to 64 do
           Heap.push h ~priority:(Rng.int rng 1000) i
         done;
         while not (Heap.is_empty h) do
           ignore (Heap.pop h)
         done))

let local_writes_bench =
  let buf = Local_writes.create () in
  let keys = Array.init 10 (fun i -> Key.make ~table:0 ~row:(i * 17)) in
  Test.make ~name:"local-writes(10 keys)"
    (Staged.stage (fun () ->
         Local_writes.clear buf;
         Array.iter (fun k -> Local_writes.set buf k Value.zero) keys;
         Array.iter (fun k -> ignore (Local_writes.find buf k)) keys))

(* Version-chain traversal: the §4.2.3 overhead BOHM's read annotation
   skips. One chain of 64 versions, reader wants the oldest — measured
   over the three stores a chain can be built from: freshly allocated
   heap records (cells scattered by whatever the GC did between
   allocations), heap records drawn from a Condition-3 freelist (the
   recycled store), and slab entries whose begin/prev columns pack eight
   versions per cache line. The slab walk touching 8x fewer lines is the
   effect the [version_slabs] flag exists to buy. *)
let heap_chain_head () =
  let base = Version.initial Value.zero in
  let producer = () in
  let rec extend v ts =
    if ts > 64 then v
    else extend (Version.placeholder ~ts ~producer ~prev:v) (ts + 1)
  in
  extend base 1

let chain_walk_bench =
  let head = heap_chain_head () in
  Test.make ~name:"chain-walk(64 versions)"
    (Staged.stage (fun () -> Version.visible_at head ~ts:0))

let chain_walk_recycled_bench =
  (* Harvest 64 Condition-3 records from a donor chain, then rebuild a
     64-version chain out of them — the freelist store's memory. *)
  let donor = heap_chain_head () in
  let records = Version.truncate_collect donor ~gc_ts:1000 in
  let base = Version.initial Value.zero in
  let head =
    List.fold_left
      (fun (v, ts) r -> (Version.recycle r ~ts ~producer:() ~prev:v, ts + 1))
      (base, 1) records
    |> fst
  in
  Test.make ~name:"chain-walk-recycled(64 versions)"
    (Staged.stage (fun () -> Version.visible_at head ~ts:0))

let chain_walk_slab_bench =
  let al = Version.alloc_make ~owner:0 () in
  let base = Version.initial Value.zero in
  let head =
    let rec extend v ts =
      if ts > 64 then v
      else
        extend
          (Version.slab_placeholder al ~batch:0 ~ts ~producer:() ~prev:v)
          (ts + 1)
    in
    extend base 1
  in
  Test.make ~name:"chain-walk-slab(64 versions)"
    (Staged.stage (fun () -> Version.visible_at head ~ts:0))

let chain_annotated_bench =
  let base = Version.initial Value.zero in
  Test.make ~name:"annotated-read(direct ref)"
    (Staged.stage (fun () -> Version.visible_at base ~ts:0))

let counter_faa_bench =
  let c = Real.Cell.make 0 in
  Test.make ~name:"timestamp-faa(uncontended)"
    (Staged.stage (fun () -> Real.Cell.faa c 1))

let store_lookup_bench =
  let module Store = Bohm_storage.Store.Make (Real) in
  let tables = [| Bohm_storage.Table.make ~tid:0 ~name:"t" ~rows:100_000 ~record_bytes:8 |] in
  let s = Store.create_hash ~tables (fun _ -> 0) in
  let rng = Rng.create ~seed:4 in
  Test.make ~name:"hash-store-lookup(100k rows)"
    (Staged.stage (fun () ->
         Store.get s (Key.make ~table:0 ~row:(Rng.int rng 100_000))))

let spinlock_bench =
  let module S = Bohm_runtime.Sync.Make (Real) in
  let lock = S.Spinlock.create () in
  Test.make ~name:"spinlock-acquire-release"
    (Staged.stage (fun () ->
         S.Spinlock.acquire lock;
         S.Spinlock.release lock))

let txn_normalize_bench =
  let rng = Rng.create ~seed:3 in
  let keys = List.init 10 (fun _ -> Key.make ~table:0 ~row:(Rng.int rng 100_000)) in
  Test.make ~name:"txn-make(10-key sets)"
    (Staged.stage (fun () ->
         Txn.make ~id:0 ~read_set:keys ~write_set:keys (fun _ -> Txn.Commit)))

let tests =
  Test.make_grouped ~name:"micro" ~fmt:"%s/%s"
    [
      zipf_bench;
      zipf_uniform_bench;
      key_hash_bench;
      heap_bench;
      local_writes_bench;
      chain_walk_bench;
      chain_walk_recycled_bench;
      chain_walk_slab_bench;
      chain_annotated_bench;
      counter_faa_bench;
      store_lookup_bench;
      spinlock_bench;
      txn_normalize_bench;
    ]

let run_tests ~title ~quota tests =
  Bohm_harness.Report.header ~title;
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with
        | Some (est :: _) -> est
        | _ -> Float.nan
      in
      rows := (name, ns) :: !rows)
    results;
  let rows = List.sort compare !rows in
  List.iter
    (fun (name, ns) -> Printf.printf "  %-36s %10.1f ns/op\n" name ns)
    rows;
  print_newline ()

(* The same three 64-version walks on the simulator: what the cost model
   — the thing every throughput figure in this repo is computed from —
   charges for each store's chain hop. Host nanoseconds and charged
   cycles disagree on the slab win by design: on the host all three
   chains come out of a fresh minor heap and stream contiguous lines, so
   the slab's extra index decode only adds work; the model charges
   scattered heap records a DRAM/coherence read per hop and the packed
   SoA slab columns a cache hit per line of eight. Printing both keeps
   the microbench honest about which claim each number supports. *)
let charged_chain_walks () =
  let module Sim = Bohm_runtime.Sim in
  let module V = Bohm_core.Version.Make (Sim) in
  Sim.run (fun () ->
      let walk name head =
        let t0 = Sim.now_ns () in
        ignore (V.visible_at head ~ts:0);
        (name, Sim.now_ns () - t0)
      in
      let heap_head =
        let rec extend v ts =
          if ts > 64 then v
          else extend (V.placeholder ~ts ~producer:() ~prev:v) (ts + 1)
        in
        extend (V.initial Value.zero) 1
      in
      let recycled_head =
        let donor =
          let rec extend v ts =
            if ts > 64 then v
            else extend (V.placeholder ~ts ~producer:() ~prev:v) (ts + 1)
          in
          extend (V.initial Value.zero) 1
        in
        let records = V.truncate_collect donor ~gc_ts:1000 in
        List.fold_left
          (fun (v, ts) r -> (V.recycle r ~ts ~producer:() ~prev:v, ts + 1))
          (V.initial Value.zero, 1)
          records
        |> fst
      in
      let slab_head =
        let al = V.alloc_make ~owner:0 () in
        let rec extend v ts =
          if ts > 64 then v
          else
            extend (V.slab_placeholder al ~batch:0 ~ts ~producer:() ~prev:v) (ts + 1)
        in
        extend (V.initial Value.zero) 1
      in
      [
        walk "chain-walk(64 versions)" heap_head;
        walk "chain-walk-recycled(64 versions)" recycled_head;
        walk "chain-walk-slab(64 versions)" slab_head;
      ])

let print_charged_chain_walks () =
  print_endline
    "  charged cycles for the same walks (simulator cost model):";
  List.iter
    (fun (name, cycles) ->
      Printf.printf "  %-36s %10d cycles/walk\n" name cycles)
    (charged_chain_walks ());
  print_endline
    "  note: host-ns and charged cycles disagree on the slab walk by";
  print_endline
    "  design - on the host all three chains stream a freshly-allocated";
  print_endline
    "  contiguous heap, while the cost model charges scattered heap";
  print_endline
    "  records a memory read per hop and the packed slab columns a cache";
  print_endline "  hit per line of eight. The throughput figures use the model.";
  print_newline ()

(* Host cost of one simulator step. Sixteen threads repeat one operation
   in lockstep, so nearly every operation hands the CPU to the scheduler:
   [relax] resumes a fiber for every relax, [relax_n 256] lets the
   scheduler run the relaxes after the first yield itself, and [Cell.get]
   on a shared line yields from inside a charged access. Host ns over
   [Sim.steps], best of three runs. *)
let sim_step_costs () =
  let module Sim = Bohm_runtime.Sim in
  let threads = 16 and ops = 32_768 in
  let measure name op =
    let once () =
      let t0 = Unix.gettimeofday () in
      Sim.run (fun () -> List.iter Sim.join (List.init threads (fun _ -> Sim.spawn op)));
      (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int (Sim.steps ())
    in
    (name, List.fold_left (fun m _ -> Float.min m (once ())) infinity [ 1; 2; 3 ])
  in
  let line = Sim.Cell.make 0 in
  [
    measure "relax" (fun () ->
        for _ = 1 to ops do
          Sim.relax ()
        done);
    measure "relax_n(256)" (fun () ->
        for _ = 1 to ops / 256 do
          Sim.relax_n 256
        done);
    measure "cell-get(shared line)" (fun () ->
        for _ = 1 to ops do
          ignore (Sim.Cell.get line)
        done);
  ]

let run_sim_steps () =
  Bohm_harness.Report.header
    ~title:"Simulator scheduler (16 threads, host ns per Sim step)";
  List.iter
    (fun (name, ns) -> Printf.printf "  %-36s %10.1f ns/step\n" name ns)
    (sim_step_costs ());
  print_newline ()

let run () =
  run_tests ~title:"Component micro-benchmarks (real runtime, ns/op)"
    ~quota:0.5 tests;
  print_charged_chain_walks ();
  run_sim_steps ()

(* Fast tier-1 variant: just the version-store walks, short quota — a
   regression canary for the slab layout that rides along with
   `dune build @bench-smoke`. *)
let run_version_store () =
  run_tests ~title:"Version-store micro-benchmarks (real runtime, ns/op)"
    ~quota:0.1
    (Test.make_grouped ~name:"micro" ~fmt:"%s/%s"
       [ chain_walk_bench; chain_walk_recycled_bench; chain_walk_slab_bench ]);
  print_charged_chain_walks ()
