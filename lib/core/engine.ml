module Key = Bohm_txn.Key
module Value = Bohm_txn.Value
module Txn = Bohm_txn.Txn
module Stats = Bohm_txn.Stats
module Local_writes = Bohm_txn.Local_writes

(* Work charges (cycles) for computation the cell/copy model does not cover:
   per-transaction write-set scanning in each CC thread (the serial fraction
   discussed under Amdahl's law in §3.2.2), version allocation, dispatch and
   read resolution in the execution layer. The batch-routed dispatch path
   and the slab store have their own constants in [Bohm_runtime.Costs]
   (cc_routed_dispatch, cc_route_append, cc_route_merge, cc_insert_slab)
   so benches can vary them. *)
let cc_scan_base = 30
let cc_scan_per_key = 4
let preprocess_per_key = 6
let exec_dispatch_work = 150
let read_resolve_work = 20

(* Transaction states (§3.3.1). *)
let st_unprocessed = 0
let st_executing = 1
let st_complete = 2

module Make (R : Bohm_runtime.Runtime_intf.S) = struct
  module Store = Bohm_storage.Store.Make (R)
  module V = Version.Make (R)
  module Sync = Bohm_runtime.Sync.Make (R)
  module Obs = Bohm_obs

  type wrapped = {
    txn : Txn.t;
    ts : int;
    (* Index of this transaction in the run's input array — the payload a
       fill-triggered wakeup carries, so the woken thread can find the
       wrapper again without a search. *)
    seq : int;
    state : int R.Cell.t;
    (* Bitmask over this transaction's write set: bit [j mod 62] is set
       when a waiter registered on the version of write-set entry [j]. A
       registrant ORs its bit in before CASing its record onto the
       version's list; the filler reads the mask once after its data
       stores and probes only the marked versions' lists — so a fill that
       blocked nobody pays one read, not one probe per written version,
       and a fill that blocked one reader probes (modulo the rare mod-62
       alias) one list. Bits are never cleared: the mask is scoped to one
       wrapper's single successful install. *)
    waited : int R.Cell.t;
    (* Parallel to txn.read_set: the version to read, stamped by CC
       threads when read annotation is on. *)
    read_refs : wrapped V.t option R.Cell.t array;
    (* Parallel to txn.write_set: the placeholder versions inserted by CC
       threads. *)
    write_refs : wrapped V.t option R.Cell.t array;
    (* Probe-once slot cache, parallel to the encoded footprint (read-set
       entry [i] at [i], write-set entry [j] at [n_rs + j]). Stamped by
       whichever layer resolves the key first — preprocessing, CC, or
       execution — and consumed by everyone after it, so each footprint
       key costs at most one index probe per transaction. Entries are
       plain (not cells): each is written by exactly one thread before a
       published watermark ([pre_done]/[cc_done]) or while the wrapper is
       exclusively claimed, the same publication discipline as
       [owned_keys]. *)
    slots : wrapped V.t R.Cell.t option array;
    (* Open-addressing key -> encoded-footprint-index map, built at wrap
       time; write-set entries shadow read-set entries for the same key.
       Replaces the per-read binary searches of the execution layer.
       [fp_enc.(s) = -1] marks an empty probe slot. *)
    fp_keys : Key.t array;
    fp_enc : int array;
    fp_mask : int;
    (* With preprocessing (3.2.2): for each CC thread, the footprint
       entries it owns, encoded as read-set index, or read-set length +
       write-set index. Written by one preprocessor thread and published
       to the CC threads through the [pre_done] watermark. *)
    owned_keys : int array array;
    (* Sharding metadata, computed at wrap time from the declared
       footprint (host-side, free): the bitmask of shards owning at least
       one footprint key, and the home shard — the shard of the first
       footprint entry — whose execution pool runs the logic. With one
       shard both are the constants [1] and [0] and nothing reads them. *)
    owners : int;
    home : int;
    (* Wakeup-path input-readiness memo (probe-once, like [slots]): the
       resolved version for footprint entry [i] (read set first, then
       write-set predecessors), filled lazily by [find_unfilled], and the
       monotone index below which every input is known filled — data never
       unfills, so a re-scan resumes at the frontier instead of re-reading
       the prefix. Plain host fields, not cells: concurrent scanners
       write identical resolutions and monotone frontiers, so a lost
       update only costs a (charged) re-read. *)
    mutable inputs : wrapped V.t option array;
    mutable input_frontier : int;
    (* Observability only: [now_ns] of the first claimed execution
       attempt, [min_int] until then — the anchor separating queue-wait
       from dependency-stall in the latency profile. Plain host field:
       written only while the wrapper is exclusively claimed. *)
    mutable obs_first : int;
    (* Observability only: the last (writer seq, key) pair this wrapper
       blocked on, as ["<writer_seq>:<key>"] ([""] = never blocked). Same
       claimed-exclusively discipline as [obs_first]; the completing
       attempt turns it into one [dep_stall:<writer>:<key>] instant for
       the stall-blame ledger. *)
    mutable obs_blocker : string;
  }

  type t = {
    config : Config.t;
    (* One version store per shard ([Config.shards] = 1: exactly one).
       Every store indexes the full key space — the bucket layout, and
       hence per-key probe cost, is identical in every shard — but a
       key's chain only ever grows in its owning shard's store. *)
    stores : wrapped V.t R.Cell.t Store.t array;
    mutable next_ts : int;
    (* Fault injection for the cross-shard checker's mutation tests:
       [Some (shard, batch)] makes that shard vote-abort the batch
       locally while its published vote is lost in transit (peers see
       ready). Set before [run]; never used outside tests. *)
    mutable lost_vote : (int * int) option;
    (* Per (shard, batch) vote-round outcome of the last sharded [run]:
       (shard, batch, local_ready, merged_commit). Empty for
       single-shard runs. *)
    mutable votes_log : (int * int * bool * bool) list;
    (* Per-shard, per-batch partition-map versions of the last [run] with
       adaptive repartitioning live ([pmap_log.(shard).(batch)]); [[||]]
       otherwise. Read only by the post-quiescence chain audit, which
       needs the map version pinned to each version's batch to know who
       legitimately owned a key when. *)
    mutable pmap_log : Partition_map.t array array;
  }

  (* Carries the key read, the unfilled version (so the wakeup path can
     register a waiter on it — the key locates the version's slot in the
     producer's write set), and the producing transaction (so the retry
     path can help it / key its retry list on it). *)
  exception Blocked_on of Key.t * wrapped V.t * wrapped

  let create config ~tables init =
    let mk_store () =
      Store.create_hash ~tables (fun k ->
          (* Chain heads are racy by design: a CC thread prepends for
             batch [b+1] while execution threads of batch [b] read —
             safe because chains are prepend-only and reads filter by
             timestamp, so the head is a synchronization cell. *)
          let head = R.Cell.make (V.initial (init k)) in
          R.Cell.mark_sync head;
          head)
    in
    {
      config;
      stores = Array.init config.Config.shards (fun _ -> mk_store ());
      next_ts = 1;
      lost_vote = None;
      votes_log = [];
      pmap_log = [||];
    }

  let config t = t.config

  let index_probes t =
    Array.fold_left (fun acc s -> acc + Store.probe_count s) 0 t.stores

  (* Store routing layered above the per-shard CC partitioning: a key's
     versions live in its owning shard's store. The single-shard branch is
     host-only and skips the shard hash. *)
  let store_for t k =
    if Array.length t.stores = 1 then t.stores.(0)
    else t.stores.(Key.shard_of ~shards:(Array.length t.stores) k)

  (* Adaptive repartitioning needs the preprocessing sweep twice over: it
     is where per-segment occupancy is measured, and it is the only layer
     that maps keys to partitions when [preprocess] is on (CC dispatch
     consumes the stamped [owned_keys] / routing buffers). Without
     preprocessing the flag is inert and CC scans with the static hash. *)
  let rebalance_on t =
    t.config.Config.cc_rebalance && t.config.Config.preprocess

  let partition_of cc_threads k = Key.hash k mod cc_threads

  (* --- Adaptive CC repartitioning (epoch-versioned partition maps) ---

     The published map version for batch [b] is [maps.(b)], an immutable
     {!Partition_map.t}; the array is pre-initialized to the static map
     (bit-identical to [partition_of]). Preprocessing worker 0 computes
     batch [b]'s per-segment occupancy at the preprocessing barrier and
     writes the resulting map into [maps.(b + rebalance_lag)] — batch
     [b+1] is already being classified under its published map, so the
     first batch that can safely consume a map derived from batch [b] is
     [b+2]. No new synchronization: worker 0 crosses barrier [b] before
     any preprocessor classifies batch [b+1] (same barrier), hence
     strictly before anyone reads [maps.(b+2)], and CC threads only read
     a batch's map behind [pre_done], whose release/acquire edge carries
     worker 0's host writes.

     Hysteresis knobs (see {!Partition_map.rebalance}): rebalancing
     evaluates only on enough samples per segment that uniform noise
     cannot look like skew — small-batch test runs never reach the floor
     — and publishes only on a real measured imbalance with a real
     predicted improvement. Evaluation is host-side and uncharged; an
     actual publication charges [Costs.cc_rebalance] on worker 0, so a
     run whose map never changes replays the static schedule
     bit-for-bit. *)
  let rebalance_lag = 2
  let rebalance_threshold = 1.25
  let rebalance_margin = 0.05
  let rebalance_min_samples_per_seg = 4

  (* Rebalancing state shared by one shard's preprocessors. Occupancy is
     accumulated host-side (uncharged) during the classification sweep
     into per-(batch, worker, segment) slots — no two workers share a
     counter — and summed by worker 0 at the batch barrier, which is
     also the only writer of the counters below. *)
  type rebal = {
    rb_occ : int array array array; (* batch -> pre worker -> segment *)
    rb_occ_parts : int array; (* whole-run per-partition occupancy *)
    mutable rb_rebalances : int;
    mutable rb_segs_moved : int;
    mutable rb_imb_max : float; (* max measured per-batch max/mean ratio *)
    mutable rb_imb_sum : float;
    mutable rb_imb_batches : int;
  }

  let rebal_make ~workers ~parts ~n_batches =
    let nsegs = Partition_map.segs_per_part * parts in
    {
      rb_occ =
        Array.init (max 1 n_batches) (fun _ ->
            Array.init workers (fun _ -> Array.make nsegs 0));
      rb_occ_parts = Array.make parts 0;
      rb_rebalances = 0;
      rb_segs_moved = 0;
      rb_imb_max = 1.0;
      rb_imb_sum = 0.;
      rb_imb_batches = 0;
    }

  (* Metrics gauges for a run's rebalancing state (one [rebal] per shard;
     a no-op on [[]] when the feature is off — no keys are selected at
     all, keeping rebalance-off extras bit-identical to the pre-feature
     engine). Imbalance ratios are measured occupancy max/mean per batch,
     under the map each batch actually ran with. *)
  let rebal_metrics sheet rebals =
    match rebals with
    | [] -> ()
    | hd :: _ ->
        let sum f = List.fold_left (fun a rb -> a + f rb) 0 rebals in
        let occ = Array.make (Array.length hd.rb_occ_parts) 0 in
        List.iter
          (fun rb ->
            Array.iteri (fun p l -> occ.(p) <- occ.(p) + l) rb.rb_occ_parts)
          rebals;
        let batches = sum (fun rb -> rb.rb_imb_batches) in
        let imb_sum =
          List.fold_left (fun a rb -> a +. rb.rb_imb_sum) 0. rebals
        in
        let imb_max =
          List.fold_left (fun a rb -> max a rb.rb_imb_max) 1.0 rebals
        in
        Obs.Metrics.seti sheet Obs.Metrics.rebalances
          (sum (fun rb -> rb.rb_rebalances));
        Obs.Metrics.seti sheet Obs.Metrics.segs_moved
          (sum (fun rb -> rb.rb_segs_moved));
        Obs.Metrics.set sheet Obs.Metrics.cc_imbalance_max imb_max;
        Obs.Metrics.set sheet Obs.Metrics.cc_imbalance_mean
          (if batches = 0 then 1.0 else imb_sum /. float_of_int batches);
        Array.iteri
          (fun p l -> Obs.Metrics.seti sheet (Obs.Metrics.cc_occ_p p) l)
          occ

  (* Capacity for [n] footprint entries at load factor <= 1/2, so linear
     probing always terminates on an empty slot. *)
  let fp_capacity n =
    let rec go c = if c >= 2 * max 1 n then c else go (2 * c) in
    go 1

  let dummy_key = Key.make ~table:0 ~row:0

  let fp_insert fp_keys fp_enc mask k enc =
    let rec go s =
      if fp_enc.(s) = -1 then begin
        fp_keys.(s) <- k;
        fp_enc.(s) <- enc
      end
      else if Key.equal fp_keys.(s) k then fp_enc.(s) <- enc
      else go ((s + 1) land mask)
    in
    go (Key.hash k land mask)

  (* Encoded footprint index of [k] in [w] (write-set entries shadow
     read-set entries), or -1 for an undeclared key. *)
  let fp_find w k =
    let mask = w.fp_mask in
    let rec go s =
      let enc = w.fp_enc.(s) in
      if enc = -1 then -1
      else if Key.equal w.fp_keys.(s) k then enc
      else go ((s + 1) land mask)
    in
    go (Key.hash k land mask)

  let wrap t i txn =
    let n_rs = Array.length txn.Txn.read_set in
    let n_ws = Array.length txn.Txn.write_set in
    let cap = fp_capacity (n_rs + n_ws) in
    let fp_keys = Array.make cap dummy_key in
    let fp_enc = Array.make cap (-1) in
    let mask = cap - 1 in
    Array.iteri (fun i k -> fp_insert fp_keys fp_enc mask k i) txn.Txn.read_set;
    Array.iteri
      (fun j k -> fp_insert fp_keys fp_enc mask k (n_rs + j))
      txn.Txn.write_set;
    (* The claim word is CASed and re-read without other ordering — a
       synchronization cell (its first [cas] would promote it anyway;
       marking covers the plain reads before that). *)
    let state = R.Cell.make st_unprocessed in
    R.Cell.mark_sync state;
    (* Written by registrants, read by the filler, with no other ordering
       in between — a synchronization cell like the claim word. *)
    let waited = R.Cell.make 0 in
    R.Cell.mark_sync waited;
    let shards = t.config.Config.shards in
    let owners, home =
      if shards = 1 then (1, 0)
      else begin
        let mask = ref 0 in
        let stamp k = mask := !mask lor (1 lsl Key.shard_of ~shards k) in
        Array.iter stamp txn.Txn.read_set;
        Array.iter stamp txn.Txn.write_set;
        let home =
          if n_rs > 0 then Key.shard_of ~shards txn.Txn.read_set.(0)
          else if n_ws > 0 then Key.shard_of ~shards txn.Txn.write_set.(0)
          else 0
        in
        ((if !mask = 0 then 1 lsl home else !mask), home)
      end
    in
    {
      txn;
      ts = t.next_ts + i;
      seq = i;
      state;
      waited;
      read_refs = Array.map (fun _ -> R.Cell.make None) txn.Txn.read_set;
      write_refs = Array.map (fun _ -> R.Cell.make None) txn.Txn.write_set;
      slots = Array.make (n_rs + n_ws) None;
      fp_keys;
      fp_enc;
      fp_mask = mask;
      (* Preprocessing writes each shard's [m]-slot slice block in place
         (each shard's preprocessors own disjoint slots, published
         through that shard's [pre_done]), so the array must exist
         before any shard stamps it. *)
      owned_keys =
        (if t.config.Config.preprocess then
           Array.make (shards * t.config.Config.cc_threads) [||]
         else [||]);
      owners;
      home;
      inputs = [||];
      input_frontier = 0;
      obs_first = min_int;
      obs_blocker = "";
    }

  (* Index of [k] in a sorted key array, or -1. *)
  let find_key sorted k =
    let rec go lo hi =
      if lo >= hi then -1
      else
        let mid = (lo + hi) / 2 in
        let c = Key.compare k sorted.(mid) in
        if c = 0 then mid else if c < 0 then go lo mid else go (mid + 1) hi
    in
    go 0 (Array.length sorted)

  (* Slot handle for footprint entry [enc] (key [k]) of [w]. The storage
     index is probed at most once per distinct key: an RMW key occupies
     both a read-set and a write-set entry, and the second resolution
     reuses the twin entry's handle instead of probing again. *)
  let slot_for t w enc k =
    match w.slots.(enc) with
    | Some slot -> slot
    | None ->
        let n_rs = Array.length w.txn.Txn.read_set in
        let twin =
          if enc >= n_rs then find_key w.txn.Txn.read_set k
          else
            match find_key w.txn.Txn.write_set k with
            | -1 -> -1
            | j -> n_rs + j
        in
        let slot =
          match if twin >= 0 then w.slots.(twin) else None with
          | Some slot -> slot
          | None -> Store.get (store_for t k) k
        in
        w.slots.(enc) <- Some slot;
        slot

  (* --- Concurrency-control phase (§3.2) --- *)

  type cc_stat = {
    mutable inserted : int;
    (* Telemetry counter ([gc_collected]) that only feeds the [--json]
       extras, thread-local and merged at the barrier. *)
    cc_ms : Obs.Metrics.shard;
    (* Slab-arena allocator: the partition's open slab plus retirement
       counters. Owner-thread state, never shared. *)
    alloc : wrapped V.alloc;
    (* Observability: this thread's event track ([None] when the run is
       unobserved) and, on partition 0 only, the shared per-batch CC
       publication timestamps ([cc_obs_pub.(b)] is stamped just before
       [cc_done] publishes [b], so the watermark's release/acquire edge
       publishes the host write to the execution threads too). *)
    cc_obs : Obs.Buf.t option;
    cc_obs_pub : int array;
  }

  (* Annotate read-set entry [i] of [w] with the version it must read.
     Heads in this thread's partition only ever advance when this thread
     inserts, so the current head is exactly the version visible to [w];
     the annotation is an uncontended write into space reserved inside the
     transaction (3.2.3). *)
  let cc_annotate_read t w i =
    let head = R.Cell.get (slot_for t w i w.txn.Txn.read_set.(i)) in
    R.Cell.set w.read_refs.(i) (Some head)

  (* Insert the placeholder for write-set entry [i] of [w] and invalidate
     its predecessor (3.2.3, Figure 3). *)
  let cc_insert_write t stat low_watermark w i =
    let k = w.txn.Txn.write_set.(i) in
    let slot = slot_for t w (Array.length w.txn.Txn.read_set + i) k in
    let prev = R.Cell.get slot in
    (* Bump-allocate into the partition's current arena slab: no allocator
       visit, the hot columns written with two line stores (charged inside
       [slab_placeholder]). *)
    R.work !Bohm_runtime.Costs.cc_insert_slab;
    let v =
      V.slab_placeholder stat.alloc
        ~batch:(w.seq / t.config.Config.batch_size)
        ~ts:w.ts ~producer:w ~prev
    in
    R.Cell.set w.write_refs.(i) (Some v);
    V.set_end_ts prev w.ts;
    R.Cell.set slot v;
    stat.inserted <- stat.inserted + 1;
    if t.config.Config.gc && stat.inserted land 31 = 0 then begin
      (* Condition 3 (3.3.2): every transaction at or below the
         low-watermark batch boundary has finished executing, so versions
         invalidated at or before that timestamp are invisible forever. *)
      let gc_ts = R.Cell.get low_watermark * t.config.Config.batch_size in
      if gc_ts > 0 then begin
        (match stat.cc_obs with
        | Some buf ->
            Obs.Buf.begin_span buf ~phase:"gc"
              ~batch:(w.seq / t.config.Config.batch_size)
              ~ts:(R.now_ns ())
        | None -> ());
        (* Whole-slab shape: one live-count decrement per dropped version,
           the slab freed when its count reaches zero. *)
        let dropped, _retired = V.truncate_retire stat.alloc v ~gc_ts in
        Obs.Metrics.add stat.cc_ms Obs.Metrics.gc_collected dropped;
        match stat.cc_obs with
        | Some buf -> Obs.Buf.end_span buf ~ts:(R.now_ns ())
        | None -> ()
      end
    end

  (* Apply the footprint entries partition [gpart] owns in [w], as
     computed by preprocessing and delivered by a routing buffer — no
     per-transaction scan (the Amdahl term of 3.2.2). [gpart] is the
     partition's index into [owned_keys], [shard * cc_threads +
     partition] (each shard's preprocessors stamp their own slice
     block). *)
  let cc_apply_owned t gpart stat low_watermark w =
    let n_rs = Array.length w.txn.Txn.read_set in
    let mine = w.owned_keys.(gpart) in
    R.work
      (!Bohm_runtime.Costs.cc_routed_dispatch
      + (cc_scan_per_key * Array.length mine));
    Array.iter
      (fun encoded ->
        if encoded < n_rs then begin
          if t.config.Config.read_annotation then cc_annotate_read t w encoded
        end
        else cc_insert_write t stat low_watermark w (encoded - n_rs))
      mine

  (* Without preprocessing every CC thread scans the whole transaction to
     find its keys. [owns] filters the scan to the shard's keys — a
     host-side predicate, constant [true] with one shard. *)
  let cc_scan_txn t my_partition ~owns stat low_watermark w =
    let cc_threads = t.config.Config.cc_threads in
    let rs = w.txn.Txn.read_set and ws = w.txn.Txn.write_set in
    R.work
      (cc_scan_base + (cc_scan_per_key * (Array.length rs + Array.length ws)));
    if t.config.Config.read_annotation then
      Array.iteri
        (fun i k ->
          if partition_of cc_threads k = my_partition && owns k then
            cc_annotate_read t w i)
        rs;
    Array.iteri
      (fun i k ->
        if partition_of cc_threads k = my_partition && owns k then
          cc_insert_write t stat low_watermark w i)
      ws

  (* Virtual-time instrumentation of the preprocess/CC pipeline overlap.
     Each field is written by one thread and read by the driver after the
     joins, so plain mutables suffice. *)
  type timing = {
    mutable cc_batch0_start : float;
    mutable pre_complete : float;
  }

  (* Per-(batch, partition) routing buffers, the dense-dispatch complement
     to [owned_keys]: while sweeping batch [b], preprocessor [me] appends
     each transaction index owning at least one footprint entry of
     partition [p] to its segment [segs.(b).(me).(p)] (ascending — the
     sweep strides upward). Each CC thread merges its own partition's
     segments into the dense slice it iterates instead of scanning
     [lo..hi]; segments are published to it through the [pre_done]
     watermark, exactly like the [owned_keys] stamps they index into, so
     routing adds no synchronization of its own. Layout:
     [segs.(batch).(worker).(partition)]. *)

  (* Per-shard pipeline context; [sh_n = 1] is the single-pipeline
     engine. Each shard is a complete BOHM pipeline — preprocessor slice,
     CC partitions, exec pool, version store — consuming the same shared
     input log. All shards sequence the log into the same global epochs
     (a batch boundary is a batch boundary everywhere), which is what
     lets the cross-shard commit be one deterministic vote round: at the
     end of batch [b] each shard's voter publishes ready/abort for its
     slice on the vote board, reads every peer's vote, and merges — the
     merge input is identical on all shards, so the decision is too, and
     no coordinator exists. With one shard there is no vote round.
     [sh_owns] is the host-side "key lives on this shard" predicate
     (constant [true] with one shard). [sh_vote_local]/[sh_vote_merged]
     are this shard's per-batch rows of the driver's vote log, written
     only by the shard's voter thread and read by the driver after the
     joins. *)
  type shard_ctx = {
    sh_id : int;
    sh_n : int;
    sh_owns : Key.t -> bool;
    sh_votes : Sync.Votes.t;
    sh_vote_local : bool array;
    sh_vote_merged : bool array;
  }

  let multi_shard w = w.owners land (w.owners - 1) <> 0

  (* The 3.2.2 pre-processing layer: embarrassingly parallel over
     transactions, it computes for each CC thread the footprint entries in
     its partition — and, on the memoized path, resolves each footprint
     key's slot handle with the transaction's single index probe. Run as a
     pipeline stage: the [workers] preprocessors sweep one batch, meet at
     [pre_barrier], publish the batch through the [pre_done] watermark
     (the handshake CC threads consume, mirroring [cc_done]), and move on
     to the next batch while CC works on this one. The sweep also feeds
     the per-partition routing buffers.

     With several shards, this shard's preprocessors still sweep the
     whole shared log (the classification charge is the cost of reading
     it), but stamp only the footprint entries their shard owns, into the
     shard's slice block of [owned_keys]; entries of a multi-shard
     transaction additionally pay [Costs.shard_route] apiece — the routed
     footprint slice arriving over the interconnect. Single-shard
     transactions of other shards contribute nothing here and are never
     charged a routing cost anywhere. *)
  let preprocess_loop t sh wrapped me workers pre_barrier pre_done timing
      routes maps rebal obs_buf pre_lat n_batches =
    let m = t.config.Config.cc_threads in
    let bs = t.config.Config.batch_size in
    let n = Array.length wrapped in
    let scratch = Array.make m [] in
    let seg_lists = Array.make m [] in
    let owns = sh.sh_owns in
    for b = 0 to n_batches - 1 do
      (match obs_buf with
      | Some buf ->
          Obs.Buf.begin_span buf ~phase:"preprocess" ~batch:b ~ts:(R.now_ns ())
      | None -> ());
      (* The map version pinned to this batch. Written (for [b >= 2]) by
         worker 0 at barrier [b - rebalance_lag], which every worker has
         crossed before classifying batch [b]. With rebalancing off this
         is always the static map and the lookup is [Key.hash k mod m]. *)
      let pmap = maps.(b) in
      let occ =
        match rebal with Some rb -> rb.rb_occ.(b).(me) | None -> [||]
      in
      let classify slot k =
        let h = Key.hash k in
        let p = Partition_map.partition_of_hash pmap h in
        if rebal <> None then begin
          let s = Partition_map.segment_of_hash pmap h in
          occ.(s) <- occ.(s) + 1
        end;
        scratch.(p) <- slot :: scratch.(p)
      in
      let lo = b * bs and hi = min n ((b + 1) * bs) - 1 in
      let idx = ref (lo + me) in
      while !idx <= hi do
        let w = wrapped.(!idx) in
        let rs = w.txn.Txn.read_set and ws = w.txn.Txn.write_set in
        let n_rs = Array.length rs in
        R.work
          (cc_scan_base + (preprocess_per_key * (n_rs + Array.length ws)));
        Array.fill scratch 0 m [];
        let owned_here = ref 0 in
        Array.iteri
          (fun i k ->
            if owns k then begin
              ignore (slot_for t w i k);
              classify i k;
              incr owned_here
            end)
          rs;
        Array.iteri
          (fun i k ->
            if owns k then begin
              ignore (slot_for t w (n_rs + i) k);
              classify (n_rs + i) k;
              incr owned_here
            end)
          ws;
        (* Disjoint slice block per shard, published through this
           shard's [pre_done]. *)
        let base = sh.sh_id * m in
        for p = 0 to m - 1 do
          w.owned_keys.(base + p) <- Array.of_list (List.rev scratch.(p))
        done;
        if multi_shard w && !owned_here > 0 then
          R.work (!Bohm_runtime.Costs.shard_route * !owned_here);
        let appended = ref 0 in
        for p = 0 to m - 1 do
          if scratch.(p) <> [] then begin
            seg_lists.(p) <- !idx :: seg_lists.(p);
            incr appended
          end
        done;
        if !appended > 0 then
          R.work (!Bohm_runtime.Costs.cc_route_append * !appended);
        idx := !idx + workers
      done;
      let mine = routes.(b).(me) in
      for p = 0 to m - 1 do
        mine.(p) <- Array.of_list (List.rev seg_lists.(p));
        seg_lists.(p) <- []
      done;
      (match obs_buf with
      | Some buf -> Obs.Buf.end_span buf ~ts:(R.now_ns ())
      | None -> ());
      Sync.Barrier.await pre_barrier;
      if me = 0 then begin
        (* Rebalance point: every worker's occupancy slots for batch [b]
           are complete (the barrier orders them before this read), and
           no preprocessor can reach batch [b + rebalance_lag] until
           worker 0 crosses barrier [b + 1], so the map write below is
           safe without further synchronization. Measurement and the
           (usually fruitless) evaluation are host-side and uncharged;
           only an actual publication charges [Costs.cc_rebalance] and
           emits a trace span — so a run whose map never changes replays
           the rebalance-off schedule bit-for-bit. *)
        (match rebal with
        | Some rb ->
            let nsegs = Partition_map.nsegs maps.(b) in
            let seg_load = Array.make nsegs 0 in
            Array.iter
              (fun per_worker ->
                for s = 0 to nsegs - 1 do
                  seg_load.(s) <- seg_load.(s) + per_worker.(s)
                done)
              rb.rb_occ.(b);
            let part_load = Partition_map.load_per_partition maps.(b) seg_load in
            Array.iteri
              (fun p l -> rb.rb_occ_parts.(p) <- rb.rb_occ_parts.(p) + l)
              part_load;
            if Array.exists (fun l -> l > 0) part_load then begin
              let r = Partition_map.imbalance part_load in
              if r > rb.rb_imb_max then rb.rb_imb_max <- r;
              rb.rb_imb_sum <- rb.rb_imb_sum +. r;
              rb.rb_imb_batches <- rb.rb_imb_batches + 1;
              match obs_buf with
              | Some buf ->
                  (* Per-batch measured imbalance for the timeline, in
                     thousandths (instants carry ints). *)
                  Obs.Buf.instant buf ~name:"cc_imbalance" ~batch:b
                    ~value:(int_of_float (r *. 1000.))
                    ~ts:(R.now_ns ())
              | None -> ()
            end;
            if b + rebalance_lag < n_batches then begin
              let base = maps.(b + rebalance_lag - 1) in
              let ts0 =
                match obs_buf with Some _ -> R.now_ns () | None -> 0
              in
              match
                Partition_map.rebalance base ~load:seg_load
                  ~min_samples:(rebalance_min_samples_per_seg * nsegs)
                  ~threshold:rebalance_threshold ~margin:rebalance_margin
              with
              | Some pmap' ->
                  R.work !Bohm_runtime.Costs.cc_rebalance;
                  rb.rb_rebalances <- rb.rb_rebalances + 1;
                  rb.rb_segs_moved <-
                    rb.rb_segs_moved + Partition_map.moved base pmap';
                  maps.(b + rebalance_lag) <- pmap';
                  (match obs_buf with
                  | Some buf ->
                      let t1 = R.now_ns () in
                      Obs.Buf.begin_span buf ~phase:"rebalance" ~batch:b
                        ~ts:ts0;
                      Obs.Buf.end_span buf ~ts:t1;
                      (match pre_lat with
                      | Some lat ->
                          Obs.Latency.add lat Obs.Latency.Rebalance (t1 - ts0)
                      | None -> ())
                  | None -> ())
              | None ->
                  (* Propagate the kept map so every batch's slot holds
                     its published version. *)
                  maps.(b + rebalance_lag) <- base
            end
        | None -> ());
        Sync.Watermark.publish pre_done b;
        if b = n_batches - 1 then timing.pre_complete <- R.now ()
      end
    done

  let cc_loop t sh my_partition stat low_watermark barrier pre_done cc_done
      timing wrapped routed n_batches =
    let bs = t.config.Config.batch_size in
    let n = Array.length wrapped in
    let gpart = (sh.sh_id * t.config.Config.cc_threads) + my_partition in
    let owns = sh.sh_owns in
    for b = 0 to n_batches - 1 do
      (* Pipeline stage handshake: wait for preprocessing to publish this
         batch; preprocessing of batch [b+1] proceeds meanwhile. *)
      if t.config.Config.preprocess then
        Sync.Watermark.await pre_done ~at_least:b;
      if b = 0 && my_partition = 0 then timing.cc_batch0_start <- R.now ();
      (match stat.cc_obs with
      | Some buf -> Obs.Buf.begin_span buf ~phase:"cc" ~batch:b ~ts:(R.now_ns ())
      | None -> ());
      (match routed with
      | Some segs ->
          (* Merge this partition's per-preprocessor segments into the
             dense slice, then dispatch only the transactions that own
             something here, in timestamp order — the batch's non-owners
             are never even loaded. Concatenating the (already ascending)
             segments and sorting restores ascending transaction index,
             i.e. timestamp order: segments are disjoint strided
             subsequences of the batch. *)
          let segs_b = segs.(b) in
          let total =
            Array.fold_left
              (fun acc per_worker ->
                acc + Array.length per_worker.(my_partition))
              0 segs_b
          in
          let routed = Array.make total 0 in
          let pos = ref 0 in
          Array.iter
            (fun per_worker ->
              let seg = per_worker.(my_partition) in
              Array.blit seg 0 routed !pos (Array.length seg);
              pos := !pos + Array.length seg)
            segs_b;
          Array.sort (fun (a : int) b -> compare a b) routed;
          R.work (!Bohm_runtime.Costs.cc_route_merge * total);
          Array.iter
            (fun idx -> cc_apply_owned t gpart stat low_watermark wrapped.(idx))
            routed
      | None ->
          let lo = b * bs and hi = min n ((b + 1) * bs) - 1 in
          for idx = lo to hi do
            cc_scan_txn t my_partition ~owns stat low_watermark wrapped.(idx)
          done);
      (match stat.cc_obs with
      | Some buf ->
          let ts = R.now_ns () in
          (* Open-slab occupancy at the partition's batch boundary — the
             timeline takes the max across partitions. *)
          Obs.Buf.instant buf ~name:"slab_occ" ~batch:b
            ~value:(V.slabs_opened stat.alloc - V.slabs_retired stat.alloc)
            ~ts;
          Obs.Buf.end_span buf ~ts
      | None -> ());
      Sync.Barrier.await barrier;
      if my_partition = 0 then begin
        (* Stamp before publishing: the watermark's release/acquire edge
           carries this host write to the execution threads, which read
           it only for batches whose [cc_done] they have observed. *)
        if Array.length stat.cc_obs_pub > 0 then
          stat.cc_obs_pub.(b) <- R.now_ns ();
        Sync.Watermark.publish cc_done b
      end
    done

  (* --- Execution phase (§3.3) --- *)

  (* Observability context of one execution thread: its event track, its
     latency recorder, the shared CC publication stamps (written by CC
     partition 0, read here through the [cc_done] edge) and the run-start
     anchor. *)
  type exec_obs = {
    ob_buf : Obs.Buf.t;
    ob_lat : Obs.Latency.t;
    ob_cc_pub : int array;
    ob_run_start : int;
  }

  type exec_stat = {
    mutable committed : int;
    mutable logic_aborts : int;
    (* Telemetry counters that only feed the [--json] extras
       ([dep_blocks], [steals], [exec_retry_scans] — passes over the
       thread's blocked list — and [wakeups] this thread pushed as a
       filler): one {!Obs.Metrics.shard} per thread, merged at the
       barrier. Charged stats ([committed], [logic_aborts]) stay plain
       fields. *)
    es_ms : Obs.Metrics.shard;
    exec_obs : exec_obs option;
  }

  let resolve_version t w k =
    R.work read_resolve_work;
    (* A key in the write set reads its own predecessor version (the
       placeholder's prev); otherwise the CC annotation (if on) or a chain
       walk from the cached head locates the visible version. The wrap-time
       footprint map classifies the key with one lookup. *)
    let n_rs = Array.length w.txn.Txn.read_set in
    match fp_find w k with
    | -1 ->
        invalid_arg
          (Printf.sprintf "Bohm: read of undeclared key %s" (Key.to_string k))
    | enc when enc >= n_rs -> (
        match R.Cell.get w.write_refs.(enc - n_rs) with
        | Some mine -> (
            match V.prev mine with
            | Some prev -> prev
            | None -> assert false (* placeholders always have a prev *))
        | None -> assert false (* CC finished this batch before exec began *))
    | i when t.config.Config.read_annotation -> (
        match R.Cell.get w.read_refs.(i) with
        | Some v -> v
        | None -> assert false)
    | i -> (
        let head = R.Cell.get (slot_for t w i k) in
        match V.visible_at head ~ts:w.ts with
        | Some v -> v
        | None ->
            invalid_arg
              "Bohm: version visible to transaction was garbage collected")

  let read_version_data t k v =
    match R.Cell.get (V.data_cell v) with
    | Some value ->
        R.copy ~bytes:(Store.record_bytes t.stores.(0) k);
        value
    | None -> (
        match V.producer v with
        | Some producer -> raise (Blocked_on (k, v, producer))
        | None -> assert false (* bulk-loaded versions carry data *))

  (* Fill-triggered wakeup plumbing for one execution thread: its identity
     and every thread's ready queue (so a filler can push to the parked
     thread's). The registration signal is per-producer — the [waited]
     counter on the wrapper — not global: registrants already know the
     blocking transaction, and a per-wrapper counter keeps signal traffic
     off a single hot line. *)
  type wake = {
    wk_me : int;
    wk_queues : Sync.Mpsc.t array;
    wk_wrapped : wrapped array;
        (** The whole run, indexed by [seq] — lets a filler drive the
            transactions it just woke instead of only enqueueing them. *)
    mutable wk_parked : (int * V.waiter * wrapped V.t) list;
        (** This thread's live parked registrations (txn index, the waiter
            record, the version it waits on). The wait loop polls them for
            opportunistic self-service: the claim token makes "the filler
            pushes a wakeup" and "the owner notices the fill first" race
            safely, so an owner that is idle anyway can watch the version's
            data line (a cached read until the fill changes it) and pick
            its transaction up without waiting for the queue round-trip.
            Thread-private; reset each batch. *)
  }

  (* Input-readiness scan for the wakeup path. Everything an execution can
     read — the logic's reads and the install's copy-forward of unwritten
     write-set keys — is declared in the footprint, so a blocked dependency
     can be found (and parked on) without claiming the transaction or
     dispatching its logic: a blocked probe costs a few reads instead of a
     claim/release RMW pair plus a logic run that ends in an exception.
     Returns the first unfilled input exactly as the [Blocked_on] raise
     site would report it ([resolve_version] maps a write-set key to its
     predecessor, the version both an RMW read and the copy-forward
     consume). A re-scan after a wakeup walks the already-filled prefix
     out of cache, so its cost shrinks as the frontier advances. *)
  let find_unfilled t w =
    let n_rs = Array.length w.txn.Txn.read_set in
    let n = n_rs + Array.length w.txn.Txn.write_set in
    if Array.length w.inputs <> n then w.inputs <- Array.make n None;
    let key_at i =
      if i < n_rs then w.txn.Txn.read_set.(i)
      else w.txn.Txn.write_set.(i - n_rs)
    in
    let rec scan i =
      if i >= n then None
      else begin
        let v =
          match w.inputs.(i) with
          | Some v -> v
          | None ->
              let v = resolve_version t w (key_at i) in
              w.inputs.(i) <- Some v;
              v
        in
        if R.Cell.get (V.data_cell v) <> None then begin
          if w.input_frontier < i + 1 then w.input_frontier <- i + 1;
          scan (i + 1)
        end
        else
          match V.producer v with
          | Some producer -> Some (key_at i, v, producer)
          | None -> assert false (* bulk-loaded versions carry data *)
      end
    in
    scan w.input_frontier

  (* Fill every placeholder of [w]. On [Abort] — or for declared write-set
     keys the logic never wrote — the predecessor's value is copied
     forward (§3.3.1, "Write Dependencies"). *)
  let install t local w outcome =
    Array.iteri
      (fun j k ->
        let v =
          match R.Cell.get w.write_refs.(j) with
          | Some v -> v
          | None -> assert false
        in
        let value =
          let chosen =
            match outcome with
            | Txn.Commit -> Local_writes.find local k
            | Txn.Abort -> None
          in
          match chosen with
          | Some value -> value
          | None -> (
              match V.prev v with
              | Some prev -> read_version_data t k prev
              | None -> assert false)
        in
        R.copy ~bytes:(Store.record_bytes t.stores.(0) k);
        R.Cell.set (V.data_cell v) (Some value))
      w.txn.Txn.write_set

  let claim w = R.Cell.cas w.state st_unprocessed st_executing
  let release w = R.Cell.set w.state st_unprocessed

  (* Publish a waiter for [w] on the unfilled version [bv]. [true] means
     parked: exactly one wakeup carrying [w.seq] will reach this thread's
     ready queue. [false] means the fill won the race and [w] should be
     retried inline. [w] must be unclaimed here — the wakeup's consumer
     (this thread, later) needs the claim CAS to be able to succeed.

     The lost-wakeup-free publication order is: (1) set the version's bit
     in the producer's [waited] mask (or observe it already set), (2) CAS
     the record onto the version's list, (3) re-read the data. The
     filler's order is: store all data, read its own [waited], and probe
     the marked versions' lists, sealing the non-empty ones. If our
     re-read at (3) finds no data, our (1) and (2) precede the filler's
     data store and hence both its mask read and its list probe, so the
     filler is guaranteed to see the bit and our record: the wakeup will
     come. If the re-read finds data, the filler may have read the mask
     (or probed the list) before we published — so we race it for the
     record's claim token: winning means no wakeup is coming and we retry
     inline; losing means the wakeup is already on its way and parking is
     safe. *)
  let register_parked t wk ~dep ~key w bv =
    R.work !Bohm_runtime.Costs.exec_waiter_register;
    let wt =
      V.make_waiter ~owner:wk.wk_me
        ~batch:(w.seq / t.config.Config.batch_size)
        ~index:w.seq
    in
    (* [bv] is [dep]'s placeholder for [key], so [key] is in [dep]'s write
       set and the footprint map gives its write-set slot in one probe. *)
    let bit =
      let n_rs = Array.length dep.txn.Txn.read_set in
      match fp_find dep key with
      | enc when enc >= n_rs -> 1 lsl ((enc - n_rs) mod 62)
      | _ -> assert false
    in
    let rec mark () =
      let cur = R.Cell.get dep.waited in
      if cur land bit = 0 && not (R.Cell.cas dep.waited cur (cur lor bit))
      then mark ()
    in
    mark ();
    match V.register_waiter bv wt with
    | `Sealed -> false
    | `Registered ->
        if R.Cell.get (V.data_cell bv) = None then begin
          R.work !Bohm_runtime.Costs.exec_park;
          wk.wk_parked <- (w.seq, wt, bv) :: wk.wk_parked;
          true
        end
        else if R.Cell.cas wt.V.w_claimed 0 1 then false
        else begin
          (* Token race lost: the wakeup is already queued, no point
             watching the version. *)
          R.work !Bohm_runtime.Costs.exec_park;
          true
        end

  type advance =
    | Done
    | Busy
    | Blocked_by of wrapped
    | Parked  (** Waiter registered; a wakeup will re-deliver this txn. *)

  (* Bounded poll of an actively-executing dependency, the futex-style
     spin-then-park split: a dependency whose claim is held by a thread
     currently running its logic completes within a logic's length, so a
     few dozen cached re-reads of its state word (the line is unchanged
     until completion, so re-reads stay local) beat a park/wakeup round
     trip of hot-line RMWs. Gives up immediately when the dependency is
     not mid-execution — an unprocessed dependency is itself blocked, its
     completion is a whole chain away, and that long wait is exactly what
     the waiter protocol is for. *)
  let spin_while_executing dep =
    let rec go budget =
      let s = R.Cell.get dep.state in
      if s = st_complete then true
      else if s <> st_executing || budget = 0 then false
      else begin
        R.relax ();
        go (budget - 1)
      end
    in
    go 32

  (* One non-blocking pass at driving [w] to completion (§3.3.1): claim it,
     attempt it, and on a dependency block release it — so any thread can
     pick it up — and help the dependency (recursively, to bounded depth).
     Reports the blocking transaction so the caller can avoid re-running
     [w]'s logic before the dependency has resolved. On the wakeup path
     the claim is preceded by the input-readiness scan, so a blocked
     transaction is detected — and parked — without claim traffic or a
     wasted logic dispatch; the logic runs once, when its inputs are
     known filled. *)
  (* Wakeup-side half of a fill: seal the written versions' waiter lists,
     push one ready-queue wakeup per unclaimed record, then drive the
     woken transactions directly (continuation helping). The caller runs
     this strictly after [install]'s data stores — that order is what
     makes a registrant's "registered, then re-read data as [None]"
     observation a guarantee that this drain will see its record — and
     after publishing [st_complete], so spinning and polling consumers
     advance past [w] while the filler is still paying for the coherence
     traffic of the drain. The pushes all happen before the first drive:
     liveness never depends on the helping, only on the queued wakeup —
     the drive just collapses the fill-to-re-attempt handoff to zero for
     the common case, so a dependency chain runs at one thread's serial
     speed instead of paying a queue round-trip per link. *)
  let rec wake_waiters t stat local wake ~depth w =
    match wake with
    | None -> ()
    | Some wk -> (
        match R.Cell.get w.waited with
        | 0 -> ()
        | mask ->
            let woken = ref [] in
            Array.iteri
              (fun j r ->
                if mask land (1 lsl (j mod 62)) <> 0 then begin
                  let v =
                    match R.Cell.get r with Some v -> v | None -> assert false
                  in
                  (* Seal only lists with something on them: an empty list
                     can stay unsealed forever because a registration racing
                     this fill self-serves through its claim token (its data
                     re-read necessarily finds the store above). *)
                  if V.has_waiters v then
                    List.iter
                      (fun (wt : V.waiter) ->
                        (* The claim token: losing this CAS means the
                           registrant saw the data and served itself —
                           pushing anyway would wake a thread for work
                           already done. *)
                        if R.Cell.cas wt.V.w_claimed 0 1 then begin
                          R.work !Bohm_runtime.Costs.exec_wake_push;
                          Sync.Mpsc.push wk.wk_queues.(wt.V.w_owner)
                            wt.V.w_index;
                          Obs.Metrics.incr stat.es_ms Obs.Metrics.wakeups;
                          (match stat.exec_obs with
                          | Some ob ->
                              Obs.Buf.instant ob.ob_buf ~name:"wakeup"
                                ~batch:wt.V.w_batch ~ts:(R.now_ns ())
                          | None -> ());
                          woken := wt.V.w_index :: !woken
                        end)
                      (V.seal_waiters v)
                end)
              w.write_refs;
            List.iter
              (fun idx ->
                ignore
                  (try_advance t stat local wake ~depth:(depth + 1)
                     ~mine:false wk.wk_wrapped.(idx)))
              (List.rev !woken))

  (* One exclusive execution attempt; caller has claimed [w]. Returns the
     blocking transaction if a needed version is still unproduced. Logic is
     re-run from scratch on retry, so it must be a pure function of its
     reads. *)
  and attempt t stat local wake ~depth w =
    let obs_t0 =
      match stat.exec_obs with
      | None -> 0
      | Some _ ->
          let ts = R.now_ns () in
          if w.obs_first = min_int then w.obs_first <- ts;
          ts
    in
    try
      Local_writes.clear local;
      R.work exec_dispatch_work;
      let ctx =
        {
          Txn.read =
            (fun k ->
              match Local_writes.find local k with
              | Some value -> value
              | None -> read_version_data t k (resolve_version t w k));
          write =
            (fun k value ->
              if not (Txn.writes w.txn k) then
                invalid_arg
                  (Printf.sprintf "Bohm: write of undeclared key %s"
                     (Key.to_string k));
              Local_writes.set local k value);
          spin = R.work;
        }
      in
      let outcome = w.txn.Txn.logic ctx in
      install t local w outcome;
      (match outcome with
      | Txn.Commit -> stat.committed <- stat.committed + 1
      | Txn.Abort -> stat.logic_aborts <- stat.logic_aborts + 1);
      R.Cell.set w.state st_complete;
      (match stat.exec_obs with
      | None -> ()
      | Some ob ->
          (* The four-phase decomposition of this transaction's life:
             run start → CC published its batch (cc_wait) → first claimed
             attempt (queue_wait) → this attempt (dep_stall) → complete
             (exec). *)
          let t1 = R.now_ns () in
          let b = w.seq / t.config.Config.batch_size in
          let cc_pub = ob.ob_cc_pub.(b) in
          Obs.Latency.add ob.ob_lat Obs.Latency.Exec (t1 - obs_t0);
          Obs.Latency.add ob.ob_lat Obs.Latency.Dep_stall
            (obs_t0 - w.obs_first);
          Obs.Latency.add ob.ob_lat Obs.Latency.Queue_wait
            (w.obs_first - cc_pub);
          Obs.Latency.add ob.ob_lat Obs.Latency.Cc_wait
            (cc_pub - ob.ob_run_start);
          (* Stall blame: attribute this transaction's dep_stall window to
             the last (writer, key) pair it blocked on. *)
          if w.obs_blocker <> "" then
            Obs.Buf.instant ob.ob_buf
              ~name:("dep_stall:" ^ w.obs_blocker)
              ~batch:b
              ~value:(obs_t0 - w.obs_first)
              ~ts:t1);
      wake_waiters t stat local wake ~depth w;
      None
    with Blocked_on (bk, bv, dep) ->
      Obs.Metrics.incr stat.es_ms Obs.Metrics.dep_blocks;
      (match stat.exec_obs with
      | Some _ ->
          w.obs_blocker <-
            Printf.sprintf "%d:%s" dep.seq (Key.to_string bk)
      | None -> ());
      Some (bk, bv, dep)

  and try_advance t stat local wake ~depth ~mine w =
    let rec go retries =
      let s = R.Cell.get w.state in
      if s = st_complete then Done
      else if s = st_executing || depth > 32 then Busy
      else begin
        match
          (* Probe readiness only once a transaction has blocked before
             (the memo array marks it): a first attempt's logic discovers
             a block at the same cost as a cold scan would, so the scan
             pays for itself only on re-attempts, where the frontier memo
             makes it a couple of cached reads. *)
          match wake with
          | Some _ when Array.length w.inputs > 0 -> find_unfilled t w
          | _ -> None
        with
        | Some (bk, bv, dep) ->
            Obs.Metrics.incr stat.es_ms Obs.Metrics.dep_blocks;
            (match stat.exec_obs with
            | Some _ ->
                w.obs_blocker <-
                  Printf.sprintf "%d:%s" dep.seq (Key.to_string bk)
            | None -> ());
            on_block retries (bk, bv, dep)
        | None ->
            if claim w then begin
              match attempt t stat local wake ~depth w with
              | None ->
                  if not mine then begin
                    Obs.Metrics.incr stat.es_ms Obs.Metrics.steals;
                    match stat.exec_obs with
                    | Some ob ->
                        Obs.Buf.instant ob.ob_buf ~name:"steal"
                          ~batch:(w.seq / t.config.Config.batch_size)
                          ~ts:(R.now_ns ())
                    | None -> ()
                  end;
                  Done
              | Some blocked ->
                  release w;
                  (* Arm the readiness scan for every later pass at [w]. *)
                  (if Array.length w.inputs = 0 then
                     let n =
                       Array.length w.txn.Txn.read_set
                       + Array.length w.txn.Txn.write_set
                     in
                     w.inputs <- Array.make n None);
                  on_block retries blocked
            end
            else Busy
      end
    and on_block retries (bk, bv, dep) =
      ignore (try_advance t stat local wake ~depth:(depth + 1) ~mine:false dep);
      (* If helping resolved the dependency, finish [w] right away — its
         own dependents may be waiting on it. If the dependency is
         mid-execution on another thread, park [w]: on the retry path it
         goes to the caller's retry list; on the wakeup path a waiter is
         registered on the blocking version, and only if the fill beats
         the registration is [w] retried inline. *)
      if retries < 12 && R.Cell.get dep.state = st_complete then
        go (retries + 1)
      else begin
        match wake with
        | None -> Blocked_by dep
        | Some wk when mine ->
            if spin_while_executing dep then go (retries + 1)
            else if register_parked t wk ~dep ~key:bk w bv then Parked
            else go (retries + 1)
        | Some _ ->
            (* A foreign transaction (steal scan or helping) is the
               owner's to park: the owner either has it on its busy list
               or will register its own waiter, so a second registration
               would only add protocol traffic and a redundant wakeup.
               Walk away. *)
            Blocked_by dep
      end
    in
    go 0

  let exec_loop t sh me stat exec_progress low_watermark cc_dones wrapped
      steal_cursors wake_parts n_batches =
    let bs = t.config.Config.batch_size in
    let k = t.config.Config.exec_threads in
    let n = Array.length wrapped in
    let local = Local_writes.create () in
    (* Global thread id: progress counters and ready queues are indexed
       across all shards (a filler on one shard can wake a parked reader
       on another), while [me] keeps striping within the shard's pool. *)
    let gme = (sh.sh_id * k) + me in
    let my_home w = w.home = sh.sh_id in
    (* RCU-style low watermark: the minimum batch every execution thread
       of every shard has finished (§3.3.2) — a cross-shard reader at
       batch [b] pins remote versions exactly like local ones. *)
    let publish_low_watermark () =
      let minimum = ref max_int in
      Array.iter
        (fun cell ->
          let p = R.Cell.get cell in
          if p < !minimum then minimum := p)
        exec_progress;
      R.Cell.set low_watermark !minimum
    in
    let wake =
      match wake_parts with
      | None -> None
      | Some queues ->
          Some
            {
              wk_me = gme;
              wk_queues = queues;
              wk_wrapped = wrapped;
              wk_parked = [];
            }
    in
    for b = 0 to n_batches - 1 do
      (* Epoch alignment: before touching batch [b], every shard's CC must
         have published it — a multi-shard transaction's remote
         placeholders (and any dependency's, in this batch or earlier) are
         then guaranteed to exist. One watermark unsharded. *)
      Array.iter (fun c -> Sync.Watermark.await c ~at_least:b) cc_dones;
      let obs_c0 = stat.committed in
      (match stat.exec_obs with
      | Some ob ->
          Obs.Buf.begin_span ob.ob_buf ~phase:"exec" ~batch:b ~ts:(R.now_ns ())
      | None -> ());
      let lo = b * bs and hi = min n ((b + 1) * bs) - 1 in
      (* Work stealing across assignments (§3.3.1: "other threads are
         allowed to execute transactions assigned to i"): pick up any
         transaction still unprocessed — typically ones queued behind a
         long read-only transaction on another thread. Both modes run one
         pass before leaving the batch; the wakeup path additionally runs
         it on quiet waiting passes, so a thread whose own stripe is parked
         helps drive the head of the dependency chain instead of idling —
         the useful half of what the retry path's forced re-polling does,
         without re-running logic already known to be blocked.

         The sweep starts at a shared per-batch cursor: the longest
         all-complete prefix any sweeper has observed. Late sweepers
         resume there instead of rescanning the whole batch. Purely an
         iteration-start hint — a stale cursor only means extra
         (idempotent) state checks, and the cursor is CASed against the
         value read so it never moves backwards. *)
      let steal_pass ~bounded =
        let advanced = ref false in
        let scanning = ref true in
        let try_steal w =
          if R.Cell.get w.state = st_unprocessed then
            match try_advance t stat local wake ~depth:0 ~mine:false w with
            | Done -> advanced := true
            | Blocked_by _ | Parked ->
                (* A bounded (idle-help) pass stops at the first blocked
                   steal: on a dependency chain everything past the head is
                   blocked on it, and re-running each one's logic just to
                   watch it block is the spin the wakeup design exists to
                   avoid. *)
                if bounded then scanning := false
            | Busy -> ()
        in
        let cur = steal_cursors.(b) in
        let base = R.Cell.get cur in
        let span = hi - lo in
        let prefix = ref base in
        let prefix_open = ref true in
        let s = ref base in
        while !scanning && !s <= span do
          let w = wrapped.(lo + !s) in
          (* Foreign-home transactions are another shard's to run: skip
             them without reading their state (host check), and count them
             into the prefix — "nothing for this shard to steal below". *)
          if my_home w then begin
            try_steal w;
            if !prefix_open then
              if R.Cell.get w.state = st_complete then prefix := !s + 1
              else prefix_open := false
          end
          else if !prefix_open then prefix := !s + 1;
          incr s
        done;
        if !prefix > base then ignore (R.Cell.cas cur base !prefix);
        !advanced
      in
      (match wake with
      | None ->
          (* Retry-polling mode, for pools narrower than [park_min_execs].
             First pass over the transactions this
             thread is responsible for; blocked ones go to a retry list
             instead of stalling the thread ("T is later picked up by an
             execution thread", §3.3.1). Each retry entry remembers the
             dependency that blocked it so logic is not re-run before that
             dependency resolves. *)
          let pending = ref [] in
          let note w = function
            | Done -> ()
            | Busy -> pending := (w, None) :: !pending
            | Blocked_by dep -> pending := (w, Some dep) :: !pending
            | Parked -> assert false (* no waiters on this path *)
          in
          (* Retry parked transactions whose blocking dependency has
             resolved; with [force] also the ones still apparently
             blocked. *)
          let sweep ~force =
            Obs.Metrics.incr stat.es_ms Obs.Metrics.exec_retry_scans;
            (match stat.exec_obs with
            | Some ob ->
                Obs.Buf.instant ob.ob_buf ~name:"retry_scan" ~batch:b
                  ~ts:(R.now_ns ())
            | None -> ());
            let progressed = ref false in
            pending :=
              List.filter_map
                (fun (w, dep) ->
                  match dep with
                  | Some d when (not force) && R.Cell.get d.state <> st_complete
                    ->
                      Some (w, dep)
                  | _ -> (
                      match
                        try_advance t stat local None ~depth:0 ~mine:true w
                      with
                      | Done ->
                          progressed := true;
                          None
                      | Busy -> Some (w, None)
                      | Blocked_by d -> Some (w, Some d)
                      | Parked -> assert false))
                !pending;
            !progressed
          in
          let idx = ref (lo + me) in
          while !idx <= hi do
            let w = wrapped.(!idx) in
            if my_home w then begin
              note w (try_advance t stat local None ~depth:0 ~mine:true w);
              (* Keep dependency chains moving: anything whose dependency
                 has since completed is finished before taking on new
                 work. *)
              if !pending <> [] then ignore (sweep ~force:false)
            end;
            idx := !idx + k
          done;
          (* Drain the retry list with exponential back-off: a thread whose
             whole list is blocked on another thread's in-flight transaction
             stops burning (simulated and real) cycles re-polling it. The
             force sweep makes an all-blocked pass re-execute every entry's
             logic against the same unfilled versions — cheap on the narrow
             pools this path serves, where the re-run logic's lines are
             still in the retrier's cache (see [park_min_execs]). *)
          let backoff = Sync.Backoff.create () in
          while !pending <> [] do
            if sweep ~force:false || sweep ~force:true then
              Sync.Backoff.reset backoff
            else Sync.Backoff.once backoff
          done
      | Some wk ->
          (* Wakeup mode: blocked transactions park a waiter on the version
             they need and are re-delivered through this thread's ready
             queue by whichever thread fills it — one re-attempt per
             resolved dependency instead of polling. The bookkeeping below
             is host-side and uncharged: [done_mark]/[remaining] track
             which of this thread's own stripe has been seen complete
             (guarding against double counts from stale wakeups), [busy]
             holds transactions last seen claimed by another thread — the
             one state with nobody obliged to notify us, so it is the one
             list still polled. *)
          wk.wk_parked <- [];
          let span = hi - lo in
          let done_mark = Array.make (span + 1) false in
          let remaining = ref 0 in
          let off = ref me in
          while !off <= span do
            if my_home wrapped.(lo + !off) then incr remaining;
            off := !off + k
          done;
          let busy = ref [] in
          let note idx outcome =
            match outcome with
            | Done ->
                let o = idx - lo in
                if
                  o >= 0 && o <= span
                  && o mod k = me
                  && my_home wrapped.(idx)
                  && not done_mark.(o)
                then begin
                  done_mark.(o) <- true;
                  decr remaining
                end
            | Busy -> busy := idx :: !busy
            | Parked | Blocked_by _ -> ()
          in
          (* Drive any transaction by run index — wakeups can deliver
             stolen or earlier-batch transactions too; [note] ignores those
             for this batch's accounting. *)
          let drive idx =
            note idx
              (try_advance t stat local wake ~depth:0
                 ~mine:(idx mod bs mod k = me && my_home wrapped.(idx))
                 wrapped.(idx))
          in
          let drain_queue () =
            match Sync.Mpsc.drain wk.wk_queues.(gme) with
            | [] -> false
            | ready ->
                List.iter drive ready;
                true
          in
          (* Opportunistic self-service of parked registrations: watch
             the blocking versions' data lines (cached reads while
             unchanged) and race the filler for the claim token the
             moment one fills. Winning means no wakeup is coming — drive
             the transaction here; losing (or finding the token consumed)
             means a wakeup is queued, so just drop the watch. *)
          let poll_parked () =
            match wk.wk_parked with
            | [] -> false
            | entries ->
                (* Partition first, drive after: a drive can re-park its
                   transaction, which appends to [wk_parked] — mutating
                   the list mid-iteration would lose that entry (and with
                   it the transaction). *)
                let ready = ref [] and kept = ref [] in
                List.iter
                  (fun ((idx, (wt : V.waiter), bv) as entry) ->
                    if R.Cell.get wt.V.w_claimed = 1 then
                      (* Token consumed: the filler either completed the
                         transaction itself (continuation helping — no
                         push in that case, this poll is the owner's
                         notification), queued a push (re-drive is
                         claim-protected), or is mid-drive ([drive]
                         files it on the busy list). *)
                      ready := idx :: !ready
                    else if R.Cell.get (V.data_cell bv) = None then
                      kept := entry :: !kept
                    else begin
                      (* Fill observed before any wakeup: race the filler
                         for the token; whoever wins, the transaction is
                         ready to re-attempt now. *)
                      ignore (R.Cell.cas wt.V.w_claimed 0 1);
                      ready := idx :: !ready
                    end)
                  entries;
                wk.wk_parked <- !kept;
                List.iter drive (List.rev !ready);
                !ready <> []
          in
          let poll_busy () =
            match !busy with
            | [] -> false
            | entries ->
                Obs.Metrics.incr stat.es_ms Obs.Metrics.exec_retry_scans;
                (match stat.exec_obs with
                | Some ob ->
                    Obs.Buf.instant ob.ob_buf ~name:"retry_scan" ~batch:b
                      ~ts:(R.now_ns ())
                | None -> ());
                busy := [];
                List.iter drive (List.rev entries);
                List.length !busy < List.length entries
          in
          let idx = ref (lo + me) in
          while !idx <= hi do
            if my_home wrapped.(!idx) then begin
              drive !idx;
              (* Serve wakeups between dispatches to keep dependency
                 chains moving, mirroring the retry path's mid-pass
                 sweep. *)
              ignore (drain_queue ())
            end;
            idx := !idx + k
          done;
          (* Wait out the stripe: every incomplete own transaction is
             either on the busy list (claimed elsewhere — polled) or parked
             with a wakeup guaranteed to arrive on our queue. A quiet pass
             helps the batch through one steal scan, then charges one
             capped back-off. *)
          let backoff = Sync.Backoff.create () in
          while !remaining > 0 do
            let progressed = drain_queue () in
            let progressed = poll_parked () || progressed in
            let progressed = poll_busy () || progressed in
            let progressed = progressed || steal_pass ~bounded:true in
            if progressed then Sync.Backoff.reset backoff
            else Sync.Backoff.once backoff
          done);
      ignore (steal_pass ~bounded:false);
      (match stat.exec_obs with
      | Some ob ->
          let ts = R.now_ns () in
          (* Per-thread commit delta for this batch; the timeline sums
             the instants across execution tracks. *)
          Obs.Buf.instant ob.ob_buf ~name:"batch_commit" ~batch:b
            ~value:(stat.committed - obs_c0) ~ts;
          Obs.Buf.end_span ob.ob_buf ~ts
      | None -> ());
      R.Cell.set exec_progress.(gme) (b + 1);
      if sh.sh_n = 1 then begin
        if me = 0 then publish_low_watermark ()
      end
      else begin
        (* Batch-amortized cross-shard commit: thread 0 is the shard's
           voter. It waits for its shard mates to clear batch [b] (a
           one-thread soft barrier — the mates run ahead speculatively,
           which determinism makes safe: the merged decision is a pure
           function of the shared log, so execution never has to wait
           for it), publishes the shard's ready/abort for [b], then
           reads and merges every peer's vote, paying one
           [Costs.shard_vote] per peer. The merge input — all shards'
           votes for [b] — is identical everywhere, so every shard
           reaches the same decision with no coordinator. *)
        if me = 0 then begin
          let base = sh.sh_id * k in
          for e = 0 to k - 1 do
            Sync.spin_until (fun () ->
                R.Cell.get exec_progress.(base + e) >= b + 1)
          done;
          let injected =
            match t.lost_vote with
            | Some (ls, lb) -> ls = sh.sh_id && lb = b
            | None -> false
          in
          let local_ready = not injected in
          (* An injected fault models the abort vote lost in transit:
             the shard records its local abort but peers see ready. *)
          let published_abort = if injected then false else not local_ready in
          Sync.Votes.publish sh.sh_votes ~party:sh.sh_id ~round:b
            ~abort:published_abort;
          let obs_t0 =
            match stat.exec_obs with
            | None -> 0
            | Some ob ->
                let ts = R.now_ns () in
                Obs.Buf.begin_span ob.ob_buf ~phase:"shard_vote" ~batch:b
                  ~ts;
                ts
          in
          (* Merge over *published* votes — under the lost-vote fault
             the local abort never reaches the board, so every shard
             (this one included) merges commit and the vote log records
             the disagreement the checker must catch. *)
          let merged_commit = ref (not published_abort) in
          for p = 0 to sh.sh_n - 1 do
            if p <> sh.sh_id then begin
              R.work !Bohm_runtime.Costs.shard_vote;
              if Sync.Votes.await sh.sh_votes ~party:p ~round:b then
                merged_commit := false
            end
          done;
          (match stat.exec_obs with
          | None -> ()
          | Some ob ->
              let t1 = R.now_ns () in
              Obs.Buf.end_span ob.ob_buf ~ts:t1;
              Obs.Latency.add ob.ob_lat Obs.Latency.Shard_vote (t1 - obs_t0));
          sh.sh_vote_local.(b) <- local_ready;
          sh.sh_vote_merged.(b) <- !merged_commit;
          if sh.sh_id = 0 then publish_low_watermark ()
        end
      end
    done

  (* --- Driver --- *)

  (* One driver for every shard count: [shards] complete pipelines over
     the same shared input log, [shards = 1] being the single-pipeline
     engine. Everything per-shard is instantiated [shards] times —
     preprocessor team, CC barrier and watermarks, routing buffers, steal
     cursors, stat blocks, vote-log rows — while the wrapper array, the
     exec progress counters, the ready queues and the GC low watermark
     stay global: cross-shard transactions read remote versions and park
     on remote producers through exactly the single-pipeline protocols.
     Commit is the per-batch vote round in [exec_loop], which only runs
     with more than one shard. *)
  let run t txns =
    let n = Array.length txns in
    let bs = t.config.Config.batch_size in
    let n_batches = (n + bs - 1) / bs in
    let m = t.config.Config.cc_threads and k = t.config.Config.exec_threads in
    let shards = t.config.Config.shards in
    (* Observability. All tracks are created here, on the driver thread,
       before any worker spawns — the registry is unsynchronized — and
       every emission below is host-side (uncharged [now_ns] samples into
       plain buffers), so an observed run replays the unobserved schedule
       bit-for-bit. Track names carry an [s<shard>/] prefix only when
       there is more than one shard. *)
    let recorder =
      if t.config.Config.obs then Obs.Recorder.current () else None
    in
    let track s name =
      match recorder with
      | None -> None
      | Some r ->
          let name =
            if shards = 1 then name else Printf.sprintf "s%d/%s" s name
          in
          Some (Obs.Recorder.track r ~name)
    in
    let obs_run_start = match recorder with None -> 0 | Some _ -> R.now_ns () in
    (* One CC-publication stamp array per shard: each shard's partition 0
       stamps its own [cc_done] edge, and each shard's execution threads
       anchor their latency decomposition on their own shard's stamps. *)
    let obs_cc_pub =
      Array.init shards (fun _ ->
          match recorder with
          | None -> [||]
          | Some _ -> Array.make (max 1 n_batches) 0)
    in
    let driver_buf =
      match recorder with
      | None -> None
      | Some r -> Some (Obs.Recorder.track r ~name:"driver")
    in
    (match driver_buf with
    | Some buf ->
        Obs.Buf.begin_span buf ~phase:"sequence" ~batch:0 ~ts:(R.now_ns ())
    | None -> ());
    let wrapped = Array.mapi (wrap t) txns in
    t.next_ts <- t.next_ts + n;
    (match driver_buf with
    | Some buf -> Obs.Buf.end_span buf ~ts:(R.now_ns ())
    | None -> ());
    let barriers = Array.init shards (fun _ -> Sync.Barrier.create ~parties:m) in
    let pre_dones = Array.init shards (fun _ -> Sync.Watermark.create (-1)) in
    let cc_dones = Array.init shards (fun _ -> Sync.Watermark.create (-1)) in
    let votes = Sync.Votes.create ~parties:shards ~rounds:n_batches in
    let vote_local = Array.make_matrix shards (max 1 n_batches) false in
    let vote_merged = Array.make_matrix shards (max 1 n_batches) false in
    let ctxs =
      Array.init shards (fun s ->
          {
            sh_id = s;
            sh_n = shards;
            sh_owns =
              (if shards = 1 then fun _ -> true
               else fun k -> Key.shard_of ~shards k = s);
            sh_votes = votes;
            sh_vote_local = vote_local.(s);
            sh_vote_merged = vote_merged.(s);
          })
    in
    (* Progress counters are read across threads without further
       coordination (the GC low-watermark protocol, §3.3.2) — they carry
       the publication edges, so they are synchronization cells too. *)
    let sync_cell () =
      let c = R.Cell.make 0 in
      R.Cell.mark_sync c;
      c
    in
    let low_watermark = sync_cell () in
    let exec_progress = Array.init (shards * k) (fun _ -> sync_cell ()) in
    (* Per-shard, per-batch steal cursors, read/CASed across execution
       threads without other ordering. A cursor summarizes "nothing left
       for this shard's sweepers below", which is meaningless across
       shards. *)
    let steal_cursors =
      Array.init shards (fun _ -> Array.init n_batches (fun _ -> sync_cell ()))
    in
    (* Routing buffers exist only with preprocessing, which fills them;
       without it every CC thread scans the batch. *)
    let routes =
      Array.init shards (fun _ ->
          if not t.config.Config.preprocess then None
          else
            Some
              (Array.init n_batches (fun _ ->
                   Array.init (m + k) (fun _ -> Array.make m [||]))))
    in
    (* Per-batch partition-map versions per shard, pre-initialized to the
       static map (= [Key.hash k mod m]); worker 0 of a shard's
       preprocessing team overwrites later slots when a rebalance
       publishes. Each shard rebalances from its own measured occupancy —
       shard key spaces are disjoint, so there is nothing to coordinate
       between the per-shard rebalancers. *)
    let maps =
      Array.init shards (fun _ ->
          Array.make (max 1 n_batches) (Partition_map.static ~parts:m))
    in
    let rebal =
      Array.init shards (fun _ ->
          if rebalance_on t then
            Some (rebal_make ~workers:(m + k) ~parts:m ~n_batches)
          else None)
    in
    let cc_stats =
      Array.init (shards * m) (fun gp ->
          let s = gp / m and j = gp mod m in
          {
            inserted = 0;
            cc_ms = Obs.Metrics.shard ();
            (* Slab owner ids are global partition ids, unique across
               shards, so the arena-discipline audit keeps one owner per
               chain. *)
            alloc = V.alloc_make ~shared:(rebalance_on t) ~owner:gp ();
            cc_obs = track s (Printf.sprintf "cc-%d" j);
            cc_obs_pub = (if j = 0 then obs_cc_pub.(s) else [||]);
          })
    in
    let exec_stats =
      Array.init (shards * k) (fun ge ->
          let s = ge / k and e = ge mod k in
          {
            committed = 0;
            logic_aborts = 0;
            es_ms = Obs.Metrics.shard ();
            exec_obs =
              Option.map
                (fun buf ->
                  {
                    ob_buf = buf;
                    ob_lat = Obs.Latency.create ();
                    ob_cc_pub = obs_cc_pub.(s);
                    ob_run_start = obs_run_start;
                  })
                (track s (Printf.sprintf "exec-%d" e));
          })
    in
    (* Fill-triggered wakeup infrastructure: one MPSC ready queue per
       execution thread, indexed by global exec id — a filler on the
       producing shard wakes the parked reader wherever it lives.
       Creation is free in the cost model.

       The execution pool's width selects the path; there is no flag.
       Parking engages only when the per-shard pool is at least
       [park_min_execs] wide; below that the engine keeps the retry
       discipline — an adaptive spin-then-park policy, decided statically
       per run because the pool size is fixed. The crossover is
       structural, not a tuning artifact: a park/wake hand-off costs ~6
       RMWs on contended lines (mask, list CAS, seal, claim token,
       ready-queue push/drain — roughly 3k cycles), while re-running
       blocked transaction logic against lines already in the retrier's
       cache costs a few hundred. With one or two exec threads the ready
       work is consumed as fast as it is produced and the hand-off can
       never amortize. The recorded sweep on the high-contention fig4
       workload (theta 0.9, 8-byte records, CC=4; [BENCH_PR4.json] and
       the historical wakeup-vs-retry table in EXPERIMENTS.md) puts the
       crossover between 4 and 8 exec threads: +16.7% for parking at 8,
       +5-8% at 12-20. The conservative measured edge is used. The
       [k <= 1] case is also a correctness argument, not just a cost
       one: a single execution thread completes every batch in timestamp
       order behind the CC watermark, so a needed version's producer has
       always finished and no attempt can ever block. *)
    let park_min_execs = 8 in
    let wake_parts =
      if k < park_min_execs then None
      else Some (Array.init (shards * k) (fun _ -> Sync.Mpsc.create ()))
    in
    let timings =
      Array.init shards (fun _ -> { cc_batch0_start = 0.; pre_complete = 0. })
    in
    let start = R.now () in
    (* All three stages run concurrently, pipelined per batch: the
       preprocessors publish batch [b] through [pre_done], CC threads
       consume it and publish through [cc_done], execution threads consume
       that — so preprocessing of batch [b+1] overlaps CC of batch [b]
       overlaps execution of batch [b-1]. *)
    (* One rebalance-latency recorder per shard, held by that shard's
       preprocessing worker 0 (the sole publisher). *)
    let pre_lats =
      Array.init shards (fun _ ->
          match recorder with
          | None -> None
          | Some _ -> Some (Obs.Latency.create ()))
    in
    let per_shard f = List.concat (List.init shards f) in
    let pre_threads =
      per_shard (fun s ->
          match routes.(s) with
          | None -> []
          | Some routes_s ->
              let workers = m + k in
              let pre_bufs =
                Array.init workers (fun me ->
                    track s (Printf.sprintf "pre-%d" me))
              in
              let pre_barrier = Sync.Barrier.create ~parties:workers in
              List.init workers (fun me ->
                  R.spawn (fun () ->
                      preprocess_loop t ctxs.(s) wrapped me workers pre_barrier
                        pre_dones.(s) timings.(s) routes_s maps.(s) rebal.(s)
                        pre_bufs.(me)
                        (if me = 0 then pre_lats.(s) else None)
                        n_batches)))
    in
    let cc_threads =
      per_shard (fun s ->
          List.init m (fun j ->
              R.spawn (fun () ->
                  cc_loop t ctxs.(s) j
                    cc_stats.((s * m) + j)
                    low_watermark barriers.(s) pre_dones.(s) cc_dones.(s)
                    timings.(s) wrapped routes.(s) n_batches)))
    in
    let exec_threads =
      per_shard (fun s ->
          List.init k (fun e ->
              R.spawn (fun () ->
                  exec_loop t ctxs.(s) e
                    exec_stats.((s * k) + e)
                    exec_progress low_watermark cc_dones wrapped
                    steal_cursors.(s) wake_parts n_batches)))
    in
    List.iter R.join pre_threads;
    List.iter R.join cc_threads;
    List.iter R.join exec_threads;
    let elapsed = R.now () -. start in
    let rebals = List.filter_map Fun.id (Array.to_list rebal) in
    t.pmap_log <- (if rebals = [] then [||] else maps);
    t.votes_log <-
      (if shards = 1 then []
       else
         per_shard (fun s ->
             List.init n_batches (fun b ->
                 (s, b, vote_local.(s).(b), vote_merged.(s).(b)))));
    let sum f arr = Array.fold_left (fun acc s -> acc + f s) 0 arr in
    let committed = sum (fun s -> s.committed) exec_stats in
    let logic_aborts = sum (fun s -> s.logic_aborts) exec_stats in
    let latency =
      match recorder with
      | None -> []
      | Some _ ->
          Obs.Latency.merge_all
            ((Array.to_list exec_stats
             |> List.filter_map (fun s ->
                    Option.map (fun o -> o.ob_lat) s.exec_obs))
            @ List.filter_map Fun.id (Array.to_list pre_lats))
    in
    (* Extras go through the typed metrics sheet: per-thread counter
       shards summed at this (post-join) barrier, run-level gauges set
       here. [to_extra] emits exactly the selected keys. *)
    let sheet =
      Obs.Metrics.collect
        ~select:
          Obs.Metrics.
            [ gc_collected; dep_blocks; steals; exec_retry_scans; wakeups ]
        (Array.to_list (Array.map (fun s -> s.cc_ms) cc_stats)
        @ Array.to_list (Array.map (fun s -> s.es_ms) exec_stats))
    in
    Obs.Metrics.seti sheet Obs.Metrics.slabs_opened
      (sum (fun s -> V.slabs_opened s.alloc) cc_stats);
    Obs.Metrics.seti sheet Obs.Metrics.slabs_retired
      (sum (fun s -> V.slabs_retired s.alloc) cc_stats);
    if shards > 1 then begin
      Obs.Metrics.seti sheet Obs.Metrics.cross_shard_txns
        (sum (fun w -> if multi_shard w then 1 else 0) wrapped);
      Obs.Metrics.seti sheet Obs.Metrics.shard_votes (shards * n_batches);
      Obs.Metrics.seti sheet Obs.Metrics.vote_aborts
        (sum (sum (fun c -> if c then 0 else 1)) vote_merged)
    end;
    (* Microseconds: virtual times are sub-millisecond, and the harness
       prints extras rounded to integers. *)
    Obs.Metrics.set sheet Obs.Metrics.cc_batch0_start_us
      (timings.(0).cc_batch0_start *. 1e6);
    Obs.Metrics.set sheet Obs.Metrics.pre_complete_us
      (timings.(0).pre_complete *. 1e6);
    rebal_metrics sheet rebals;
    Stats.make ~txns:n ~committed ~logic_aborts ~cc_aborts:0 ~elapsed ~latency
      ~extra:(Obs.Metrics.to_extra sheet) ()

  (* --- Inspection --- *)

  (* Post-quiescence chain audit: BOHM stamps both begin and end times, so
     every link is checked — strict timestamp descent, end = successor's
     begin, head never invalidated, and (the §3.3.1 guarantee) no
     placeholder left unfilled. Runs uncharged on the driver thread after
     [run] has joined the workers. *)
  let check_chains t report =
    let shards = Array.length t.stores in
    let m = t.config.Config.cc_threads in
    R.without_cost (fun () ->
        Array.iteri
          (fun s store ->
            (* When the last run rebalanced adaptively, a key's legal
               slab owner is per-batch: the global partition id its
               shard's map version assigned at that batch. The audit
               then checks each entry against the map pinned to the
               entry's batch instead of the one-owner-per-chain
               discipline. *)
            let owner_of_key =
              if Array.length t.pmap_log = 0 then fun _ -> None
              else
                let maps = t.pmap_log.(s) in
                let last = Array.length maps - 1 in
                fun k ->
                  let h = Key.hash k in
                  Some
                    (fun b ->
                      (s * m)
                      + Partition_map.partition_of_hash maps.(min b last) h)
            in
            Store.iter store (fun k slot ->
                (* Every per-shard store indexes the full key space; only
                   the owning shard's chain for a key ever grows, so audit
                   each key once, in its owner. *)
                if shards = 1 || Key.shard_of ~shards k = s then
                  let rec entries v acc =
                    let e =
                      Bohm_analysis.Chain.entry ~begin_ts:(V.begin_ts v)
                        ~end_ts:(Some (V.get_end_ts v))
                        ~filled:(R.Cell.get (V.data_cell v) <> None)
                        ~dangling_waiters:(V.unclaimed_waiters v)
                        ?slab:(V.slab_coord v) ?batch:(V.slab_batch v) ()
                    in
                    match V.prev v with
                    | None -> List.rev (e :: acc)
                    | Some older -> entries older (e :: acc)
                  in
                  Bohm_analysis.Chain.check_key report ?owner_of:(owner_of_key k)
                    k
                    (entries (R.Cell.get slot) [])))
          t.stores)

  (* Fault injection for the sanitizer's mutation tests: clear the newest
     version's data for [k], simulating an execution thread that claimed
     the producing transaction but never ran [install] — the dropped
     declared write / unfilled placeholder the §3.3.1 copy-forward rule
     normally makes impossible, and exactly what the chain audit exists to
     catch. Never called outside tests. *)
  let inject_lost_fill t k =
    R.without_cost (fun () ->
        R.Cell.set (V.data_cell (R.Cell.get (Store.get (store_for t k) k))) None)

  (* Fault injection for the sanitizer's mutation tests: rewire the newest
     version of [k]'s prev link to the newest version of [donor] — a
     cross-partition (hence cross-owner, cross-slab) pointer the
     bump-allocation discipline makes impossible, modelling arena
     corruption (a stale or miscomputed slab index). Only the slab-aware
     chain audit can see it. Never called outside tests. *)
  let inject_cross_slab_prev t k ~donor =
    R.without_cost (fun () ->
        let v = R.Cell.get (Store.get (store_for t k) k) in
        let d = R.Cell.get (Store.get (store_for t donor) donor) in
        V.unsafe_set_prev v (Some d))

  (* Fault injection for the sanitizer's mutation tests: register a waiter
     record on the newest version of [k] and never wake it, simulating a
     filler that sealed without draining (or never sealed) — the lost
     wakeup the dangling-waiter audit exists to catch. Requires the head's
     list to be unsealed (head was filled without waiter traffic, the
     common quiescent state). Never called outside tests. *)
  let inject_dangling_waiter t k =
    R.without_cost (fun () ->
        let v = R.Cell.get (Store.get (store_for t k) k) in
        match V.register_waiter v (V.make_waiter ~owner:0 ~batch:0 ~index:0) with
        | `Registered -> ()
        | `Sealed ->
            invalid_arg "Bohm: inject_dangling_waiter: head version sealed")

  let read_latest t k =
    let head = R.Cell.get (Store.get (store_for t k) k) in
    let rec newest v =
      match R.Cell.get (V.data_cell v) with
      | Some value -> value
      | None -> (
          match V.prev v with
          | Some prev -> newest prev
          | None -> raise Not_found)
    in
    newest head

  let chain_length t k = V.chain_length (R.Cell.get (Store.get (store_for t k) k))

  let inject_lost_vote t ~shard ~batch =
    if t.config.Config.shards = 1 then
      invalid_arg "Bohm: inject_lost_vote: a one-shard engine has no vote round";
    if shard < 0 || shard >= t.config.Config.shards then
      invalid_arg "Bohm: inject_lost_vote: shard out of range";
    if batch < 0 then invalid_arg "Bohm: inject_lost_vote: negative batch";
    t.lost_vote <- Some (shard, batch)

  let vote_log t = t.votes_log
end
