(** BOHM engine configuration.

    The division of cores between concurrency-control and execution threads
    is the administrator-tuned parameter the paper studies in Figure 4; the
    batch size is the coordination-amortization knob of §3.2.4. *)

type t = private {
  cc_threads : int;  (** Version-insertion threads (partitioned by key hash). *)
  exec_threads : int;  (** Transaction-logic threads. *)
  batch_size : int;  (** Transactions per coordination epoch. *)
  shards : int;
      (** Number of shards. Each shard is a complete BOHM pipeline —
          preprocessor slice, [cc_threads] CC partitions, [exec_threads]
          execution threads, its own version store — and keys are mapped
          to shards by {!Bohm_txn.Key.shard_of}, layered above the
          per-shard [key -> cc-partition] hash. All shards sequence the
          same shared input log into the same global epochs
          (batch-aligned deterministic sequencing), and every batch
          commits via one deterministic vote round between the shards.
          [shards = 1] (the default) is the one-pipeline case of the same
          driver: no vote round, no shard-prefixed tracks, no shard
          extras. *)
  gc : bool;  (** Condition-3 batch garbage collection (§3.3.2). *)
  read_annotation : bool;
      (** The read-set optimization of §3.2.3: CC threads stamp each
          transaction with references to the exact versions it must read,
          so execution never walks version chains. *)
  preprocess : bool;
      (** The §3.2.2 Amdahl workaround: a parallel pre-processing pass
          computes, per transaction, exactly which footprint entries each
          CC thread owns, so CC threads no longer scan every
          transaction. The sweep also resolves each footprint key's
          storage slot (one index probe per key per transaction) and
          emits per-(batch, partition) routing buffers, so each CC thread
          iterates only the transactions owning something in its
          partition. Pipelined per batch: preprocessing of batch [b+1]
          overlaps concurrency control of batch [b]. *)
  cc_rebalance : bool;
      (** Adaptive CC repartitioning. With [preprocess], the
          key→CC-partition assignment becomes an epoch-versioned
          {!Bohm_core.Partition_map} instead of the fixed
          [Key.hash k mod cc_threads]: the preprocessing sweep measures
          per-segment occupancy, and between batches the map is
          rebalanced by a greedy bin-pack of the hottest hash segments
          onto the least-loaded partitions (hysteresis so uniform
          workloads never churn). A new map version is published at the
          preprocessing batch barrier with a two-batch lag; every
          pipeline stage reads the map version pinned to its batch, so
          in-flight batches stay consistent. When the map never changes
          (uniform load, or this flag off) the engine's schedule is
          bit-for-bit the static-hash schedule. Without [preprocess]
          this flag is inert. Off replays the static modulo for the
          [ablation-cc-rebalance] bench. *)
  obs : bool;
      (** Observability ([Bohm_obs]): when set {e and} a
          [Bohm_obs.Recorder] is installed, the engine emits pipeline
          phase spans and instant events onto per-thread tracks and
          records per-transaction latency histograms into
          [Stats.latency]. Recording is host-side only — it reads the
          runtime's uncharged [now_ns] clock and never touches a
          [Cell] — so an observed simulation reproduces the unobserved
          virtual-clock schedule bit-for-bit. Off (the default): no
          timestamps are read and no events recorded. *)
}

val make :
  ?cc_threads:int ->
  ?exec_threads:int ->
  ?batch_size:int ->
  ?shards:int ->
  ?gc:bool ->
  ?read_annotation:bool ->
  ?preprocess:bool ->
  ?cc_rebalance:bool ->
  ?obs:bool ->
  unit ->
  t
(** Defaults: 2 CC threads, 2 exec threads, batch of 1000, 1 shard, GC
    on, read annotation on, preprocessing off,
    CC rebalancing on (inert without preprocessing), observability
    off. Raises [Invalid_argument] on non-positive thread
    counts, batch size or shard count, or on more than 62 shards (owner
    sets are bitmasks in one OCaml int). *)

val pp : Format.formatter -> t -> unit
