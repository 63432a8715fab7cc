(** Uniform driver over the five engines, instantiated on the simulator.

    The benchmark harness compares engines at equal {e total} thread
    (core) counts, as the paper does. BOHM divides its threads between the
    concurrency-control and execution layers ({!bohm_opts.cc_fraction});
    all other engines use every thread as a worker. *)

type engine = Bohm | Hekaton | Si | Occ | Twopl | Mvto

val all : engine list
(** In the paper's legend order: 2PL, BOHM, OCC, SI, Hekaton. [Mvto] is
    the extra §2.2 strawman and is excluded — the figure drivers iterate
    [all], and the paper does not measure MVTO. *)

val name : engine -> string

type spec = {
  tables : Bohm_storage.Table.t array;
  init : Bohm_txn.Key.t -> Bohm_txn.Value.t;
}

type bohm_opts = {
  cc_fraction : float;  (** Fraction of threads given to the CC layer. *)
  batch_size : int;
  shards : int;
      (** Number of complete per-shard pipelines ([Config.shards]). The
          [threads] argument of the drivers is {e per shard}: each shard
          gets its own CC/exec split of that many threads. *)
  gc : bool;
  read_annotation : bool;
  preprocess : bool;
      (** Pipelined §3.2.2 preprocessing stage, which also feeds the
          batch-routed CC dispatch. *)
  cc_rebalance : bool;
      (** Adaptive CC repartitioning ([Config.cc_rebalance]): inert
          without [preprocess]; off pins the static hash assignment. *)
  obs : bool;
      (** [Config.obs]: lets BOHM emit into an installed
          {!Bohm_obs.Recorder}. {!run_sim_obs} forces it on. *)
}

val default_bohm_opts : bohm_opts
(** cc_fraction 0.25, batch 1000, one shard, gc on, annotation on,
    preprocessing off, rebalancing on (inert while preprocessing is off),
    observability off. *)

val run_sim :
  ?bohm:bohm_opts -> engine -> threads:int -> spec -> Bohm_txn.Txn.t array ->
  Bohm_txn.Stats.t
(** One complete simulated run: fresh database, all transactions, stats.
    Deterministic. *)

val run_sim_obs :
  ?bohm:bohm_opts ->
  engine ->
  threads:int ->
  spec ->
  Bohm_txn.Txn.t array ->
  Bohm_txn.Stats.t * Bohm_obs.Recorder.t
(** {!run_sim} with the observability layer on: installs a fresh
    {!Bohm_obs.Recorder} for the duration of the run (and forces
    [bohm.obs]), so every engine emits phase spans, instant events and
    per-transaction latency histograms. Returns the stats — whose
    [latency] field is now populated — together with the recorder holding
    the per-thread tracks, ready for {!Bohm_obs.Chrome} export. The
    simulated schedule, virtual clock and stats are identical to the
    unobserved run: recording is host-side and reads only the uncharged
    [now_ns] clock. *)

val run_sim_sanitized :
  ?bohm:bohm_opts ->
  engine ->
  threads:int ->
  spec ->
  Bohm_txn.Txn.t array ->
  Bohm_txn.Stats.t * Bohm_analysis.Report.t
(** {!run_sim} with the full sanitizer suite enabled: every transaction's
    logic runs under the {!Bohm_analysis.Footprint} shim, the whole
    simulation is traced by the {!Bohm_analysis.Race} detector, and the
    engine's version-chain audit runs at quiescence. The simulated
    execution — schedule, virtual clock, stats — is identical to the
    unsanitized run: the checkers only observe, they never charge. *)

val run_bohm_sim :
  cc:int ->
  exec:int ->
  ?batch:int ->
  ?shards:int ->
  ?gc:bool ->
  ?annotate:bool ->
  ?preprocess:bool ->
  ?cc_rebalance:bool ->
  spec ->
  Bohm_txn.Txn.t array ->
  Bohm_txn.Stats.t
(** Explicit CC/exec split, for the Figure 4 module-interaction experiment
    and the ablations. *)
