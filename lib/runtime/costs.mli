(** Cost model of the simulated multicore machine, in CPU cycles.

    The constants are mutable so the benchmark harness and the ablation
    benches can explore sensitivity; {!defaults} restores the published
    configuration. The defaults are calibrated against the qualitative
    behaviour of the paper's 4-socket Intel E7-8850 testbed: an uncontended
    atomic RMW costs tens of cycles; a line bouncing between sockets costs
    hundreds; a long-untouched line costs a DRAM access. Those facts alone
    produce the global-counter plateau of Hekaton/SI (paper §4.2.2).

    A line is {e hot} when its last write completed within
    {!recency_window} cycles — approximating "still dirty in another
    core's cache". *)

val cache_hit : int ref
(** Load of a line this thread owns or that is in shared state. *)

val dram_read : int ref
(** Load of a cold (long-untouched) line. *)

val coherence_read : int ref
(** Load of a line another core wrote recently (cache-to-cache). *)

val store_owned : int ref
(** Store to a line this thread already owns exclusively. *)

val dram_write : int ref
(** Ownership acquisition of a cold line. *)

val line_transfer : int ref
(** Ownership acquisition of a hot line (modified in another cache). Hot
    cells hammered by RMWs serialize at [atomic_rmw + line_transfer] per
    operation — the hard ceiling of a global counter. *)

val atomic_rmw : int ref
(** Base cost of an atomic read-modify-write, before transfer penalties. *)

val relax_base : int ref
(** One spin-loop iteration (pause + reload). *)

val bytes_per_cycle : int ref
(** Memory-copy bandwidth used by {!Runtime_intf.S.copy}. *)

val spawn_cost : int ref
(** Thread start-up charge. *)

val recency_window : int ref
(** Cycles after a write during which the line counts as hot. *)

(** {2 Batch-routed concurrency control}

    Work charges for the dense-dispatch path (the BOHM engine with
    [Config.preprocess] on). Without preprocessing every CC thread scans
    {e every} transaction of a batch — loading the wrapper and its whole
    footprint just to discover the partition owns nothing. The routed
    path iterates a dense array of owning transaction indices instead,
    and pays for building that array where the work is embarrassingly
    parallel: in the preprocessing stage. *)

val cc_routed_dispatch : int ref
(** Per routed transaction in a CC thread: one dense-array read plus the
    wrapper load. Non-owning transactions are never touched and there is
    no ownership test on the hot path. *)

val cc_route_append : int ref
(** Preprocessing charge per (transaction, owning partition) pair: one
    append of the transaction index into a partition-local segment. *)

val cc_route_merge : int ref
(** CC-thread charge per routed entry when a partition's per-preprocessor
    segments are merged (ascending, preserving timestamp order) into the
    dense slice the thread then iterates. *)

(** {2 Slab-arena version store}

    Work charges for the BOHM engine's version store. Versions live in per-(CC-thread, batch) arena slabs: a
    placeholder is a bump-pointer append into the owning thread's current
    slab, with the hot fields (begin/end timestamps, the slab-relative
    prev index) packed eight entries per cache line in struct-of-arrays
    columns. The line accesses themselves are charged by the runtime as
    usual — one line-cell per eight entries, which is exactly the
    amortization the layout buys — and these constants cover the
    bookkeeping the cell model does not see. *)

val cc_insert_slab : int ref
(** Version-insert work when the placeholder is bump-allocated into the
    CC thread's current slab: the fill-cursor increment and column
    addressing, beyond the charged column-line writes: no allocator
    visit, no record initialization. *)

val cc_rebalance : int ref
(** Charged once by preprocessing worker 0 each time an adaptive CC
    repartition actually publishes a new partition-map epoch: summing
    the per-segment occupancy counters, the greedy segment bin-pack,
    and the map publication at the batch barrier. Evaluation that
    leaves the map unchanged charges nothing, so a workload uniform
    enough that the hysteresis never fires replays the static-hash
    schedule bit-for-bit. *)

val slab_retire : int ref
(** Per slab returned to the arena when Condition-3 GC drops its live
    count to zero: unlinking the slab and making its storage reusable.
    Paid once per slab — per {e batch} of versions; the GC walk itself
    charges one column-line read per eight versions. *)

(** {2 Fill-triggered dependency wakeup}

    Work charges for the BOHM execution layer's waiter protocol, which
    runs when the per-shard execution pool is at least eight threads
    wide. The cell operations of the
    protocol — the waiter-list CAS, the signal counter RMWs, the ready-queue
    push — are charged by the runtime as usual; these constants cover the
    surrounding bookkeeping (allocating and linking the waiter record,
    formatting the wakeup, saving/abandoning the execution attempt) that the
    cell model does not see. *)

val exec_waiter_register : int ref
(** Per waiter registration in a blocked execution thread: building the
    (thread, batch, txn) waiter record and linking it, beyond the charged
    list CAS and signal increment. *)

val exec_wake_push : int ref
(** Per wakeup a filling thread pushes: claiming the waiter record and
    enqueueing the ready transaction index, beyond the charged claim CAS
    and queue CAS. *)

val exec_park : int ref
(** Per park: abandoning the execution attempt after the waiter is safely
    published (the thread returns to its queue/poll loop instead of
    re-running logic). *)

(** {2 Multi-shard commit}

    Work charges for the cross-shard paths of the sharded BOHM engine
    ([Config.shards] > 1). Single-shard transactions never pay either
    charge — they ride the shard-local input log and the shard-local
    batch barrier exactly as in the single-pipeline engine. *)

val shard_route : int ref
(** Per footprint entry of a {e multi-shard} transaction that an owning
    shard receives during sequencing/preprocessing: unpacking the routed
    slice of the declared footprint out of the shared input log's
    cross-shard message. Amortized over the batch, so it is far below a
    line transfer per key. *)

val shard_vote : int ref
(** Per peer-shard vote a shard reads in the batch-commit round: one
    batch-amortized ready/abort message across the interconnect
    (cache-to-cache or NIC), charged at the deterministic merge point.
    Each shard pays [shards - 1] of these per batch, independent of
    batch size — the Calvin-style collapse of 2PC into a single
    deterministic vote round. *)

val cycles_per_second : float
(** Virtual clock rate used to convert cycles to seconds (2 GHz). *)

val defaults : unit -> unit
(** Reset every constant to its documented default. *)
