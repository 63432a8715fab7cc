(** Per-batch telemetry replayed from a recorded run.

    [of_recorder] folds every track's spans and instants into one record
    per batch id: barrier-to-barrier makespan, per-stage wall durations
    (sequence / preprocess / rebalance / cc / gc / exec / shard_vote for
    BOHM; lock / exec / commit for the single-layer baselines, which
    attribute their per-txn spans to nominal batches of
    {!baseline_quantum} transactions), committed transactions, steal /
    wakeup / retry-scan counts, blamed dependency-stall cycles,
    peak open-slab occupancy, measured CC imbalance, and the per-voter
    vote-round durations.

    Everything is a pure post-run fold over the recorder — the engines
    pay nothing beyond the PR5 span instrumentation. Timestamps are in
    the runtime's [now_ns] unit (cycles under Sim, wall ns under Real). *)

type record = {
  tl_batch : int;
  tl_start : int;
  tl_finish : int;
  tl_stages : (string * int) list;
      (** Stage -> wall window (max end − min begin across tracks), in
          pipeline order. Within a batch the non-nested windows are
          disjoint, so their sum is bounded by the makespan. *)
  tl_committed : int;
  tl_steals : int;
  tl_wakeups : int;
  tl_retry_scans : int;
  tl_dep_stall : int;
  tl_slab_occ : int;
  tl_cc_imbalance : float;
  tl_votes : (string * int) list;  (** voter track -> vote duration *)
}

val default_capacity : int
(** 4096 — the ring keeps the newest batches beyond it. *)

val baseline_quantum : int
(** Transactions per nominal batch in the single-layer baselines'
    span attribution (1000, mirroring BOHM's default batch size). *)

val makespan : record -> int
val stage : record -> string -> int
(** Wall window of a stage; 0 when the stage did not run. *)

val of_recorder : ?capacity:int -> Recorder.t -> record list
(** Records in ascending batch order; at most [capacity]
    (newest kept — fixed-capacity ring semantics). *)

val jsonl_line : record -> string
(** One JSON object, no trailing newline. Keys: [batch], [start],
    [finish], [makespan], the fixed [d_<stage>] durations (always
    present, 0 when absent; [d_vote] is the [shard_vote] stage),
    [d_<other>] for non-pipeline stages, [committed], [steals],
    [wakeups], [retry_scans], [dep_stall], [slab_occ],
    [cc_imbalance], and a [votes] object keyed by voter track. *)

val write_jsonl : path:string -> record list -> unit

val counters : record list -> (int * string * float) list
(** Chrome counter-track samples [(ts, counter, value)], one group per
    batch at its finish instant: [committed], [stalls]
    (steals+wakeups+retry_scans), [slab_occ], [cc_imbalance]. *)
