(** Typed metrics registry — the single producer of the [Stats.extra]
    surface exported under [--json].

    Every counter and gauge any engine reports is declared here once,
    with a stable integer id, a {!kind} and a doc string (the schema
    table in DESIGN.md mirrors these). Worker threads accumulate into
    private {!shard}s — plain float arrays indexed by id, single-writer,
    host-side only, never charged against the simulated clock — and the
    driver folds the shards into a {!sheet} at the end-of-run barrier,
    sets the run-level gauges, and hands {!to_extra} to [Stats.make].
    The output is key-for-key the historical ad-hoc extras list.

    Counters are summed across shards at merge; gauges are set once on
    the sheet by the driver (a gauge set twice keeps the last value). *)

type kind = Counter | Gauge
type def

val define : ?doc:string -> kind -> string -> def
(** Register a new metric. Raises [Invalid_argument] on a duplicate
    name — each key has exactly one producer. *)

val intern : ?doc:string -> kind -> string -> def
(** Like {!define} but idempotent: returns the existing def for keyed
    families ([cc_occ_p<j>]). Raises if the kind disagrees. *)

val name : def -> string
val kind : def -> kind
val doc : def -> string

val schema : unit -> def list
(** Every registered metric, in declaration (id) order. *)

val find : string -> def option

(** {1 The schema} — see the doc strings in the implementation and the
    DESIGN.md table. BOHM pipeline: *)

val gc_collected : def
val dep_blocks : def
val steals : def
val exec_retry_scans : def
val wakeups : def
val slabs_opened : def
val slabs_retired : def
val cc_batch0_start_us : def
val pre_complete_us : def

(** Sharded BOHM runs: *)

val cross_shard_txns : def
val shard_votes : def
val vote_aborts : def

(** Adaptive CC repartitioning: *)

val rebalances : def
val segs_moved : def
val cc_imbalance_max : def
val cc_imbalance_mean : def

val cc_occ_p : int -> def
(** Keyed family [cc_occ_p<j>], interned on first use. *)

(** Baseline engines: *)

val counter_faa : def
val version_steps : def
val ww_aborts : def
val validation_aborts : def
val dep_aborts : def
val read_validation_aborts : def
val read_retries : def
val locks_acquired : def
val read_stamps : def
val reader_induced_aborts : def
val wait_aborts : def

(** {1 Per-thread accumulation} *)

type shard

val shard : unit -> shard
val incr : shard -> def -> unit
val add : shard -> def -> int -> unit
val addf : shard -> def -> float -> unit

val peek : shard -> def -> float
(** Read a shard's own accumulated value (tests, and the few spots where
    an engine folds a counter into a charged stat like [cc_aborts]). *)

(** {1 Merge + export} *)

type sheet

val collect : select:def list -> shard list -> sheet
(** Sum the shards; [select] declares which metrics this run exports
    (selected counters appear in {!to_extra} even at zero, matching the
    historical surface). *)

val set : sheet -> def -> float -> unit
(** Set a run-level gauge; auto-selects the metric for export. *)

val seti : sheet -> def -> int -> unit
val get : sheet -> def -> float

val to_extra : sheet -> (string * float) list
(** The selected metrics in declaration order — [Stats.make] normalizes
    (sorts) them, so the exported surface is byte-identical to the
    pre-registry extras. *)
