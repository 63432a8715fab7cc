(** Drivers that regenerate every table and figure of the paper's
    evaluation (§4) on the simulated multicore machine, plus the ablations
    called out in DESIGN.md. Each driver returns the data it printed so
    tests can assert the qualitative shapes (who wins, where the
    crossovers are) without re-parsing text.

    Baseline parameters are scaled-down but ratio-preserving versions of
    the paper's (see EXPERIMENTS.md); [?scale] multiplies transaction
    counts, and [?quick] shrinks the swept thread counts for smoke runs. *)

type series = {
  title : string;
  x_label : string;
  columns : string list;
  rows : (string * float option list) list;
  notes : string list;
}

val print : series -> unit

val fig4 : ?scale:float -> ?quick:bool -> unit -> series list
(** Concurrency-control / execution module interaction: throughput vs
    execution threads, one column per CC thread count. BOHM only. *)

val fig5 : ?scale:float -> ?quick:bool -> unit -> series list
(** YCSB 10RMW throughput vs threads; high (theta 0.9) and low (theta 0)
    contention. All five engines. *)

val fig6 : ?scale:float -> ?quick:bool -> unit -> series list
(** YCSB 2RMW-8R throughput vs threads; high and low contention. *)

val fig7 : ?scale:float -> ?quick:bool -> unit -> series list
(** YCSB 2RMW-8R at full thread count, sweeping theta. *)

val fig8 : ?scale:float -> ?quick:bool -> unit -> series list
(** 10RMW (theta 0) mixed with long read-only transactions; sweep of the
    read-only percentage. *)

val tab9 : ?scale:float -> ?quick:bool -> unit -> series list
(** Figure 9's table: throughput with 1% read-only transactions, absolute
    and as a percentage of BOHM's. *)

val fig10 : ?scale:float -> ?quick:bool -> unit -> series list
(** SmallBank throughput vs threads; high (50 customers) and low (100k
    customers) contention. *)

val ablation_batch : ?scale:float -> ?quick:bool -> unit -> series list
(** BOHM throughput vs batch size (coordination amortization, §3.2.4). *)

val ablation_annotation : ?scale:float -> ?quick:bool -> unit -> series list
(** BOHM with and without the read-annotation optimization (§3.2.3),
    under long version chains. *)

val ablation_gc : ?scale:float -> ?quick:bool -> unit -> series list
(** BOHM with GC on and off (§3.3.2). *)

val ablation_cc_split : ?scale:float -> ?quick:bool -> unit -> series list
(** Fixed total threads, sweeping the CC/execution split. *)

val ablation_preprocess : ?scale:float -> ?quick:bool -> unit -> series list
(** The §3.2.2 pre-processing layer on/off across CC thread counts: the
    Amdahl serial fraction and its removal. *)

val latency_profile : ?scale:float -> ?quick:bool -> unit -> series list
(** Per-phase latency percentiles (p50/p95/p99/p999/mean/stddev, virtual
    cycles) for all six engines under an observed run
    ({!Runner.run_sim_obs}): where a transaction's life goes — queue
    wait, concurrency control, dependency or retry stalls, execution. *)

val critical_path : ?scale:float -> ?quick:bool -> unit -> series list
(** Per-batch binding-stage shares ({!Bohm_obs.Critical_path}) — which
    pipeline stage dominates each batch's makespan — for BOHM at CC=4/8,
    exec=20, shards=1/4 (plus the blamed dependency-stall cycle total)
    and for the five single-layer engines over their nominal
    1000-transaction batches. *)

val extension_mvto : ?scale:float -> ?quick:bool -> unit -> series list
(** BOHM against classic multiversion timestamp ordering (Reed): the
    "Track Reads" costs of §2.2, quantified. *)

val experiments : (string * (?scale:float -> ?quick:bool -> unit -> series list)) list
(** Every driver above, keyed by the name used on the bench command
    line. *)

val run_all : ?scale:float -> ?quick:bool -> unit -> unit
(** Run and print everything, in paper order. *)
