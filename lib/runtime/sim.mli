(** Deterministic multicore simulator.

    Implements {!Runtime_intf.S} with cooperatively-scheduled threads built
    on OCaml effect handlers and a virtual clock. The scheduler always
    resumes the runnable thread with the smallest virtual clock, so shared
    operations take effect in global virtual-time order: executions are
    sequentially consistent, deterministic given identical inputs, and
    reproducible.

    Costs (see {!Costs}) model one cache line per {!Cell.t}: MESI-style
    hit/remote-read/ownership-transfer charges, plus a per-line
    [avail]-time reservation that serializes atomic read-modify-writes —
    a cell hammered by [faa] from many threads has a hard throughput
    ceiling, which is the global-timestamp-counter bottleneck the BOHM
    paper identifies in Hekaton and SI.

    {!run} executes a program (which may spawn threads) to completion and
    returns its value. Nested [run]s are rejected. A configuration in which
    no runnable thread can make progress raises {!Deadlock}.

    {b Scheduler.} The run queue ({!Bohm_util.Heap}) holds thread ids
    ordered by (priority, push order), where a priority is the thread's
    clock scaled by 256 plus an optional jitter byte drawn once per push.
    Thread states sit in a per-run array indexed by id; a thread that is
    off the CPU keeps its continuation in its state. A queue operation
    therefore allocates nothing.

    {b Relax runs.} {!relax_n}[ n] runs relaxes on the fiber until one
    must yield, then hands the remaining ones to the scheduler, which
    performs each itself — the empty-queue streak check, the
    [Costs.relax_base] charge, the yield test and push — and resumes the
    fiber only when the run ends. A spin deadlock detected there is
    raised inside the fiber, so its finalisers run.

    {b Exactness.} Both are host-time optimizations only: the order of
    pops, the push sequence, the jitter draws, the clock arithmetic and
    {!steps} are exactly those of [n] calls to {!relax}, so every modeled
    number and every {!Trace} event is unchanged. *)

include Runtime_intf.S

exception Deadlock of string
(** Raised when every live thread is blocked (or the sole runnable thread
    spins on a condition no other thread can change). *)

val run : ?jitter:Bohm_util.Rng.t -> (unit -> 'a) -> 'a
(** [run body] executes [body] as simulated thread 0 and drives the
    simulation until all spawned threads finish. [?jitter] randomizes the
    scheduling order of threads whose virtual clocks are equal — useful for
    exploring interleavings in property tests; without it ties resume in
    FIFO order. *)

val virtual_time : unit -> float
(** Virtual seconds elapsed on the calling thread's clock; equals {!now}
    inside a simulation. After [run] returns, reports the makespan of the
    last completed simulation. *)

val steps : unit -> int
(** Scheduler resume count of the current (or last) simulation; a cheap
    progress metric for tests. *)
