(** Min-priority queue of [int] values with [int] priorities; the
    simulator's run queue, holding thread ids.

    Ties are broken by push order (FIFO), which the simulator relies on
    for deterministic scheduling: two threads with equal virtual clocks
    resume in the order they became runnable. Entries therefore leave in
    (priority, push order), a strict total order, so the pop sequence is
    fixed by the pushes alone.

    A sorted array, not a binary heap: {!pop} and {!min_priority} are
    O(1), {!push} is linear in the entries the new one passes. That suits
    a queue of tens of entries; none of the three allocates once the
    backing arrays have grown to the working size. *)

type t

val create : unit -> t
val length : t -> int
val is_empty : t -> bool

val push : t -> priority:int -> int -> unit

val pop : t -> int
(** Remove and return the value of the minimum entry.
    @raise Invalid_argument if the heap is empty. *)

val min_priority : t -> int
(** Priority of the minimum entry, or [max_int] if the heap is empty. *)
