(** Per-thread span/event buffer.

    A buffer is owned by exactly one thread: the engine creates every
    buffer on the driver thread {e before} spawning workers (via
    {!Recorder.track}) and each worker appends only to its own. Appends
    are plain host-side mutations — no {!Bohm_runtime.Runtime_intf.S.Cell}
    traffic, no modelled cost — so recording is invisible to the
    simulator's virtual clock and schedule.

    Spans are strictly nested per buffer: [begin_span]/[end_span] maintain
    an explicit stack, so the emitted B/E events balance by construction.
    Timestamps are whatever the runtime's [now_ns] returns (cycles under
    Sim, wall nanoseconds under Real); they must be sampled by the owning
    thread and are therefore non-decreasing within a buffer. *)

type event =
  | Begin of { name : string; batch : int; ts : int }
  | End of { name : string; ts : int }
  | Instant of { name : string; batch : int; value : int; ts : int }
      (** [batch = -1] means "no batch attribution". *)

type t

val make : tid:int -> name:string -> t
(** Used by {!Recorder.track}; [tid] is the track id in the export. *)

val tid : t -> int
val name : t -> string

val begin_span : ?batch:int -> t -> phase:string -> ts:int -> unit
val end_span : t -> ts:int -> unit
(** Closes the innermost open span. Raises [Invalid_argument] if no span
    is open — an engine instrumentation bug. *)

val depth : t -> int
(** Number of currently open spans; lets exception handlers unwind to a
    saved depth so aborts cannot leave spans dangling. *)

val instant : ?batch:int -> ?value:int -> t -> name:string -> ts:int -> unit
(** A zero-duration event (steal, wakeup, abort, …). *)

val events : t -> event list
(** In append order. *)

val length : t -> int
