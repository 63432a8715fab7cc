(** Chrome trace-event JSON export (the format Perfetto and
    [chrome://tracing] load).

    One track (tid) per recorded thread under a single pid 0. Each track
    opens with a ["thread_name"] metadata event, followed by the track's
    events in append order: ["B"]/["E"] duration events for spans,
    ["i"] instant events for point occurrences (steals, wakeups,
    aborts). Timestamps are the recorded [now_ns] values
    converted to the format's microseconds (so under Sim, 1 "µs" is
    1000 simulated cycles).

    The document is hand-rolled JSON, one event object per line — both so
    the repo keeps its no-JSON-dependency rule and so shell tooling
    ([bench/smoke.sh]) can validate the schema line-wise. *)

val to_string : ?counters:(int * string * float) list -> Recorder.t -> string
(** [counters] (typically {!Timeline.counters}) renders as ["C"] counter
    events on one extra track named ["timeline"], so Perfetto draws
    throughput/stall curves alongside the spans. *)

val write :
  ?counters:(int * string * float) list -> path:string -> Recorder.t -> unit

val validate : string -> (unit, string) result
(** Structural check of an exported document: every event line carries
    the required ["ph"]/["ts"]/["pid"]/["tid"]/["name"] keys, and B/E
    events balance (never closing below zero, all spans closed at
    end-of-trace) independently per tid. Accepted phases are B, E, i,
    C and M. *)

val of_string : string -> (Recorder.t, string) result
(** Parse a document {!to_string} produced back into a recorder (tracks
    in tid order, events replayed), so [Timeline]/[Critical_path] run on
    saved traces. The ["timeline"] counter track is skipped — it is
    derived data. Only the one-event-per-line shape this module emits is
    supported. *)

val read : path:string -> (Recorder.t, string) result
