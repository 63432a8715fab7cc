(** Key-to-slot mapping for a fixed schema.

    A store resolves a {!Bohm_txn.Key.t} to the slot holding whatever the
    engine keeps per record — a version-chain head for the multi-version
    engines, a (value, TID) pair for Silo, a value cell for 2PL. Two
    backends mirror the paper's implementations (§4): a {e fixed-size
    array} index (used by Hekaton and SI) and a {e hash} index (used by
    BOHM, OCC and 2PL). Both are immutable after load; engines mutate the
    slots, never the index structure, which is why lookups are latch-free.

    Lookups charge the runtime a small fixed cost (array) or a
    hash-plus-probe cost (hash); misses charge for every chain entry they
    walked before giving up. Slot contents are charged by the engine when
    it touches them.

    {b Probe-once discipline}: because the index is immutable, a slot
    handle returned by {!probe}/{!get} stays valid forever. Hot paths
    should resolve each key once and cache the handle (as the BOHM
    engine's per-transaction slot cache does) rather than re-probing; {!probe_count} makes the
    discipline testable. *)

val array_probe_cost : int
val hash_probe_cost : int
val chain_step_cost : int
(** Cycle charges of the two backends, exposed so tests can pin the cost
    model: an array lookup costs [array_probe_cost]; a hash lookup that
    inspects chain entry [i] costs [hash_probe_cost + i * chain_step_cost];
    a hash miss that exhausts a chain of [n] entries costs
    [hash_probe_cost + n * chain_step_cost]. *)

module Make (R : Bohm_runtime.Runtime_intf.S) : sig
  type 'a t

  val create_array : tables:Table.t array -> (Bohm_txn.Key.t -> 'a) -> 'a t
  (** Dense per-table arrays; [tables.(i)] must have [tid = i]. *)

  val create_hash :
    ?bucket_factor:int -> tables:Table.t array -> (Bohm_txn.Key.t -> 'a) -> 'a t
  (** Chained hash index with [rows / bucket_factor] buckets per table
      (default factor 1). *)

  val probe : 'a t -> Bohm_txn.Key.t -> 'a option
  (** One charged index probe; [None] for unknown tables or out-of-range
      rows. The returned handle may be cached: the index never changes
      after load. *)

  val get : 'a t -> Bohm_txn.Key.t -> 'a
  (** [probe] that raises [Not_found] for unknown keys (the miss is still
      charged). *)

  val probe_count : 'a t -> int
  (** Number of charged index probes since creation (or the last
      {!reset_probe_count}), hits and misses alike. Diagnostic, backed by
      {!Bohm_runtime.Runtime_intf.S.Metric}: exact on the deterministic
      simulator (plain counter) {e and} under real parallelism
      (Atomic-backed), while costing nothing in the model either way. *)

  val reset_probe_count : 'a t -> unit

  val tables : 'a t -> Table.t array
  val table : 'a t -> int -> Table.t
  (** Raises [Not_found] for an unknown table id. *)

  val record_bytes : 'a t -> Bohm_txn.Key.t -> int
  (** Declared record size of the key's table. *)

  val iter : 'a t -> (Bohm_txn.Key.t -> 'a -> unit) -> unit
  (** Every slot, in (table, row) order. For loading checks and tests;
      charges nothing. *)
end
