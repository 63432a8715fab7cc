(** Version-chain invariant checker.

    Each engine owns its version representation, so the engines fold their
    chains into neutral {!entry} lists (newest first, exactly the link
    order of the chain) and this module applies the shared invariants:

    - {b total timestamp order}: begin timestamps strictly decrease from
      the head (paper §3.2: CC threads leave per-key chains totally
      ordered);
    - {b no unfilled placeholders}: after quiescence every version carries
      data ([filled]) — BOHM's execution phase guarantees every
      placeholder is eventually filled (§3.3.1);
    - {b begin/end consistency} (engines that stamp invalidation times,
      i.e. BOHM and Hekaton): a version's end timestamp equals its
      successor's begin timestamp, and the head's equals [newest_end]
      (timestamp infinity). Entries with [end_ts = None] skip this
      check (MVTO stamps no end times);
    - {b slab-arena discipline} (entries carrying a [slab] coordinate,
      i.e. BOHM's inserted versions): along a chain all slab
      entries belong to one owning CC thread, slab sequence numbers never
      increase toward older versions, and entry indices strictly decrease
      within one slab — prev links violating any of these are arena
      corruption ([Chain_cross_slab]). A pair joined by such a corrupt
      link skips the two timestamp checks: the stamps read through a
      bogus link belong to some other chain's version and would only
      shadow the root cause.
    - {b map-aware arena discipline} ([check_key ~owner_of], i.e. BOHM
      with adaptive CC repartitioning): a key's chain may legitimately
      cross arenas when the key moved partitions between batches, so the
      one-owner-per-chain rule is replaced by an absolute per-entry
      check — each slab entry's owner must be exactly the partition the
      epoch-versioned map assigned the key {e at the entry's batch}
      ([owner_of batch], entries carrying [batch]) — plus the residual
      pair rules the allocation discipline still guarantees: two
      same-batch neighbours share one owner, and sequence/bump order
      holds between same-owner neighbours.

    Run it post-quiescence — after the engine's [run] has joined its
    threads — via each engine's [check_chains]. *)

type entry = {
  begin_ts : int;  (** Creation timestamp of the version. *)
  end_ts : int option;
      (** Invalidation timestamp, for engines that stamp one. *)
  filled : bool;  (** Placeholder has been given data / producer settled. *)
  dangling_waiters : int;
      (** Waiter records still registered and unclaimed on the version at
          quiescence (BOHM's fill-triggered wakeup protocol): each one is
          a parked transaction whose wakeup was never pushed. 0 for
          engines without waiter lists. *)
  slab : (int * int * int) option;
      (** [(owner, slab sequence, entry index)] for slab-allocated
          versions; [None] for heap records (bulk-loaded tails, the
          slabs-off store, other engines). *)
  batch : int option;
      (** Batch the version's slab serves, for the map-aware discipline
          check; [None] for heap records (which skip it). *)
}

val infinity_ts : int
(** [max_int], the "never invalidated" end stamp. *)

val entry :
  ?dangling_waiters:int ->
  ?slab:int * int * int ->
  ?batch:int ->
  begin_ts:int ->
  end_ts:int option ->
  filled:bool ->
  unit ->
  entry
(** Convenience constructor; [dangling_waiters] defaults to 0 for engines
    without waiter lists, [slab] and [batch] to [None] for heap-allocated
    versions. *)

val check_key :
  Report.t ->
  ?owner_of:(int -> int) ->
  ?newest_end:int ->
  Bohm_txn.Key.t ->
  entry list ->
  unit
(** Check one key's chain, [entries] newest-first. [newest_end] is the end
    stamp the head must carry (default {!infinity_ts}). [owner_of]
    switches the slab-arena checks to the map-aware discipline:
    [owner_of b] is the owner the engine's per-batch partition map
    assigned this key at batch [b] (absent: the static one-owner
    discipline, exactly as before). Diagnostics go to the report under
    the [Chain] checker. *)
