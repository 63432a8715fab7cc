(** Version records and chain operations (paper §3.2.3, Figure 3).

    A version carries: begin timestamp (immutable — set at creation by the
    owning CC thread), end timestamp (written once, by the CC thread that
    inserts the next version), the data placeholder (written by whichever
    execution thread evaluates the producing transaction), a reference to
    that producing transaction ("Txn Pointer"), and the previous version
    ("Prev Pointer", rewritten only when GC truncates the chain).

    Versions come in two physical representations behind one abstract
    type. A bulk-loaded version ({!initial}) is a {e heap} record, each
    shared field its own cell; it sits at the tail of its key's chain.
    Every version a CC thread inserts lives in the {e slab} store
    ({!slab_placeholder}), bump-allocated into per-(CC-thread, batch)
    arena slabs whose hot fields — begin/end timestamps and the prev
    link — live in struct-of-arrays columns packed {!lane_width} entries
    per cache line, so chain walks and the CC insert loop amortize one
    miss across a lane instead of paying one miss per record; cold
    fields (data, producer, waiters) stay in a parallel per-entry payload
    column. Condition-3 GC retires whole slabs ({!truncate_retire}).

    The type is polymorphic in the producer so it can reference the
    engine's transaction wrapper without a circular dependency. *)

module Make (R : Bohm_runtime.Runtime_intf.S) : sig
  type waiter = {
    w_owner : int;  (** Execution thread to notify. *)
    w_batch : int;  (** Batch of the parked transaction (diagnostics). *)
    w_index : int;  (** Index of the parked transaction in the run. *)
    w_claimed : int R.Cell.t;
        (** 0 free, 1 consumed. Exactly-once consumption token: the filler
            CASes it before pushing a wakeup, the registrant CASes it
            before serving itself on the register-vs-fill race — precisely
            one of them wins, so there is neither a lost nor a duplicated
            wakeup for this record. *)
  }
  (** A parked execution attempt, registered on the unfilled version whose
      data it needs (the fill-triggered wakeup protocol). *)

  type waitq = Waiting of waiter list | Sealed
      (** [Sealed] is terminal and implies the version's data is filled:
          the fill path stores the data strictly before sealing. *)

  type 'txn t
  (** A version handle. Allocated exactly once per version — chain links
      store the handle itself, so physical equality identifies a
      version. *)

  val infinity_ts : int

  val lane_width : int
  (** Hot-column entries per cache line (8 × 8-byte slots). *)

  val slab_capacity : int
  (** Entries per arena slab. *)

  (** {2 Field access}

      On the heap representation {!begin_ts} is a free record-field read
      (the record load was already paid by the chain link's cell read),
      the rest one cell operation. On the slab representation, accessing
      a hot field charges one column-line access — the first touch of a
      lane misses, its seven neighbours hit. *)

  val begin_ts : 'txn t -> int
  val get_end_ts : 'txn t -> int

  val set_end_ts : 'txn t -> int -> unit
  (** Invalidation: only the CC thread inserting the successor calls
      this. *)

  val data_cell : 'txn t -> Bohm_txn.Value.t option R.Cell.t
  (** The per-version data cell ([None] = unfilled placeholder) in both
      representations — the release/acquire publication point between the
      producing execution thread and readers. Deliberately {e not} packed
      into slab lines: fills come from many execution threads, and eight
      fills to a line would be false sharing, the opposite of what the
      slab layout buys. *)

  val producer : 'txn t -> 'txn option
  (** [None] for bulk-loaded versions. *)

  val prev : 'txn t -> 'txn t option
  (** One charged pointer load: the prev cell (heap) or the prev
      column-line slot (slab). *)

  val cut_prev : 'txn t -> unit
  (** GC cut: sever the chain below this version. Owning CC thread
      only. *)

  val unsafe_set_prev : 'txn t -> 'txn t option -> unit
  (** Rewire a prev link, bypassing the allocation discipline that makes
      real links point at same-owner, no-newer slabs. For chain-audit
      fault injection; uncharged use only. *)

  (** {2 Waiter protocol} *)

  val make_waiter : owner:int -> batch:int -> index:int -> waiter
  (** A fresh, unclaimed waiter record. *)

  val register_waiter : 'txn t -> waiter -> [ `Registered | `Sealed ]
  (** CAS the record onto the version's waiter list. [`Sealed] means the
      fill already happened — read the data and retry inline. After
      [`Registered] the caller must re-read [data]: if it is now filled
      the filler may have missed the registration (it reads the list once,
      after its data store), so the caller must try to CAS [w_claimed]
      itself — winning means no wakeup is coming (serve yourself), losing
      means the wakeup is already queued. If [data] is still unfilled the
      registration is published before the fill in the global order, the
      filler is guaranteed to see the record, and parking is safe. *)

  val has_waiters : 'txn t -> bool
  (** One read: is the list unsealed and non-empty? Lets the fill path
      skip the seal RMW on versions nobody waits on — safe because a
      registration racing the fill self-serves through the claim token
      when its post-registration data re-read finds the fill already
      done. *)

  val seal_waiters : 'txn t -> waiter list
  (** Swap the list to [Sealed] and return the registered records in
      registration order. Call only after the version's data is stored —
      the seal is the published promise that later registrants can read
      the data instead of parking. Idempotent; a second call returns
      []. *)

  val unclaimed_waiters : 'txn t -> int
  (** Records still on an unsealed list whose wakeup was neither pushed
      nor self-served — at quiescence any such record is a lost wakeup.
      For the chain audit; uncharged use only. *)

  (** {2 Bulk-loaded versions} *)

  val initial : Bohm_txn.Value.t -> 'txn t
  (** A bulk-loaded version: begin 0, end infinity, data present. Always
      heap-allocated — bulk load predates any batch, so there is no slab
      to own it. *)

  (** {2 Slab store} *)

  type 'txn alloc
  (** A CC thread's slab allocator: the open slab plus retirement
      counters. Owner-thread state; never shared — though under adaptive
      repartitioning the {e slabs} it opens can later be truncated by
      other CC threads (their retirement bookkeeping is atomic). *)

  val alloc_make : ?shared:bool -> owner:int -> unit -> 'txn alloc
  (** [shared] (default false): build slabs whose packed end-timestamp
      column lines are classified as synchronization cells for the race
      tracer. Set it when adaptive CC repartitioning is live: after a
      key moves partitions, its new owner invalidates versions in slabs
      the old owner allocated, so two CC threads may store into distinct
      slots of one shared end-column line — value-benign on the real
      runtime (the cell payload is always the same raw array), and
      deliberate here, but indistinguishable from a lost update to a
      data-cell tracer. Off preserves the tracer's verification of the
      static engine's single-writer end-column discipline. *)

  val slab_placeholder :
    'txn alloc -> batch:int -> ts:int -> producer:'txn -> prev:'txn t -> 'txn t
  (** Bump-allocate the next placeholder into the owner's current slab,
      opening a fresh slab when the current one is full or served an
      older batch (slabs never span batches). Charges the begin- and
      prev-column line stores; the caller charges [Costs.cc_insert_slab]
      for the surrounding bookkeeping. *)

  val truncate_retire : 'txn alloc -> 'txn t -> gc_ts:int -> int * int
  (** Condition-3 truncation: from [v], find the newest version with
      [begin_ts <= gc_ts] and cut the chain below it. Each dropped slab
      entry decrements its slab's live count — one owner-local counter
      per version — and a closed slab whose count reaches zero retires
      whole (one [Costs.slab_retire] charge); dropped heap records
      (bulk-loaded tails) are just counted. Returns (versions dropped,
      slabs retired by this call). Only the CC thread owning the key's
      partition may call this (single-writer chains); concurrent readers
      at [ts > gc_ts] never reach the cut region, which is the RCU
      argument of §3.3.2, Condition 3. The caller is the key's current
      owner, which under adaptive repartitioning may differ from a chained
      slab's allocator (the retirement is then attributed to the
      caller's counters — stats sum over all allocators). *)

  val slabs_opened : 'txn alloc -> int
  val slabs_retired : 'txn alloc -> int

  val slab_coord : 'txn t -> (int * int * int) option
  (** [(owner, slab sequence number, entry index)] for a slab entry,
      [None] for a heap record. Allocation discipline guarantees, along
      any chain under the static map: one owner per key, slab sequence
      numbers non-increasing toward older versions, and strictly
      decreasing entry indices within one slab — what the chain audit
      checks. Under adaptive repartitioning the owner along a chain is
      instead the key's map assignment {e at the entry's batch}
      ({!slab_batch}), which is what the map-aware audit checks. *)

  val slab_batch : 'txn t -> int option
  (** The batch the entry's slab serves, [None] for a heap record. *)

  (** {2 Chain operations} *)

  val visible_at : 'txn t -> ts:int -> 'txn t option
  (** Walk the chain from the given (newest-first) version to the version
      visible at [ts] — the first whose [begin_ts <= ts]. [None] if the
      chain holds no version that old (it was GC'd or never existed). *)

  val chain_length : 'txn t -> int
end
