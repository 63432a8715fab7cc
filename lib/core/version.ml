module Make (R : Bohm_runtime.Runtime_intf.S) = struct
  type waiter = {
    w_owner : int;
    w_batch : int;
    w_index : int;
    w_claimed : int R.Cell.t;
  }

  type waitq = Waiting of waiter list | Sealed

  let infinity_ts = max_int

  (* --- Slab geometry ---

     A slab is a per-(CC-thread, batch) arena of [slab_capacity] version
     entries. The fields the CC insert loop and the execution chain walk
     touch — begin/end timestamps and the prev link — live in
     struct-of-arrays columns packed [lane_width] entries per cache line,
     so touching one entry's slot warms the line for its seven
     neighbours: consecutive bump-allocations by the owning thread and
     the execution-side walks over them amortize one miss across the
     lane instead of paying one miss per version record. *)

  let lane_width = 8 (* 8-byte slots per 64-byte line *)
  let slab_capacity = 128
  let lane_count = slab_capacity / lane_width

  (* Prev-slot encoding in the prev column: a non-negative value is a
     same-slab entry index, [prev_none] a cut/absent link, [prev_far] a
     link that leaves the slab (an older slab or a bulk-loaded heap
     record; in C the column slot would hold the far pointer itself). *)
  let prev_none = -1
  let prev_far = -2

  (* Versions come in two representations. [Heap] is a bulk-loaded
     version ({!initial}): one record, each shared field its own cell —
     bulk load predates any batch, so no slab owns it, and it sits at the
     tail of every chain. [Slab] is an (arena, index) handle into the
     columns described above; every version a CC thread inserts is one.
     A handle is boxed exactly once, at allocation; every chain link
     stores that one value, so physical equality on versions keeps
     working. *)
  type 'txn t = Heap of 'txn heap | Slab of 'txn slab * int

  and 'txn heap = {
    h_begin : int;
    h_end : int R.Cell.t;
    h_data : Bohm_txn.Value.t option R.Cell.t;
    h_producer : 'txn option;
    h_prev : 'txn t option R.Cell.t;
    h_waiters : waitq R.Cell.t;
  }

  and 'txn slab = {
    s_owner : int; (* CC thread that bump-allocates here *)
    s_seq : int; (* per-owner allocation sequence number *)
    s_batch : int; (* batch the slab serves *)
    (* Hot columns: one line cell per [lane_width] entries. The raw
       arrays are the cells' own payloads, kept alongside so the
       single-writer owner updates a slot with one charged line store
       (mutate the slot, then [Cell.set] the same array — a release on
       the real runtime) instead of a read-modify pair. *)
    s_begin_raw : int array array;
    s_begin : int array R.Cell.t array;
    s_end_raw : int array array;
    s_end : int array R.Cell.t array;
    s_prev_raw : int array array;
    s_prev : int array R.Cell.t array;
    (* Host mirror of the prev column: the actual handles. Uncharged —
       the charged prev-line read above is the model of loading the
       pointer; this array only rematerializes it as an OCaml value.
       Written by the owning CC thread before the column-line release,
       or behind the cc_done watermark. *)
    s_prev_ref : 'txn t option array;
    (* Cold payload column: per-entry cells, exactly the shape of the
       heap arm's fields. Data stays one cell per entry deliberately —
       packing execution-thread fill stores eight to a line would buy
       false sharing, the opposite of what the layout is for. *)
    s_data : Bohm_txn.Value.t option R.Cell.t array;
    s_producer : 'txn option array;
    s_waiters : waitq R.Cell.t array;
    (* Allocation cursor: written only by the owning CC thread while the
       slab is open, so a plain field. *)
    mutable s_fill : int;
    (* Retirement bookkeeping. Host-level (uncharged) atomics rather
       than plain fields: under adaptive repartitioning a key's chain
       can run through a slab whose owner no longer owns the key, so
       the slab's allocator and the key's current owner may decrement
       [s_live] concurrently from different CC threads. The seq_cst
       store-load pairing between [close_current]'s close and a
       truncator's decrement guarantees at least one of them observes
       the other's write, so no retirement is lost; the CAS on
       [s_retired] makes the retirement (and its [Costs.slab_retire]
       charge) exactly-once. With the static map these degenerate to the
       old single-writer fields at no charge difference. *)
    s_live : int Atomic.t;
    s_closed : bool Atomic.t;
    s_retired : bool Atomic.t;
  }

  (* Waiter lists carry the fill-triggered wakeup protocol: the list CAS
     and the per-record claim CAS are synchronization by nature (and their
     RMWs would auto-promote the cells anyway); marking also covers the
     plain reads the publication re-checks perform. *)
  let make_waitq q =
    let c = R.Cell.make q in
    R.Cell.mark_sync c;
    c

  let make_waiter ~owner ~batch ~index =
    let claimed = R.Cell.make 0 in
    R.Cell.mark_sync claimed;
    { w_owner = owner; w_batch = batch; w_index = index; w_claimed = claimed }

  let waitq_cell = function
    | Heap h -> h.h_waiters
    | Slab (s, i) -> s.s_waiters.(i)

  (* Push [w] onto the version's waiter list. [`Sealed`] means the fill
     path already sealed the list — the data is filled (sealing happens
     strictly after the data store), so the caller retries inline instead
     of parking. *)
  let register_waiter v w =
    let c = waitq_cell v in
    let rec go () =
      match R.Cell.get c with
      | Sealed -> `Sealed
      | Waiting ws as cur ->
          if R.Cell.cas c cur (Waiting (w :: ws)) then `Registered else go ()
    in
    go ()

  (* Fill-side drain: swap the list to [Sealed] and return the registered
     waiters in registration order. Must be called only after the
     version's data is set — [Sealed] is the published promise that any
     later would-be registrant can read the data instead. Idempotent:
     a second call returns []. *)
  let seal_waiters v =
    let c = waitq_cell v in
    let rec go () =
      match R.Cell.get c with
      | Sealed -> []
      | Waiting ws as cur ->
          if R.Cell.cas c cur Sealed then List.rev ws else go ()
    in
    go ()

  (* Fast emptiness probe for the fill path: sealing is pointless on a
     version nobody waits on (the claim-token handshake already covers a
     registration racing the fill), so the filler pays one read instead of
     an RMW on the common waiterless version. *)
  let has_waiters v =
    match R.Cell.get (waitq_cell v) with
    | Sealed | Waiting [] -> false
    | Waiting _ -> true

  (* Quiescence audit hook: waiter records still on an unsealed list whose
     wakeup was neither pushed nor self-served. Uncharged use only. *)
  let unclaimed_waiters v =
    match R.Cell.get (waitq_cell v) with
    | Sealed -> 0
    | Waiting ws ->
        List.length (List.filter (fun w -> R.Cell.get w.w_claimed = 0) ws)

  (* --- Field access, dual representation ---

     On the heap arm [begin_ts] is a free record-field read (the record
     load is what the chain link's cell read already paid for), the
     others one cell operation. The slab arm charges one line access per
     touched column slot — the first touch of a lane misses, its seven
     neighbours hit. *)

  let line_get cells i = (R.Cell.get cells.(i / lane_width)).(i mod lane_width)

  let line_set raw cells i x =
    raw.(i / lane_width).(i mod lane_width) <- x;
    R.Cell.set cells.(i / lane_width) raw.(i / lane_width)

  let begin_ts = function
    | Heap h -> h.h_begin
    | Slab (s, i) -> line_get s.s_begin i

  let get_end_ts = function
    | Heap h -> R.Cell.get h.h_end
    | Slab (s, i) -> line_get s.s_end i

  let set_end_ts v ts =
    match v with
    | Heap h -> R.Cell.set h.h_end ts
    | Slab (s, i) -> line_set s.s_end_raw s.s_end i ts

  let data_cell = function Heap h -> h.h_data | Slab (s, i) -> s.s_data.(i)

  let producer = function
    | Heap h -> h.h_producer
    | Slab (s, i) -> s.s_producer.(i)

  let prev = function
    | Heap h -> R.Cell.get h.h_prev
    | Slab (s, i) ->
        if line_get s.s_prev i = prev_none then None else s.s_prev_ref.(i)

  let cut_prev = function
    | Heap h -> R.Cell.set h.h_prev None
    | Slab (s, i) ->
        s.s_prev_ref.(i) <- None;
        line_set s.s_prev_raw s.s_prev i prev_none

  let prev_code_of s p =
    match p with
    | None -> prev_none
    | Some (Slab (ps, pi)) when ps == s -> pi
    | Some _ -> prev_far

  (* Fault-injection hook for the chain-audit mutants; uncharged use
     only. Bypasses the allocation discipline that makes real prev links
     point at same-owner, no-newer slabs. *)
  let unsafe_set_prev v p =
    match v with
    | Heap h -> R.Cell.set h.h_prev p
    | Slab (s, i) ->
        s.s_prev_ref.(i) <- p;
        line_set s.s_prev_raw s.s_prev i (prev_code_of s p)

  (* [data] is the publication point between a version's producer and its
     readers: a reader that finds it filled must see everything the
     producer did first, with no other synchronization in between — a
     release/acquire pair by design, so the race tracer treats it as one.
     [end_ts] and [prev] stay plain data cells: they are written by
     exactly one CC thread and published to readers through the batch
     watermarks, a discipline the tracer verifies rather than assumes. *)
  let initial value =
    let data = R.Cell.make (Some value) in
    R.Cell.mark_sync data;
    Heap
      {
        h_begin = 0;
        h_end = R.Cell.make infinity_ts;
        h_data = data;
        h_producer = None;
        h_prev = R.Cell.make None;
        (* Born filled, so born sealed: a registration attempt (which can
           only race a fill) observes the seal and reads the data. *)
        h_waiters = make_waitq Sealed;
      }

  let rec visible_at v ~ts =
    if begin_ts v <= ts then Some v
    else match prev v with None -> None | Some older -> visible_at older ~ts

  let chain_length v =
    let rec go v acc =
      match prev v with None -> acc | Some older -> go older (acc + 1)
    in
    go v 1

  (* --- Slab allocation and whole-slab GC --- *)

  type 'txn alloc = {
    al_owner : int;
    (* Mark the end-timestamp column lines of every slab this allocator
       opens as tracer-sync cells. Under adaptive repartitioning two CC
       threads may invalidate versions of different keys that share one
       packed end-column line (the stores land in distinct slots of the
       same line cell, and the cell's payload is always the same raw
       array — benign on the real runtime); without it the end column
       stays an ordinary data column so the tracer keeps verifying the
       static engine's single-writer discipline. *)
    al_shared : bool;
    mutable al_seq : int;
    mutable al_cur : 'txn slab option;
    mutable al_opened : int;
    mutable al_retired : int;
  }

  let alloc_make ?(shared = false) ~owner () =
    {
      al_owner = owner;
      al_shared = shared;
      al_seq = 0;
      al_cur = None;
      al_opened = 0;
      al_retired = 0;
    }

  let slabs_opened al = al.al_opened
  let slabs_retired al = al.al_retired

  (* Condition-3 GC pays one owner-local counter decrement per dropped
     version and one [Costs.slab_retire] charge per emptied slab. Only
     closed slabs retire —
     the open slab's entries all sit above the watermark (their begin
     timestamps are in the current batch), so it can never drain. *)
  (* [al] is the calling thread's allocator, which under repartitioning
     may not be the slab's: the retirement is attributed to whoever
     observed the slab drain (stats sum over all allocators, so totals
     stay right). The CAS keeps the charge exactly-once when the closer
     and a remote truncator race on the last version. *)
  let retire_if_dead al s =
    if
      Atomic.get s.s_closed
      && Atomic.get s.s_live = 0
      && Atomic.compare_and_set s.s_retired false true
    then begin
      al.al_retired <- al.al_retired + 1;
      R.work !Bohm_runtime.Costs.slab_retire
    end

  let close_current al =
    match al.al_cur with
    | None -> ()
    | Some s ->
        Atomic.set s.s_closed true;
        al.al_cur <- None;
        retire_if_dead al s

  let make_slab ~shared ~owner ~seq ~batch =
    let mk_col init =
      let raw = Array.init lane_count (fun _ -> Array.make lane_width init) in
      (raw, Array.map R.Cell.make raw)
    in
    let begin_raw, begin_c = mk_col 0 in
    (* End slots are born at infinity by the arena (allocation is not
       modelled), so an insert never writes its own end column. *)
    let end_raw, end_c = mk_col infinity_ts in
    if shared then Array.iter R.Cell.mark_sync end_c;
    let prev_raw, prev_c = mk_col prev_none in
    (* A GC cut rewrites a prev slot while execution threads may be
       walking neighbouring slots of the same line — racy by design,
       ordered by the RCU argument of §3.3.2 (no reader above the
       watermark reaches the cut region), like the chain-head cells. *)
    Array.iter R.Cell.mark_sync prev_c;
    {
      s_owner = owner;
      s_seq = seq;
      s_batch = batch;
      s_begin_raw = begin_raw;
      s_begin = begin_c;
      s_end_raw = end_raw;
      s_end = end_c;
      s_prev_raw = prev_raw;
      s_prev = prev_c;
      s_prev_ref = Array.make slab_capacity None;
      s_data =
        Array.init slab_capacity (fun _ ->
            let c = R.Cell.make None in
            R.Cell.mark_sync c;
            c);
      s_producer = Array.make slab_capacity None;
      s_waiters = Array.init slab_capacity (fun _ -> make_waitq (Waiting []));
      s_fill = 0;
      s_live = Atomic.make 0;
      s_closed = Atomic.make false;
      s_retired = Atomic.make false;
    }

  (* Bump-allocate the next placeholder into the owner's current slab,
     opening a fresh slab when the current one is full or served an older
     batch (slabs never span batches — that is what makes whole-slab
     retirement line up with the batch watermark). Charges the two hot
     column-line stores; the caller charges [Costs.cc_insert_slab] for
     the surrounding bookkeeping. *)
  let slab_placeholder al ~batch ~ts ~producer ~prev:p =
    let s =
      match al.al_cur with
      | Some s when s.s_batch = batch && s.s_fill < slab_capacity -> s
      | Some _ | None ->
          close_current al;
          let s =
            make_slab ~shared:al.al_shared ~owner:al.al_owner ~seq:al.al_seq
              ~batch
          in
          al.al_seq <- al.al_seq + 1;
          al.al_opened <- al.al_opened + 1;
          al.al_cur <- Some s;
          s
    in
    let i = s.s_fill in
    s.s_fill <- i + 1;
    Atomic.incr s.s_live;
    s.s_producer.(i) <- Some producer;
    s.s_prev_ref.(i) <- Some p;
    line_set s.s_begin_raw s.s_begin i ts;
    line_set s.s_prev_raw s.s_prev i (prev_code_of s (Some p));
    Slab (s, i)

  let slab_coord = function
    | Heap _ -> None
    | Slab (s, i) -> Some (s.s_owner, s.s_seq, i)

  let slab_batch = function Heap _ -> None | Slab (s, _) -> Some s.s_batch

  (* Condition-3 truncation: find the newest version visible at [gc_ts]
     and cut the chain below it. Each dropped slab entry decrements its
     slab's live count (heap records met mid-chain — bulk-loaded tails —
     are just counted), and a slab whose count reaches zero retires
     whole. Returns (versions dropped, slabs retired by this call).
     The caller is the key's current owning CC thread; with the static
     map that is also every chained slab's allocator, while under
     adaptive repartitioning the walk may cross slabs another thread
     allocated before the key moved — the atomic live counts above make
     that safe. *)
  let truncate_retire al v ~gc_ts =
    match visible_at v ~ts:gc_ts with
    | None -> (0, 0)
    | Some keep -> (
        match prev keep with
        | None -> (0, 0)
        | Some older ->
            let before = al.al_retired in
            let rec drop v n =
              let n = n + 1 in
              (match v with
              | Heap _ -> ()
              | Slab (s, _) ->
                  Atomic.decr s.s_live;
                  retire_if_dead al s);
              match prev v with None -> n | Some p -> drop p n
            in
            let n = drop older 0 in
            cut_prev keep;
            (n, al.al_retired - before))
end
