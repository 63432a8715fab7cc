module Key = Bohm_txn.Key
module Value = Bohm_txn.Value
module Txn = Bohm_txn.Txn
module Stats = Bohm_txn.Stats
module Local_writes = Bohm_txn.Local_writes

(* Work charges (cycles). *)
let dispatch_work = 120
let read_resolve_work = 10
let buffer_write_work = 20

let max_backoff = 32_768

module Make (R : Bohm_runtime.Runtime_intf.S) = struct
  module Store = Bohm_storage.Store.Make (R)
  module Sync = Bohm_runtime.Sync.Make (R)
  module Obs = Bohm_obs

  (* The TID word: bit 0 is the lock bit, the rest is the sequence
     number. *)
  type record = { tid : int R.Cell.t; value : Value.t R.Cell.t }

  type t = { workers : int; store : record Store.t; last_seq : int array }

  exception Conflict

  type worker_stat = {
    mutable committed : int;
    mutable logic_aborts : int;
    (* Telemetry counters (read_validation_aborts — also the charged
       [cc_aborts] total — and read_retries): one metrics shard per
       worker, summed at the join. *)
    ms : Obs.Metrics.shard;
  }

  (* Both record cells are racy by design — the TID word is the lock and
     validation witness, and the value is read optimistically while a
     committer may be installing (the TID re-check makes it safe) — so
     both are synchronization cells for the race tracer. *)
  let sync c =
    R.Cell.mark_sync c;
    c

  let create ~workers ~tables init =
    if workers <= 0 then invalid_arg "Silo: workers must be positive";
    {
      workers;
      store =
        Store.create_hash ~tables (fun k ->
            { tid = sync (R.Cell.make 0); value = sync (R.Cell.make (init k)) });
      last_seq = Array.make workers 0;
    }

  let locked tid = tid land 1 = 1

  (* Stable read of (value, tid): retry while the record is locked or the
     TID changes under us. Reads touch no shared-memory metadata. *)
  let rec stable_read stat r =
    let t1 = R.Cell.get r.tid in
    if locked t1 then begin
      Obs.Metrics.incr stat.ms Obs.Metrics.read_retries;
      R.relax ();
      stable_read stat r
    end
    else begin
      let v = R.Cell.get r.value in
      let t2 = R.Cell.get r.tid in
      if t1 <> t2 then begin
        Obs.Metrics.incr stat.ms Obs.Metrics.read_retries;
        stable_read stat r
      end
      else (v, t1)
    end

  let lock_record r =
    let rec go () =
      let t = R.Cell.get r.tid in
      if locked t || not (R.Cell.cas r.tid t (t lor 1)) then begin
        R.relax ();
        go ()
      end
      else t (* pre-lock TID, for rollback *)
    in
    go ()

  (* [ob]/[first]: host-side observability context, as in the other
     engines — [first] is the [now_ns] of this transaction's first
     dispatch (retries keep it), anchoring the dependency-stall phase. *)
  let run_attempt t me stat ob ~first ~seq txn =
    (* Nominal batch for trace attribution ([Timeline]/[Critical_path]
       bucket the single-layer engines by quantized input index). *)
    let batch = seq / Obs.Timeline.baseline_quantum in
    let att_ts =
      match ob with
      | None -> 0
      | Some o ->
          let ts = R.now_ns () in
          Obs.Buf.begin_span o.Obs.Worker.buf ~phase:"exec" ~batch ~ts;
          ts
    in
    let reads : (record * int) list ref = ref [] in
    let buffer = Local_writes.create () in
    R.work dispatch_work;
    let ctx =
      {
        Txn.read =
          (fun k ->
            match Local_writes.find buffer k with
            | Some v -> v
            | None ->
                R.work read_resolve_work;
                let r = Store.get t.store k in
                let v, tid = stable_read stat r in
                reads := (r, tid) :: !reads;
                R.copy ~bytes:(Store.record_bytes t.store k);
                v);
        write =
          (fun k v ->
            (* Buffered in a per-worker, cache-resident structure; cheap
               compared to materializing a version (§4.2.1). *)
            R.work (buffer_write_work + (Store.record_bytes t.store k / 16));
            Local_writes.set buffer k v);
        spin = R.work;
      }
    in
    match txn.Txn.logic ctx with
    | Txn.Abort ->
        stat.logic_aborts <- stat.logic_aborts + 1;
        (match ob with
        | None -> ()
        | Some o ->
            let tend = R.now_ns () in
            Obs.Buf.end_span o.Obs.Worker.buf ~ts:tend;
            let lat = o.Obs.Worker.lat in
            Obs.Latency.add lat Obs.Latency.Exec (tend - att_ts);
            Obs.Latency.add lat Obs.Latency.Dep_stall (att_ts - first);
            Obs.Latency.add lat Obs.Latency.Queue_wait
              (first - o.Obs.Worker.start_ns));
        true
    | Txn.Commit -> (
        let commit_ts =
          match ob with
          | None -> 0
          | Some o ->
              let ts = R.now_ns () in
              Obs.Buf.end_span o.Obs.Worker.buf ~ts;
              Obs.Buf.begin_span o.Obs.Worker.buf ~phase:"commit" ~batch ~ts;
              ts
        in
        (* Phase 1: lock written records in sorted key order (the declared
           write-set array is sorted; skip keys the logic never wrote). *)
        let lock_list = ref [] in
        Array.iter
          (fun k ->
            match Local_writes.find buffer k with
            | None -> ()
            | Some v ->
                let r = Store.get t.store k in
                let pre = lock_record r in
                lock_list := (k, r, v, pre) :: !lock_list)
          txn.Txn.write_set;
        let locked_by_me r = List.exists (fun (_, r', _, _) -> r' == r) !lock_list in
        let unlock_all ~restore =
          List.iter
            (fun (_, r, _, pre) ->
              if restore then R.Cell.set r.tid pre
              else
                (* caller already stored the new TID *)
                ())
            !lock_list
        in
        (* Phase 2: validate the read set — each TID unchanged and not
           locked by another transaction. *)
        try
          List.iter
            (fun (r, tid_seen) ->
              let cur = R.Cell.get r.tid in
              if locked cur && not (locked_by_me r) then raise Conflict;
              if cur lor 1 <> tid_seen lor 1 then raise Conflict)
            !reads;
          (* Phase 3: decentralized TID, then install and unlock. *)
          let seq = ref t.last_seq.(me) in
          List.iter (fun (r, tid_seen) -> ignore r; seq := max !seq (tid_seen asr 1)) !reads;
          List.iter (fun (_, _, _, pre) -> seq := max !seq (pre asr 1)) !lock_list;
          let commit_tid = (!seq + 1) lsl 1 in
          t.last_seq.(me) <- !seq + 1;
          List.iter
            (fun (k, r, v, _) ->
              (* In-place update of the line just read: cache-resident. *)
              R.work (Store.record_bytes t.store k / 16);
              R.Cell.set r.value v;
              R.Cell.set r.tid commit_tid)
            !lock_list;
          stat.committed <- stat.committed + 1;
          (match ob with
          | None -> ()
          | Some o ->
              let tend = R.now_ns () in
              Obs.Buf.end_span o.Obs.Worker.buf ~ts:tend;
              let lat = o.Obs.Worker.lat in
              Obs.Latency.add lat Obs.Latency.Exec (commit_ts - att_ts);
              Obs.Latency.add lat Obs.Latency.Cc_wait (tend - commit_ts);
              Obs.Latency.add lat Obs.Latency.Dep_stall (att_ts - first);
              Obs.Latency.add lat Obs.Latency.Queue_wait
                (first - o.Obs.Worker.start_ns));
          true
        with Conflict ->
          unlock_all ~restore:true;
          Obs.Metrics.incr stat.ms Obs.Metrics.read_validation_aborts;
          (match ob with
          | None -> ()
          | Some o ->
              let ts = R.now_ns () in
              Obs.Buf.end_span o.Obs.Worker.buf ~ts;
              Obs.Buf.instant o.Obs.Worker.buf ~name:"validation_abort" ~batch
                ~ts);
          false)

  let worker_loop t me stat ob txns =
    let n = Array.length txns in
    let idx = ref me in
    (* Adaptive back-off carried across transactions: doubled on abort,
       halved on success. This is Silo's pacing under write-write
       contention, which the paper credits for OCC degrading gracefully
       where Hekaton and SI collapse (§4.2.1). *)
    let backoff = ref 1 in
    while !idx < n do
      let first = match ob with None -> 0 | Some _ -> R.now_ns () in
      while not (run_attempt t me stat ob ~first ~seq:!idx txns.(!idx)) do
        R.relax_n !backoff;
        if !backoff < max_backoff then backoff := !backoff * 2
      done;
      if !backoff > 1 then backoff := max 1 (!backoff * 3 / 4);
      idx := !idx + t.workers
    done

  let run t txns =
    let stats =
      Array.init t.workers (fun _ ->
          { committed = 0; logic_aborts = 0; ms = Obs.Metrics.shard () })
    in
    let recorder = Obs.Recorder.current () in
    let start_ns = match recorder with None -> 0 | Some _ -> R.now_ns () in
    let obs =
      Array.init t.workers (fun me ->
          match recorder with
          | None -> None
          | Some r ->
              Some
                (Obs.Worker.make
                   ~buf:(Obs.Recorder.track r ~name:(Printf.sprintf "occ-%d" me))
                   ~lat:(Obs.Latency.create ()) ~start_ns))
    in
    let start = R.now () in
    let threads =
      List.init t.workers (fun me ->
          R.spawn (fun () -> worker_loop t me stats.(me) obs.(me) txns))
    in
    List.iter R.join threads;
    let elapsed = R.now () -. start in
    let latency =
      Obs.Latency.merge_all
        (Array.to_list obs
        |> List.filter_map (Option.map (fun o -> o.Obs.Worker.lat)))
    in
    let sum f = Array.fold_left (fun acc s -> acc + f s) 0 stats in
    let sheet =
      Obs.Metrics.collect
        ~select:Obs.Metrics.[ read_validation_aborts; read_retries ]
        (Array.to_list (Array.map (fun s -> s.ms) stats))
    in
    let cc_aborts =
      int_of_float (Obs.Metrics.get sheet Obs.Metrics.read_validation_aborts)
    in
    Stats.make ~txns:(Array.length txns)
      ~committed:(sum (fun s -> s.committed))
      ~logic_aborts:(sum (fun s -> s.logic_aborts))
      ~cc_aborts ~elapsed ~latency
      ~extra:(Obs.Metrics.to_extra sheet) ()

  let read_latest t k = R.Cell.get (Store.get t.store k).value

  (* Post-quiescence audit: Silo keeps one version per record, so the
     chain invariants reduce to "no TID word still carries the lock
     bit" — a locked record after the joins is a commit that never
     finished phase 3. *)
  let check_chains t report =
    R.without_cost (fun () ->
        Store.iter t.store (fun k r ->
            let tid = R.Cell.get r.tid in
            if locked tid then
              Bohm_analysis.Report.add report ~key:k
                Bohm_analysis.Report.Chain_dangling_lock
                (Printf.sprintf "TID word %d still locked after quiescence" tid)))
end
