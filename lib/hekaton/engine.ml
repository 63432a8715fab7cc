module Key = Bohm_txn.Key
module Value = Bohm_txn.Value
module Txn = Bohm_txn.Txn
module Stats = Bohm_txn.Stats

(* Work charges (cycles). *)
let dispatch_work = 150
let read_resolve_work = 16
let write_setup_work = 30
let validate_per_read_work = 12

let max_backoff = 4096

type mode = Hekaton | Snapshot

module Make (R : Bohm_runtime.Runtime_intf.S) = struct
  module Store = Bohm_storage.Store.Make (R)
  module Sync = Bohm_runtime.Sync.Make (R)
  module Obs = Bohm_obs

  (* Transaction descriptor states. *)
  let st_active = 0
  let st_preparing = 1
  let st_committed = 2
  let st_aborted = 3

  type htxn = {
    state : int R.Cell.t;
    end_ts : int R.Cell.t;  (* meaningful once state >= preparing *)
    dep_count : int R.Cell.t;
    dep_failed : int R.Cell.t;
    dependents : dep_state R.Cell.t;
  }

  and dep_state = Open of htxn list | Resolved of bool

  type meta = Ts of int | Owned of htxn

  type version = {
    begin_meta : meta R.Cell.t;
    end_meta : meta R.Cell.t;
    data : Value.t;
    prev : version option;  (* immutable: these baselines never GC *)
  }

  type t = {
    mode : mode;
    workers : int;
    store : version R.Cell.t Store.t;
    (* The global timestamp counter — the contended cell. *)
    counter : int R.Cell.t;
  }

  (* One shared [Ts max_int]: physical equality makes the "end is still
     infinity" CAS cheap and exact. *)
  let ts_infinity = Ts max_int

  (* Hekaton is latch-free and optimistic throughout: every cell is read
     and CASed by concurrent workers with visibility resolved from the
     values themselves, so every cell is a synchronization cell for the
     race tracer (the CASes would promote most of them anyway; marking
     covers the plain reads that race ahead of the first RMW). *)
  let sync c =
    R.Cell.mark_sync c;
    c

  type conflict_reason = Ww | Validation | Dep
  exception Conflict of conflict_reason

  let conflict_name = function
    | Ww -> "ww_abort"
    | Validation -> "validation_abort"
    | Dep -> "dep_abort"

  type worker_stat = {
    mutable committed : int;
    mutable logic_aborts : int;
    (* Telemetry counters (counter_faa, version_steps, and the three
       abort species, which also fold into the charged [cc_aborts] total
       at merge): one metrics shard per worker, summed at the join. *)
    ms : Obs.Metrics.shard;
  }

  type attempt = {
    self : htxn;
    begin_ts : int;
    mutable reads : (Key.t * version) list;
    (* (old version, new version, slot); cons order = write order. *)
    mutable writes : (version * version * version R.Cell.t) list;
  }

  let create ~mode ~workers ~tables init =
    if workers <= 0 then invalid_arg "Hekaton: workers must be positive";
    {
      mode;
      workers;
      store = Store.create_array ~tables (fun k -> sync (R.Cell.make
        {
          begin_meta = sync (R.Cell.make (Ts 0));
          end_meta = sync (R.Cell.make ts_infinity);
          data = init k;
          prev = None;
        }));
      counter = sync (R.Cell.make 1);
    }

  (* --- visibility --- *)

  type begin_status = Vis | Newer | Skip | Spec of htxn

  let resolve_begin self my_begin v =
    match R.Cell.get v.begin_meta with
    | Ts b -> if b <= my_begin then Vis else Newer
    | Owned tx when tx == self -> Vis
    | Owned tx ->
        let s = R.Cell.get tx.state in
        if s = st_committed then
          if R.Cell.get tx.end_ts <= my_begin then Vis else Newer
        else if s = st_aborted then Skip
        else if s = st_preparing then
          if R.Cell.get tx.end_ts <= my_begin then Spec tx else Newer
        else Newer

  (* Whether [v]'s end stamp still covers [my_begin] — i.e. no {e committed}
     overwrite at or before the snapshot. Uncommitted or aborted
     overwriters leave the version visible. *)
  let end_covers self my_begin v =
    match R.Cell.get v.end_meta with
    | Ts e -> e > my_begin
    | Owned tx when tx == self -> true
    | Owned tx ->
        not (R.Cell.get tx.state = st_committed && R.Cell.get tx.end_ts <= my_begin)

  let rec find_visible stat att v =
    match resolve_begin att.self att.begin_ts v with
    | Vis when end_covers att.self att.begin_ts v -> (v, None)
    | Spec tx -> (v, Some tx)
    | Vis | Newer | Skip -> (
        Obs.Metrics.incr stat.ms Obs.Metrics.version_steps;
        match v.prev with
        | Some p -> find_visible stat att p
        | None -> assert false (* the bulk-loaded version is always visible *))

  (* Reader takes a commit dependency on a Preparing producer (§4.2.1,
     "commit dependencies"). *)
  let register_dependency att producer =
    R.Cell.incr att.self.dep_count;
    let rec push () =
      match R.Cell.get producer.dependents with
      | Open l as cur ->
          if not (R.Cell.cas producer.dependents cur (Open (att.self :: l)))
          then push ()
      | Resolved true ->
          (* Producer already committed and notified; undo our count. *)
          ignore (R.Cell.faa att.self.dep_count (-1))
      | Resolved false -> raise (Conflict Dep)
    in
    push ()

  let resolve_dependents self committed =
    let rec swap () =
      match R.Cell.get self.dependents with
      | Open l as cur ->
          if R.Cell.cas self.dependents cur (Resolved committed) then l
          else swap ()
      | Resolved _ -> []
    in
    List.iter
      (fun d ->
        if committed then ignore (R.Cell.faa d.dep_count (-1))
        else R.Cell.set d.dep_failed 1)
      (swap ())

  (* --- write path: first-writer-wins on the newest version --- *)

  let do_write t att k value =
    R.work write_setup_work;
    let slot = Store.get t.store k in
    let head = R.Cell.get slot in
    match resolve_begin att.self att.begin_ts head with
    | Newer | Skip | Spec _ ->
        (* A version newer than our snapshot exists (or is in flight):
           write-write conflict, first-committer-wins. *)
        raise (Conflict Ww)
    | Vis -> (
        match R.Cell.get head.end_meta with
        | Ts e as cur when e = max_int ->
            if not (R.Cell.cas head.end_meta cur (Owned att.self)) then
              raise (Conflict Ww);
            R.copy ~bytes:(Store.record_bytes t.store k);
            let nv =
              {
                begin_meta = sync (R.Cell.make (Owned att.self));
                end_meta = sync (R.Cell.make ts_infinity);
                data = value;
                prev = Some head;
              }
            in
            (* We own [head.end_meta], so only we may install the
               successor. *)
            R.Cell.set slot nv;
            att.writes <- (head, nv, slot) :: att.writes
        | Ts _ | Owned _ -> raise (Conflict Ww))

  (* --- read validation (Hekaton mode, §2.2 "Validate Reads") --- *)

  let tx_settled tx =
    let s = R.Cell.get tx.state in
    s = st_committed || s = st_aborted

  let validate t att end_ts =
    ignore t;
    List.iter
      (fun (_k, v) ->
        R.work validate_per_read_work;
        match R.Cell.get v.end_meta with
        | Ts e when e > end_ts -> ()
        | Ts _ -> raise (Conflict Validation)
        | Owned tx when tx == att.self -> ()
        | Owned tx ->
            let s = R.Cell.get tx.state in
            if s = st_aborted || s = st_active then ()
            else if s = st_committed then begin
              if R.Cell.get tx.end_ts <= end_ts then raise (Conflict Validation)
            end
            else if R.Cell.get tx.end_ts < end_ts then begin
              (* Overwriter is validating with an earlier commit stamp:
                 its outcome decides ours. *)
              Sync.spin_until (fun () -> tx_settled tx);
              if R.Cell.get tx.state = st_committed then
                raise (Conflict Validation)
            end)
      att.reads

  (* --- attempt lifecycle --- *)

  let rollback att =
    R.Cell.set att.self.state st_aborted;
    List.iter
      (fun (old_v, _nv, slot) ->
        (* Cons order means the earliest write of a key is restored last,
           leaving the pre-transaction head in place. *)
        R.Cell.set slot old_v;
        R.Cell.set old_v.end_meta ts_infinity)
      att.writes;
    resolve_dependents att.self false

  let commit t stat att =
    let end_ts = R.Cell.faa t.counter 1 in
    Obs.Metrics.incr stat.ms Obs.Metrics.counter_faa;
    R.Cell.set att.self.end_ts end_ts;
    R.Cell.set att.self.state st_preparing;
    if t.mode = Hekaton then validate t att end_ts;
    (* Wait out commit dependencies. *)
    Sync.spin_until (fun () ->
        R.Cell.get att.self.dep_count = 0 || R.Cell.get att.self.dep_failed = 1);
    if R.Cell.get att.self.dep_failed = 1 then raise (Conflict Dep);
    R.Cell.set att.self.state st_committed;
    List.iter
      (fun (old_v, nv, _slot) ->
        R.Cell.set nv.begin_meta (Ts end_ts);
        R.Cell.set old_v.end_meta (Ts end_ts))
      att.writes;
    resolve_dependents att.self true

  (* [ob] is this worker's observability bundle ([None] when unobserved);
     [first] anchors dependency-stall: the [now_ns] at which the worker
     first dispatched this transaction (retries keep the original). All
     recording is host-side and uncharged. *)
  let run_attempt t stat ob ~first ~seq txn =
    (* Nominal batch for trace attribution ([Timeline]/[Critical_path]
       bucket the single-layer engines by quantized input index). *)
    let batch = seq / Obs.Timeline.baseline_quantum in
    let self =
      {
        state = sync (R.Cell.make st_active);
        end_ts = sync (R.Cell.make 0);
        dep_count = sync (R.Cell.make 0);
        dep_failed = sync (R.Cell.make 0);
        dependents = sync (R.Cell.make (Open []));
      }
    in
    let begin_ts = R.Cell.faa t.counter 1 in
    Obs.Metrics.incr stat.ms Obs.Metrics.counter_faa;
    let att = { self; begin_ts; reads = []; writes = [] } in
    (* A read-only transaction observing one consistent snapshot is
       serializable at its begin timestamp, so Hekaton skips read tracking
       and validation for it — the standard optimization; update
       transactions validate every read. *)
    let track_reads = t.mode = Hekaton && not (Txn.is_read_only txn) in
    let obs_depth =
      match ob with None -> 0 | Some o -> Obs.Buf.depth o.Obs.Worker.buf
    in
    let att_ts =
      match ob with
      | None -> 0
      | Some o ->
          let ts = R.now_ns () in
          Obs.Buf.begin_span o.Obs.Worker.buf ~phase:"exec" ~batch ~ts;
          ts
    in
    try
      R.work dispatch_work;
      let ctx =
        {
          Txn.read =
            (fun k ->
              R.work read_resolve_work;
              let head = R.Cell.get (Store.get t.store k) in
              let v, spec = find_visible stat att head in
              (match spec with
              | Some producer -> register_dependency att producer
              | None -> ());
              if track_reads then att.reads <- (k, v) :: att.reads;
              R.copy ~bytes:(Store.record_bytes t.store k);
              v.data);
          write = (fun k value -> do_write t att k value);
          spin = R.work;
        }
      in
      match txn.Txn.logic ctx with
      | Txn.Commit ->
          let commit_ts =
            match ob with
            | None -> 0
            | Some o ->
                let ts = R.now_ns () in
                Obs.Buf.end_span o.Obs.Worker.buf ~ts;
                Obs.Buf.begin_span o.Obs.Worker.buf ~phase:"commit" ~batch ~ts;
                ts
          in
          commit t stat att;
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
      | Txn.Abort ->
          rollback att;
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
    with Conflict reason ->
      rollback att;
      (match reason with
      | Ww -> Obs.Metrics.incr stat.ms Obs.Metrics.ww_aborts
      | Validation -> Obs.Metrics.incr stat.ms Obs.Metrics.validation_aborts
      | Dep -> Obs.Metrics.incr stat.ms Obs.Metrics.dep_aborts);
      (match ob with
      | None -> ()
      | Some o ->
          (* The conflict may have unwound past an open exec (and commit)
             span; close back to the attempt's entry depth so B/E pairs
             stay balanced, then mark the abort on the timeline. *)
          let ts = R.now_ns () in
          let buf = o.Obs.Worker.buf in
          while Obs.Buf.depth buf > obs_depth do
            Obs.Buf.end_span buf ~ts
          done;
          Obs.Buf.instant buf ~name:(conflict_name reason) ~batch ~ts);
      false

  let worker_loop t me stat ob txns =
    let n = Array.length txns in
    let idx = ref me in
    while !idx < n do
      let first = match ob with None -> 0 | Some _ -> R.now_ns () in
      let backoff = ref 1 in
      while not (run_attempt t stat ob ~first ~seq:!idx txns.(!idx)) do
        (* Retry after back-off, like the paper's optimistic baselines. *)
        R.relax_n !backoff;
        if !backoff < max_backoff then backoff := !backoff * 2
      done;
      idx := !idx + t.workers
    done

  let run t txns =
    let stats =
      Array.init t.workers (fun _ ->
          { committed = 0; logic_aborts = 0; ms = Obs.Metrics.shard () })
    in
    (* Observability: tracks are created on the driver thread before the
       spawns; recording is host-side and uncharged. *)
    let recorder = Obs.Recorder.current () in
    let start_ns = match recorder with None -> 0 | Some _ -> R.now_ns () in
    let track_prefix = match t.mode with Hekaton -> "hekaton" | Snapshot -> "si" in
    let obs =
      Array.init t.workers (fun me ->
          match recorder with
          | None -> None
          | Some r ->
              Some
                (Obs.Worker.make
                   ~buf:
                     (Obs.Recorder.track r
                        ~name:(Printf.sprintf "%s-%d" track_prefix me))
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
    let committed = sum (fun s -> s.committed) in
    let logic_aborts = sum (fun s -> s.logic_aborts) in
    let sheet =
      Obs.Metrics.collect
        ~select:
          Obs.Metrics.
            [ counter_faa; version_steps; ww_aborts; validation_aborts;
              dep_aborts ]
        (Array.to_list (Array.map (fun s -> s.ms) stats))
    in
    let cc_aborts =
      int_of_float
        (Obs.Metrics.get sheet Obs.Metrics.ww_aborts
        +. Obs.Metrics.get sheet Obs.Metrics.validation_aborts
        +. Obs.Metrics.get sheet Obs.Metrics.dep_aborts)
    in
    Stats.make ~txns:(Array.length txns) ~committed ~logic_aborts ~cc_aborts
      ~elapsed ~latency
      ~extra:(Obs.Metrics.to_extra sheet) ()

  (* --- inspection --- *)

  (* Post-quiescence audit. Settled chains carry [Ts] stamps on both
     sides of every version; any [Owned] metadata surviving the joins is
     a transaction that never released its write — reported as a dangling
     owner, and the key's order/consistency checks are skipped since its
     stamps are not yet numbers. *)
  let check_chains t report =
    R.without_cost (fun () ->
        Store.iter t.store (fun k slot ->
            let dangling = ref false in
            let meta_ts which m =
              match m with
              | Ts e -> Some e
              | Owned _ ->
                  dangling := true;
                  Bohm_analysis.Report.add report ~key:k
                    Bohm_analysis.Report.Chain_dangling_lock
                    (which ^ " stamp still owned after quiescence");
                  None
            in
            let rec entries v acc =
              let b = meta_ts "begin" (R.Cell.get v.begin_meta) in
              let e = meta_ts "end" (R.Cell.get v.end_meta) in
              let acc =
                match (b, e) with
                | Some b, Some e ->
                    Bohm_analysis.Chain.entry ~begin_ts:b ~end_ts:(Some e)
                      ~filled:true ()
                    :: acc
                | _ -> acc
              in
              match v.prev with
              | None -> List.rev acc
              | Some p -> entries p acc
            in
            let es = entries (R.Cell.get slot) [] in
            if not !dangling then Bohm_analysis.Chain.check_key report k es))

  let read_latest t k =
    let rec newest v =
      match R.Cell.get v.begin_meta with
      | Ts _ -> v.data
      | Owned _ -> (
          match v.prev with Some p -> newest p | None -> v.data)
    in
    newest (R.Cell.get (Store.get t.store k))

  let chain_length t k =
    let rec go v acc =
      match v.prev with Some p -> go p (acc + 1) | None -> acc
    in
    go (R.Cell.get (Store.get t.store k)) 1
end
