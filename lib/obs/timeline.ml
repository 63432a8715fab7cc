(* Per-batch telemetry derived by replaying a recorded run's spans and
   instants. Nothing here runs inside the engines: the recorder's buffers
   already carry a batch id on every span and instant, so the timeline is
   a pure post-run fold — obs off costs nothing, obs on charges nothing.

   A record's stage durations are wall windows (max end − min begin over
   the stage's spans in the batch, across tracks). Within one pipeline the
   watermark handshakes order the stages — preprocess(b) < rebalance(b) <
   cc(b) < exec(b) < shard_vote(b) — so the non-nested windows are
   disjoint and their sum is bounded by the batch makespan ([gc] is nested
   inside [cc] and excluded from that invariant; smoke.sh checks it). *)

type record = {
  tl_batch : int;
  tl_start : int; (* min event ts attributed to the batch *)
  tl_finish : int; (* max event ts *)
  tl_stages : (string * int) list; (* stage -> wall window, pipeline order *)
  tl_committed : int; (* batch_commit instant values *)
  tl_steals : int;
  tl_wakeups : int;
  tl_retry_scans : int;
  tl_dep_stall : int; (* blamed stall cycles (dep_stall:* instants) *)
  tl_slab_occ : int; (* max open-slab count sampled at cc span ends *)
  tl_cc_imbalance : float; (* max measured partition imbalance *)
  tl_votes : (string * int) list; (* voter track -> vote-round duration *)
}

let default_capacity = 4096

(* Quantum used by the single-layer baselines to attribute their per-txn
   spans to a nominal batch (transaction index / quantum), mirroring
   BOHM's default batch size so per-batch curves are comparable. *)
let baseline_quantum = 1000

let makespan r = r.tl_finish - r.tl_start

let stage r name =
  match List.assoc_opt name r.tl_stages with Some d -> d | None -> 0

(* Canonical stage order for reports; unknown stages keep file order after
   these. *)
let stage_rank = function
  | "sequence" -> 0
  | "preprocess" -> 1
  | "rebalance" -> 2
  | "cc" -> 3
  | "gc" -> 4
  | "lock" -> 5
  | "exec" -> 6
  | "commit" -> 7
  | "shard_vote" -> 8
  | _ -> 9

type acc = {
  mutable a_start : int;
  mutable a_finish : int;
  (* stage -> (min begin, max end, track of max end) *)
  stages : (string, int * int * string) Hashtbl.t;
  mutable a_committed : int;
  mutable a_steals : int;
  mutable a_wakeups : int;
  mutable a_retry_scans : int;
  mutable a_dep_stall : int;
  mutable a_slab_occ : int;
  mutable a_imb : float;
  votes : (string, int) Hashtbl.t;
}

let acc_make () =
  {
    a_start = max_int;
    a_finish = min_int;
    stages = Hashtbl.create 8;
    a_committed = 0;
    a_steals = 0;
    a_wakeups = 0;
    a_retry_scans = 0;
    a_dep_stall = 0;
    a_slab_occ = 0;
    a_imb = 0.;
    votes = Hashtbl.create 4;
  }

let is_blame name =
  String.length name > 10 && String.sub name 0 10 = "dep_stall:"

let of_recorder ?(capacity = default_capacity) recorder =
  let batches : (int, acc) Hashtbl.t = Hashtbl.create 64 in
  let get b =
    match Hashtbl.find_opt batches b with
    | Some a -> a
    | None ->
        let a = acc_make () in
        Hashtbl.add batches b a;
        a
  in
  let touch a ts =
    if ts < a.a_start then a.a_start <- ts;
    if ts > a.a_finish then a.a_finish <- ts
  in
  List.iter
    (fun buf ->
      let track = Buf.name buf in
      (* Replay this track's strictly nested spans; [End] events carry no
         batch, so the stack restores the attribution. *)
      let stack = ref [] in
      List.iter
        (fun (ev : Buf.event) ->
          match ev with
          | Buf.Begin { name; batch; ts } -> stack := (name, batch, ts) :: !stack
          | Buf.End { ts; _ } -> (
              match !stack with
              | [] -> () (* unbalanced buffer: ignore, validate flags it *)
              | (name, batch, ts0) :: rest ->
                  stack := rest;
                  if batch >= 0 then begin
                    let a = get batch in
                    touch a ts0;
                    touch a ts;
                    (match Hashtbl.find_opt a.stages name with
                    | None -> Hashtbl.replace a.stages name (ts0, ts, track)
                    | Some (lo, hi, hi_track) ->
                        let lo = min lo ts0 in
                        let hi, hi_track =
                          if ts >= hi then (ts, track) else (hi, hi_track)
                        in
                        Hashtbl.replace a.stages name (lo, hi, hi_track));
                    if name = "shard_vote" then
                      Hashtbl.replace a.votes track
                        ((match Hashtbl.find_opt a.votes track with
                         | Some d -> d
                         | None -> 0)
                        + (ts - ts0))
                  end)
          | Buf.Instant { name; batch; value; ts } ->
              if batch >= 0 then begin
                let a = get batch in
                touch a ts;
                if is_blame name then a.a_dep_stall <- a.a_dep_stall + value
                else
                  match name with
                  | "steal" -> a.a_steals <- a.a_steals + 1
                  | "wakeup" -> a.a_wakeups <- a.a_wakeups + 1
                  | "retry_scan" -> a.a_retry_scans <- a.a_retry_scans + 1
                  | "batch_commit" -> a.a_committed <- a.a_committed + value
                  | "slab_occ" ->
                      if value > a.a_slab_occ then a.a_slab_occ <- value
                  | "cc_imbalance" ->
                      let r = float_of_int value /. 1000. in
                      if r > a.a_imb then a.a_imb <- r
                  | _ -> ()
              end)
        (Buf.events buf))
    (Recorder.tracks recorder);
  let ids =
    Hashtbl.fold (fun b _ acc -> b :: acc) batches [] |> List.sort compare
  in
  (* Fixed-capacity ring semantics: keep the newest [capacity] batches. *)
  let ids =
    let n = List.length ids in
    if n <= capacity then ids else List.filteri (fun i _ -> i >= n - capacity) ids
  in
  List.map
    (fun b ->
      let a = Hashtbl.find batches b in
      let stages =
        Hashtbl.fold (fun name (lo, hi, _) l -> (name, hi - lo) :: l) a.stages []
        |> List.sort (fun (x, _) (y, _) ->
               let c = compare (stage_rank x) (stage_rank y) in
               if c <> 0 then c else String.compare x y)
      in
      let votes =
        Hashtbl.fold (fun t d l -> (t, d) :: l) a.votes []
        |> List.sort (fun (x, _) (y, _) -> String.compare x y)
      in
      {
        tl_batch = b;
        tl_start = (if a.a_start = max_int then 0 else a.a_start);
        tl_finish = (if a.a_finish = min_int then 0 else a.a_finish);
        tl_stages = stages;
        tl_committed = a.a_committed;
        tl_steals = a.a_steals;
        tl_wakeups = a.a_wakeups;
        tl_retry_scans = a.a_retry_scans;
        tl_dep_stall = a.a_dep_stall;
        tl_slab_occ = a.a_slab_occ;
        tl_cc_imbalance = a.a_imb;
        tl_votes = votes;
      })
    ids

(* --- JSONL export ------------------------------------------------- *)

(* The schema smoke.sh's awk gate checks: one object per line, the
   [d_<stage>] duration keys always present (0 when the stage did not
   run), batch ids strictly increasing, and
   d_sequence + d_preprocess + d_rebalance + d_cc + d_exec + d_vote
   <= makespan (gc is nested inside cc and excluded). *)
let fixed_stages =
  [
    ("d_sequence", "sequence");
    ("d_preprocess", "preprocess");
    ("d_rebalance", "rebalance");
    ("d_cc", "cc");
    ("d_gc", "gc");
    ("d_exec", "exec");
    ("d_vote", "shard_vote");
  ]

let jsonl_line r =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"batch\": %d, \"start\": %d, \"finish\": %d, \"makespan\": %d"
       r.tl_batch r.tl_start r.tl_finish (makespan r));
  List.iter
    (fun (key, st) -> Buffer.add_string b (Printf.sprintf ", \"%s\": %d" key (stage r st)))
    fixed_stages;
  (* Stages outside the fixed pipeline vocabulary (baseline engines:
     lock, commit, …) keep their own keys. *)
  List.iter
    (fun (st, d) ->
      if not (List.exists (fun (_, s) -> s = st) fixed_stages) then
        Buffer.add_string b (Printf.sprintf ", \"d_%s\": %d" st d))
    r.tl_stages;
  Buffer.add_string b
    (Printf.sprintf
       ", \"committed\": %d, \"steals\": %d, \"wakeups\": %d, \
        \"retry_scans\": %d, \"dep_stall\": %d, \
        \"slab_occ\": %d, \"cc_imbalance\": %.3f, \"votes\": {"
       r.tl_committed r.tl_steals r.tl_wakeups r.tl_retry_scans
       r.tl_dep_stall r.tl_slab_occ r.tl_cc_imbalance);
  List.iteri
    (fun i (track, d) ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b (Printf.sprintf "\"%s\": %d" track d))
    r.tl_votes;
  Buffer.add_string b "}}";
  Buffer.contents b

let write_jsonl ~path records =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun r ->
          output_string oc (jsonl_line r);
          output_char oc '\n')
        records)

(* --- Chrome counter tracks ----------------------------------------- *)

(* One sample per batch at the batch's finish instant; rendered by
   {!Chrome} as "C" (counter) events so Perfetto draws throughput and
   stall curves above the span tracks. *)
let counters records =
  List.concat_map
    (fun r ->
      let ts = r.tl_finish in
      [
        (ts, "committed", float_of_int r.tl_committed);
        (ts, "stalls", float_of_int (r.tl_steals + r.tl_wakeups + r.tl_retry_scans));
        (ts, "slab_occ", float_of_int r.tl_slab_occ);
        (ts, "cc_imbalance", r.tl_cc_imbalance);
      ])
    records
