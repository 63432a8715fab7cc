(* Typed metrics registry: the single producer of the [Stats.extra]
   key/value surface. Every counter and gauge any engine exports is
   declared here once, with an integer id, a kind and a doc string; the
   engines accumulate into per-thread [shard]s (plain float arrays
   indexed by id, single-writer, host-side only — never charged) and the
   driver folds the shards into a [sheet] at the end-of-run barrier.

   [to_extra] reproduces the historical ad-hoc extras exactly: same
   keys, same values, later normalized (sorted, dup-last-wins) by
   [Stats.make]. *)

type kind = Counter | Gauge
type def = { id : int; d_name : string; d_kind : kind; d_doc : string }

let registry : (string, def) Hashtbl.t = Hashtbl.create 64
let defs_rev : def list ref = ref []
let next_id = ref 0

let define ?(doc = "") kind name =
  if Hashtbl.mem registry name then
    invalid_arg (Printf.sprintf "Metrics.define: duplicate metric %S" name);
  let d = { id = !next_id; d_name = name; d_kind = kind; d_doc = doc } in
  next_id := !next_id + 1;
  Hashtbl.replace registry name d;
  defs_rev := d :: !defs_rev;
  d

let intern ?(doc = "") kind name =
  match Hashtbl.find_opt registry name with
  | Some d ->
      if d.d_kind <> kind then
        invalid_arg
          (Printf.sprintf "Metrics.intern: metric %S re-interned as a %s" name
             (match kind with Counter -> "counter" | Gauge -> "gauge"));
      d
  | None -> define ~doc kind name

let name d = d.d_name
let kind d = d.d_kind
let doc d = d.d_doc
let schema () = List.rev !defs_rev
let find = Hashtbl.find_opt registry

(* ------------------------------------------------------------------ *)
(* The schema. Ids are assigned in declaration order; the tables in
   DESIGN.md §"Metrics and timeline schema" mirror these doc strings. *)

let c name doc = define ~doc Counter name
let g name doc = define ~doc Gauge name

(* BOHM pipeline — every run. *)
let gc_collected =
  c "gc_collected" "versions unlinked by Condition-3 GC (CC threads)"

let dep_blocks =
  c "dep_blocks" "exec attempts parked on an unfilled dependency"

let steals = c "steals" "exec cursor steals from a sibling's stripe"

let exec_retry_scans =
  c "exec_retry_scans" "retry-list or busy-list rescans by exec threads"

let wakeups =
  c "wakeups" "fill-triggered dependency wakeups delivered to exec"

let slabs_opened =
  g "slabs_opened" "arena slabs opened by the version allocator"

let slabs_retired =
  g "slabs_retired" "whole slabs freed at the Condition-3 watermark"

let cc_batch0_start_us =
  g "cc_batch0_start_us"
    "driver time until CC could start batch 0 (pipelined preprocessing)"

let pre_complete_us =
  g "pre_complete_us" "driver time until preprocessing finished all batches"

(* BOHM sharded runs only. *)
let cross_shard_txns =
  g "cross_shard_txns" "transactions whose footprint spans shards"

let shard_votes = g "shard_votes" "per-shard vote rounds (shards * batches)"

let vote_aborts =
  g "vote_aborts" "cross-shard transactions aborted by a peer shard's vote"

(* BOHM adaptive repartitioning — preprocessing + cc_rebalance on. *)
let rebalances = g "rebalances" "partition maps published by the LPT repacker"

let segs_moved =
  g "segs_moved" "routing segments reassigned across published maps"

let cc_imbalance_max =
  g "cc_imbalance_max" "max over batches of CC partition load imbalance"

let cc_imbalance_mean =
  g "cc_imbalance_mean" "mean over batches of CC partition load imbalance"

let cc_occ_p j =
  intern ~doc:"occupancy share of CC partition <j> under the final map" Gauge
    (Printf.sprintf "cc_occ_p%d" j)

(* Baselines. *)
let counter_faa =
  c "counter_faa" "fetch-and-adds on the global timestamp counter"

let version_steps =
  c "version_steps" "version-chain hops while locating a visible version"

let ww_aborts = c "ww_aborts" "write-write first-writer-wins aborts"
let validation_aborts = c "validation_aborts" "commit-time validation failures"
let dep_aborts = c "dep_aborts" "cascaded aborts via commit dependencies"

let read_validation_aborts =
  c "read_validation_aborts" "OCC read-set validation failures"

let read_retries =
  c "read_retries" "OCC inconsistent-read retries (TID re-check)"

let locks_acquired = c "locks_acquired" "2PL locks granted"

let read_stamps =
  c "read_stamps" "MVTO reader timestamp stamps (CAS on read_ts)"

let reader_induced_aborts =
  c "reader_induced_aborts" "MVTO writes under an already-read stamp"

let wait_aborts =
  c "wait_aborts" "MVTO writes above an unsettled in-flight write"

(* ------------------------------------------------------------------ *)

type shard = { mutable vals : float array }

let ensure len arr =
  let n = Array.length !arr in
  if n < len then begin
    let bigger = Array.make (max len (max 16 (2 * n))) 0. in
    Array.blit !arr 0 bigger 0 n;
    arr := bigger
  end

let shard () = { vals = Array.make !next_id 0. }

let addf sh d v =
  if Array.length sh.vals <= d.id then begin
    let r = ref sh.vals in
    ensure (d.id + 1) r;
    sh.vals <- !r
  end;
  sh.vals.(d.id) <- sh.vals.(d.id) +. v

let add sh d v = addf sh d (float_of_int v)
let incr sh d = addf sh d 1.

let peek sh d =
  if Array.length sh.vals <= d.id then 0. else sh.vals.(d.id)

type sheet = { mutable svals : float array; mutable sel : bool array }

let grow sheet len =
  if Array.length sheet.svals < len then begin
    let r = ref sheet.svals in
    ensure len r;
    sheet.svals <- !r;
    let s = Array.make (Array.length !r) false in
    Array.blit sheet.sel 0 s 0 (Array.length sheet.sel);
    sheet.sel <- s
  end

let collect ~select shards =
  let n = !next_id in
  let sheet = { svals = Array.make n 0.; sel = Array.make n false } in
  List.iter (fun d -> sheet.sel.(d.id) <- true) select;
  List.iter
    (fun sh ->
      Array.iteri
        (fun i v -> if v <> 0. then sheet.svals.(i) <- sheet.svals.(i) +. v)
        sh.vals)
    shards;
  sheet

let set sheet d v =
  grow sheet (d.id + 1);
  sheet.svals.(d.id) <- v;
  sheet.sel.(d.id) <- true

let seti sheet d v = set sheet d (float_of_int v)

let get sheet d =
  if Array.length sheet.svals <= d.id then 0. else sheet.svals.(d.id)

let to_extra sheet =
  List.filter_map
    (fun d ->
      if Array.length sheet.sel > d.id && sheet.sel.(d.id) then
        Some (d.d_name, get sheet d)
      else None)
    (schema ())
