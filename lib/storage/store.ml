module Key = Bohm_txn.Key

(* Index-probe costs in cycles; slot contents are charged separately by the
   engines through Cell accesses. Misses pay for the chain entries they
   walked before giving up, exactly like hits (the failure path is not
   free in a real hash index). *)
let array_probe_cost = 6
let hash_probe_cost = 24
let chain_step_cost = 10

module Make (R : Bohm_runtime.Runtime_intf.S) = struct
  type 'a backend =
    | Array_backend of 'a array
    | Hash_backend of {
        start : int array;
            (* bucket [b]'s chain is entries [start.(b)] .. [start.(b+1) - 1] *)
        rows : int array;
        slots : 'a array;
        mask : int;
      }

  type 'a t = {
    tables : Table.t array;
    per_table : 'a backend array;
    (* Diagnostic count of charged index probes (hits and misses). A
       Metric, not a Cell: incrementing it must not perturb the cost
       model. Exact on the cooperative simulator (plain int) and under
       real parallelism (Atomic-backed). *)
    probes : R.Metric.t;
  }

  let check_schema tables =
    Array.iteri
      (fun i (tbl : Table.t) ->
        if tbl.Table.tid <> i then
          invalid_arg "Store: tables must be indexed by tid")
      tables

  let create_array ~tables init =
    check_schema tables;
    let per_table =
      Array.map
        (fun (tbl : Table.t) ->
          Array_backend
            (Array.init tbl.Table.rows (fun row ->
                 init (Key.make ~table:tbl.Table.tid ~row))))
        tables
    in
    { tables; per_table; probes = R.Metric.make () }

  let rec next_pow2 n acc = if acc >= n then acc else next_pow2 n (acc * 2)

  let create_hash ?(bucket_factor = 1) ~tables init =
    check_schema tables;
    if bucket_factor <= 0 then invalid_arg "Store.create_hash: bucket_factor";
    let per_table =
      Array.map
        (fun (tbl : Table.t) ->
          let n = tbl.Table.rows and tid = tbl.Table.tid in
          let n_buckets = next_pow2 (max 1 (n / bucket_factor)) 1 in
          let mask = n_buckets - 1 in
          let bucket row = Key.hash (Key.make ~table:tid ~row) land mask in
          (* Counting sort of the rows by bucket: [start.(b + 1)] first
             counts bucket [b], then prefix sums turn counts into ends. *)
          let start = Array.make (n_buckets + 1) 0 in
          for row = 0 to n - 1 do
            let b = bucket row in
            start.(b + 1) <- start.(b + 1) + 1
          done;
          for b = 1 to n_buckets do
            start.(b) <- start.(b) + start.(b - 1)
          done;
          (* Fill each chain from its end in descending row order, so it
             lists rows ascending and [init] runs in the same order as
             ever (cell ids in traces depend on it). *)
          let fill = Array.sub start 1 n_buckets in
          let rows = Array.make n 0 in
          let slots = ref [||] in
          for row = n - 1 downto 0 do
            let b = bucket row in
            let i = fill.(b) - 1 in
            fill.(b) <- i;
            let slot = init (Key.make ~table:tid ~row) in
            (* The first slot made seeds the array. *)
            if row = n - 1 then slots := Array.make n slot;
            rows.(i) <- row;
            !slots.(i) <- slot
          done;
          Hash_backend { start; rows; slots = !slots; mask })
        tables
    in
    { tables; per_table; probes = R.Metric.make () }

  (* One charged index probe. Callers on a hot path should hold on to the
     returned slot handle instead of probing again: the index is immutable
     after load, so a handle stays valid for the lifetime of the store. *)
  let probe t k =
    let table = Key.table k and row = Key.row k in
    if table >= Array.length t.per_table then None
    else begin
      R.Metric.incr t.probes;
      match t.per_table.(table) with
      | Array_backend slots ->
          R.work array_probe_cost;
          if row >= Array.length slots then None else Some slots.(row)
      | Hash_backend { start; rows; slots; mask } ->
          let b = Key.hash k land mask in
          let first = start.(b) and last = start.(b + 1) in
          let i = ref first in
          while !i < last && rows.(!i) <> row do
            incr i
          done;
          (* A miss walked the whole chain, [last - first] entries. *)
          R.work (hash_probe_cost + ((!i - first) * chain_step_cost));
          if !i < last then Some slots.(!i) else None
    end

  let get t k = match probe t k with Some slot -> slot | None -> raise Not_found
  let probe_count t = R.Metric.get t.probes
  let reset_probe_count t = R.Metric.reset t.probes

  let tables t = t.tables

  let table t tid =
    if tid < 0 || tid >= Array.length t.tables then raise Not_found;
    t.tables.(tid)

  let record_bytes t k = (table t (Key.table k)).Table.record_bytes

  let iter t f =
    Array.iteri
      (fun tid backend ->
        match backend with
        | Array_backend slots ->
            Array.iteri (fun row slot -> f (Key.make ~table:tid ~row) slot) slots
        | Hash_backend { rows; slots; _ } ->
            (* Visit in row order for a deterministic traversal. *)
            let at = Array.make (Array.length rows) 0 in
            Array.iteri (fun i row -> at.(row) <- i) rows;
            Array.iteri
              (fun row i -> f (Key.make ~table:tid ~row) slots.(i))
              at)
      t.per_table
end
