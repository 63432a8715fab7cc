(* Entries sorted by descending (priority, push order) in two parallel int
   arrays, so the minimum is the last entry: pop is O(1) and push shifts
   the entries the new one passes. The simulator's queue holds one entry
   per runnable thread — tens — and a yielding thread usually re-enters
   close to the end it left, so this beats a binary heap's log-depth
   sifts; neither allocates once the arrays have grown, and moving ints
   never goes through the write barrier. Push order needs no field of its
   own: a push stops below every entry of equal priority, so equal
   priorities leave oldest first. *)
type t = { mutable prio : int array; mutable value : int array; mutable size : int }

let create () = { prio = [||]; value = [||]; size = 0 }
let length t = t.size
let is_empty t = t.size = 0

let grow t =
  let capacity = max 16 (2 * Array.length t.prio) in
  let extend a =
    let b = Array.make capacity 0 in
    Array.blit a 0 b 0 t.size;
    b
  in
  t.prio <- extend t.prio;
  t.value <- extend t.value

let push t ~priority v =
  if t.size = Array.length t.prio then grow t;
  let prio = t.prio and value = t.value in
  let i = ref t.size in
  while !i > 0 && prio.(!i - 1) <= priority do
    prio.(!i) <- prio.(!i - 1);
    value.(!i) <- value.(!i - 1);
    decr i
  done;
  prio.(!i) <- priority;
  value.(!i) <- v;
  t.size <- t.size + 1

let pop t =
  if t.size = 0 then invalid_arg "Heap.pop: empty heap";
  t.size <- t.size - 1;
  t.value.(t.size)

let min_priority t = if t.size = 0 then max_int else t.prio.(t.size - 1)
