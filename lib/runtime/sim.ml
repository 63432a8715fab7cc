exception Deadlock of string

let name = "sim"

(* A thread's state lives in the run's [threads] array, indexed by id; the
   run queue holds ids. While a thread is off the CPU its continuation is
   kept here rather than in a closure, and [spin] counts the relaxes of
   an interrupted [relax_n] run that the scheduler still has to perform
   for it before resuming the fiber (0 while the fiber runs). *)
type thread_state = {
  id : int;
  mutable clock : int;
  mutable finished : bool;
  mutable joiners : thread_state list;
  mutable k : (unit, unit) Effect.Deep.continuation;
  mutable spin : int;
  mutable body : unit -> unit;
}

type thread = thread_state

type sched = {
  runnable : Bohm_util.Heap.t;
  mutable threads : thread_state array;
  mutable current : thread_state;
  mutable live : int;
  mutable next_id : int;
  mutable charging : bool;
  mutable step_count : int;
  mutable empty_relax_streak : int;
  jitter : Bohm_util.Rng.t option;
}

let state : sched option ref = ref None
let last_makespan = ref 0.
let last_steps = ref 0

type _ Effect.t += Yield : unit Effect.t | Join_wait : thread_state -> unit Effect.t

(* The continuation of a thread that has not started yet: captured once,
   never resumed, and only ever compared physically. *)
let not_started : (unit, unit) Effect.Deep.continuation =
  let captured : (unit, unit) Effect.Deep.continuation option ref = ref None in
  Effect.Deep.try_with Effect.perform Yield
    {
      effc =
        (fun (type a) (eff : a Effect.t) :
             ((a, unit) Effect.Deep.continuation -> unit) option ->
          match eff with
          | Yield -> Some (fun k -> captured := Some k)
          | _ -> None);
    };
  Option.get !captured

(* Priorities are clocks scaled by 256 so that the low byte can carry
   scheduling jitter without perturbing the time order. *)
let priority sched clock =
  let low =
    match sched.jitter with None -> 0 | Some rng -> Bohm_util.Rng.int rng 256
  in
  (clock * 256) + low

let enqueue sched ts =
  Bohm_util.Heap.push sched.runnable ~priority:(priority sched ts.clock) ts.id

(* Another runnable thread is logically earlier than [ts]. While the
   current thread holds the minimum clock its operations cannot be
   affected by anyone else, so it may keep running (conservative PDES
   fast path). *)
let must_yield sched ts =
  Bohm_util.Heap.min_priority sched.runnable < ts.clock * 256

let maybe_yield sched ts = if must_yield sched ts then Effect.perform Yield

let current sched = sched.current

let get_sched () =
  match !state with
  | Some s -> s
  | None -> invalid_arg "Sim: operation outside Sim.run"

module Cell = struct
  (* Six words a cell: two flags ride in the low bit of an int field. *)
  type 'a t = {
    mutable v : 'a;
    mutable own : int;
        (* id of the last writer (-1 = fresh) shifted left one bit; the
           low bit is set once some non-owner has read since that write *)
    mutable avail : int; (* virtual time at which the line is free *)
    mutable last_write : int; (* completion time of the last write *)
    mutable tag : int;
        (* unique id for the optional access tracer, shifted left one
           bit; the low bit marks a synchronization cell (see
           Cell.mark_sync) *)
  }

  let owned_by id = id lsl 1
  let fresh = owned_by (-1)
  let shared c = c.own land 1 = 1
  let cid c = c.tag asr 1
  let sync c = c.tag land 1 = 1

  (* Not a Cell and uncharged: cells are created on one thread. *)
  let cell_counter = ref 0

  let make v =
    incr cell_counter;
    { v; own = fresh; avail = 0; last_write = min_int; tag = !cell_counter lsl 1 }

  let mark_sync c = c.tag <- c.tag lor 1

  (* Report an access to the installed tracer, if any. Never touches the
     virtual clock: traced runs charge exactly what untraced runs do.
     Accesses outside a simulation (setup code) are not reported — there
     is no thread to attribute them to, and nothing runs concurrently. *)
  let trace c kind =
    match !Trace.sink with
    | None -> ()
    | Some sink -> (
        match !state with
        | None -> ()
        | Some s ->
            let ts = current s in
            sink.Trace.on_access ~cell:(cid c) ~sync:(sync c) ~thread:ts.id
              ~clock:ts.clock ~kind)

  (* A line written recently by some core is "hot": accesses pay a
     cache-to-cache transfer. A long-untouched line is merely a DRAM
     miss. *)
  let hot c now = now - c.last_write < !Costs.recency_window

  let get c =
    match !state with
    | None -> c.v
    | Some s ->
        let ts = current s in
        if s.charging then begin
          let cost =
            if c.own asr 1 = ts.id || shared c then !Costs.cache_hit
            else begin
              let cost =
                if hot c ts.clock then !Costs.coherence_read else !Costs.dram_read
              in
              c.own <- c.own lor 1;
              cost
            end
          in
          let start = if ts.clock < c.avail then c.avail else ts.clock in
          ts.clock <- start + cost;
          maybe_yield s ts
        end;
        trace c Trace.Read;
        c.v

  (* Charge for exclusive ownership of the line and reserve it until the
     operation's completion time, so concurrent writers serialize. The
     mutation itself happens after [maybe_yield], i.e. at the thread's final
     clock, which the reservation guarantees is untouched by others. *)
  let charge_exclusive s ts c base_cost =
    let transfer =
      if c.own = owned_by ts.id then 0 (* owned and unshared *)
      else if c.own < 0 then 0 (* freshly allocated: no one holds it *)
      else if hot c ts.clock then !Costs.line_transfer
      else !Costs.dram_write
    in
    let start = if ts.clock < c.avail then c.avail else ts.clock in
    ts.clock <- start + base_cost + transfer;
    c.avail <- ts.clock;
    c.own <- owned_by ts.id;
    c.last_write <- ts.clock;
    maybe_yield s ts

  let set c v =
    match !state with
    | None -> c.v <- v
    | Some s ->
        let ts = current s in
        if s.charging then charge_exclusive s ts c !Costs.store_owned;
        c.v <- v;
        trace c Trace.Write

  (* Atomic RMWs are synchronization by nature (locks, claims, counters):
     the first one permanently promotes the cell to the sync class. *)
  let cas c expected desired =
    match !state with
    | None ->
        if c.v == expected then begin
          c.v <- desired;
          true
        end
        else false
    | Some s ->
        let ts = current s in
        if s.charging then charge_exclusive s ts c !Costs.atomic_rmw;
        mark_sync c;
        let won =
          if c.v == expected then begin
            c.v <- desired;
            true
          end
          else false
        in
        trace c Trace.Rmw;
        won

  let faa c n =
    match !state with
    | None ->
        let old = c.v in
        c.v <- old + n;
        old
    | Some s ->
        let ts = current s in
        if s.charging then charge_exclusive s ts c !Costs.atomic_rmw;
        mark_sync c;
        let old = c.v in
        c.v <- old + n;
        trace c Trace.Rmw;
        old

  let incr c = ignore (faa c 1)
end

module Metric = struct
  (* Exact on the cooperative simulator (no preemption inside [incr]) and
     free of model cost by construction: not a Cell. *)
  type t = { mutable n : int }

  let make () = { n = 0 }
  let incr t = t.n <- t.n + 1
  let get t = t.n
  let reset t = t.n <- 0
end

let work n =
  match !state with
  | None -> ()
  | Some s ->
      if s.charging then begin
        let ts = current s in
        ts.clock <- ts.clock + n;
        maybe_yield s ts
      end

let copy ~bytes =
  let per = !Costs.bytes_per_cycle in
  work (if per <= 0 then bytes else bytes / per)

let relax_streak_limit = 100_000

(* One relax up to its yield check: the empty-queue streak, then the
   charge. [false] when the streak has passed its limit: the caller
   spins but no other thread is runnable, so nothing can release it. *)
let relax_charge s ts =
  if Bohm_util.Heap.is_empty s.runnable then
    s.empty_relax_streak <- s.empty_relax_streak + 1
  else s.empty_relax_streak <- 0;
  s.empty_relax_streak <= relax_streak_limit
  && begin
       if s.charging then ts.clock <- ts.clock + !Costs.relax_base;
       true
     end

let spin_deadlock ts =
  Deadlock
    (Printf.sprintf "thread %d spins but no other thread is runnable" ts.id)

let relax () =
  match !state with
  | None -> ()
  | Some s ->
      let ts = current s in
      if not (relax_charge s ts) then raise (spin_deadlock ts);
      maybe_yield s ts

(* The fiber runs relaxes until one must yield, then leaves the rest of
   the run in [ts.spin] for the scheduler (see [finish_relax_run]). *)
let relax_n n =
  match !state with
  | None -> ()
  | Some s ->
      let ts = current s in
      let left = ref n in
      while !left > 0 do
        decr left;
        if not (relax_charge s ts) then raise (spin_deadlock ts);
        if must_yield s ts then begin
          ts.spin <- !left;
          left := 0;
          Effect.perform Yield
        end
      done

let now () =
  match !state with
  | None -> !last_makespan
  | Some s -> float_of_int (current s).clock /. Costs.cycles_per_second

(* Uncharged, yield-free clock sample for the observability layer: the
   thread's virtual clock in cycles. Outside a simulation, the last
   makespan (so post-run exports see a consistent end-of-run stamp). *)
let now_ns () =
  match !state with
  | None -> int_of_float (!last_makespan *. Costs.cycles_per_second)
  | Some s -> (current s).clock

let virtual_time = now
let steps () = match !state with None -> !last_steps | Some s -> s.step_count

let without_cost f =
  let s = get_sched () in
  let saved = s.charging in
  s.charging <- false;
  Fun.protect ~finally:(fun () -> s.charging <- saved) f

let trace_join ~joiner ~joined =
  match !Trace.sink with
  | None -> ()
  | Some sink -> sink.Trace.on_join ~joiner ~joined

(* Wake the joiners in the order the list holds them; their
   continuations are already in their thread states. *)
let finish sched ts =
  ts.finished <- true;
  sched.live <- sched.live - 1;
  let wake w =
    if w.clock < ts.clock then w.clock <- ts.clock;
    trace_join ~joiner:w.id ~joined:ts.id;
    enqueue sched w
  in
  List.iter wake ts.joiners;
  ts.joiners <- []

let start sched ts =
  let body = ts.body in
  ts.body <- ignore (* the run's thread array must not keep it alive *);
  (* Allocated once per thread, not once per yield. *)
  let park =
    Some
      (fun (k : (unit, unit) Effect.Deep.continuation) ->
        ts.k <- k;
        enqueue sched ts)
  in
  Effect.Deep.match_with
    (fun () ->
      body ();
      finish sched ts)
    ()
    {
      retc = (fun () -> ());
      exnc = (fun e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) :
             ((a, unit) Effect.Deep.continuation -> unit) option ->
          match eff with
          | Yield -> park
          | Join_wait target ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  ts.k <- k;
                  if target.finished then begin
                    if ts.clock < target.clock then ts.clock <- target.clock;
                    trace_join ~joiner:ts.id ~joined:target.id;
                    enqueue sched ts
                  end
                  else target.joiners <- ts :: target.joiners)
          | _ -> None);
    }

(* Run the relaxes left in [ts.spin] on the scheduler's stack, each
   exactly as [relax] would in the fiber: the same streak check, the same
   charge, the same yield test and push. The fiber resumes only once the
   run is over; a streak past its limit raises [Deadlock] inside it, so
   its finalisers run. *)
let rec finish_relax_run sched ts =
  if ts.spin = 0 then Effect.Deep.continue ts.k ()
  else begin
    ts.spin <- ts.spin - 1;
    if not (relax_charge sched ts) then begin
      ts.spin <- 0;
      Effect.Deep.discontinue ts.k (spin_deadlock ts)
    end
    else if must_yield sched ts then enqueue sched ts
    else finish_relax_run sched ts
  end

let make_thread id ~clock body =
  {
    id;
    clock;
    finished = false;
    joiners = [];
    k = not_started;
    spin = 0;
    body;
  }

let spawn body =
  let s = get_sched () in
  let parent = current s in
  if s.charging then parent.clock <- parent.clock + !Costs.spawn_cost;
  let ts = make_thread s.next_id ~clock:parent.clock body in
  s.next_id <- s.next_id + 1;
  s.live <- s.live + 1;
  if ts.id = Array.length s.threads then begin
    let threads = Array.make (2 * ts.id) ts in
    Array.blit s.threads 0 threads 0 ts.id;
    s.threads <- threads
  end;
  s.threads.(ts.id) <- ts;
  (match !Trace.sink with
  | None -> ()
  | Some sink -> sink.Trace.on_spawn ~parent:parent.id ~child:ts.id);
  enqueue s ts;
  ts

let join ts =
  let s = get_sched () in
  let me = current s in
  if ts.finished then begin
    if me.clock < ts.clock then me.clock <- ts.clock;
    trace_join ~joiner:me.id ~joined:ts.id
  end
  else Effect.perform (Join_wait ts)

let run ?jitter body =
  if !state <> None then invalid_arg "Sim.run: nested simulations not supported";
  let result = ref None in
  let main = make_thread 0 ~clock:0 (fun () -> result := Some (body ())) in
  let sched =
    {
      runnable = Bohm_util.Heap.create ();
      threads = Array.make 16 main;
      current = main;
      live = 1;
      next_id = 1;
      charging = true;
      step_count = 0;
      empty_relax_streak = 0;
      jitter;
    }
  in
  state := Some sched;
  enqueue sched main;
  let finalize () =
    last_makespan := float_of_int sched.current.clock /. Costs.cycles_per_second;
    last_steps := sched.step_count;
    state := None
  in
  (try
     while not (Bohm_util.Heap.is_empty sched.runnable) do
       let ts = sched.threads.(Bohm_util.Heap.pop sched.runnable) in
       sched.step_count <- sched.step_count + 1;
       sched.current <- ts;
       if ts.k == not_started then start sched ts else finish_relax_run sched ts
     done
   with e ->
     finalize ();
     raise e);
  let live = sched.live in
  finalize ();
  if live > 0 then
    raise (Deadlock (Printf.sprintf "%d thread(s) blocked forever" live));
  match !result with
  | Some v -> v
  | None -> raise (Deadlock "main thread never completed")
