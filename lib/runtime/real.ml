let name = "real"

module Cell = struct
  type 'a t = 'a Atomic.t

  let make = Atomic.make
  let get = Atomic.get
  let set = Atomic.set
  let cas = Atomic.compare_and_set
  let faa = Atomic.fetch_and_add
  let incr = Atomic.incr

  (* Tracing is simulator-only; classification has nothing to hook. *)
  let mark_sync _ = ()
end

module Metric = struct
  type t = int Atomic.t

  let make () = Atomic.make 0
  let incr = Atomic.incr
  let get = Atomic.get
  let reset t = Atomic.set t 0
end

type thread = unit Domain.t

let spawn body = Domain.spawn body
let join t = Domain.join t

(* [Sys.opaque_identity] defeats constant folding so the loop really spins;
   one iteration is on the order of a cycle, which is all the precision the
   callers need. *)
let work n =
  for _ = 1 to n do
    ignore (Sys.opaque_identity 0)
  done

let copy ~bytes = work (bytes / 8)
let relax () = Domain.cpu_relax ()

let relax_n n =
  for _ = 1 to n do
    Domain.cpu_relax ()
  done

let now () = Unix.gettimeofday ()
let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)
let without_cost f = f ()
