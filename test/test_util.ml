(* Tests for Bohm_util: PRNG, Zipfian sampler, heap, histogram. *)

module Rng = Bohm_util.Rng
module Zipf = Bohm_util.Zipf
module Heap = Bohm_util.Heap
module Histogram = Bohm_util.Histogram

let test_rng_deterministic () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.next_int64 a <> Rng.next_int64 b then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_rng_int_bounds () =
  let rng = Rng.create ~seed:7 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of range: %d" v
  done

let test_rng_int_bound_one () =
  let rng = Rng.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check int) "bound 1 gives 0" 0 (Rng.int rng 1)
  done

let test_rng_int_invalid () =
  let rng = Rng.create ~seed:7 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_float_bounds () =
  let rng = Rng.create ~seed:3 in
  for _ = 1 to 10_000 do
    let v = Rng.float rng 1.0 in
    if v < 0. || v >= 1. then Alcotest.failf "out of range: %f" v
  done

let test_rng_uniformity () =
  (* Coarse uniformity: 10 buckets, 100k draws, each within 20% of
     expectation. *)
  let rng = Rng.create ~seed:11 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let b = Rng.int rng 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = n / 10 in
      if abs (c - expected) > expected / 5 then
        Alcotest.failf "bucket %d skewed: %d vs %d" i c expected)
    buckets

let test_rng_split_independent () =
  let parent = Rng.create ~seed:9 in
  let child = Rng.split parent in
  let collisions = ref 0 in
  for _ = 1 to 1000 do
    if Rng.next_int64 parent = Rng.next_int64 child then incr collisions
  done;
  Alcotest.(check bool) "streams diverge" true (!collisions < 5)

let test_rng_copy_replays () =
  let a = Rng.create ~seed:5 in
  ignore (Rng.next_int64 a);
  let b = Rng.copy a in
  for _ = 1 to 50 do
    Alcotest.(check int64) "copy replays" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_shuffle_permutation () =
  let rng = Rng.create ~seed:13 in
  let a = Array.init 100 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 100 Fun.id) sorted

let test_zipf_uniform_when_theta_zero () =
  let z = Zipf.create ~n:100 ~theta:0. in
  let rng = Rng.create ~seed:21 in
  let counts = Array.make 100 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let i = Zipf.sample z rng in
    counts.(i) <- counts.(i) + 1
  done;
  Array.iteri
    (fun i c ->
      if abs (c - (n / 100)) > n / 100 then
        Alcotest.failf "uniform bucket %d skewed: %d" i c)
    counts

let test_zipf_range () =
  let z = Zipf.create ~n:1000 ~theta:0.9 in
  let rng = Rng.create ~seed:23 in
  for _ = 1 to 50_000 do
    let i = Zipf.sample z rng in
    if i < 0 || i >= 1000 then Alcotest.failf "out of range: %d" i
  done

let test_zipf_skew () =
  (* At theta = 0.9 the most popular item should dwarf the median item. *)
  let z = Zipf.create ~n:1000 ~theta:0.9 in
  let rng = Rng.create ~seed:29 in
  let counts = Array.make 1000 0 in
  for _ = 1 to 200_000 do
    let i = Zipf.sample z rng in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check bool) "item 0 hot" true (counts.(0) > 20 * max 1 counts.(500));
  Alcotest.(check bool) "item 0 hottest" true
    (Array.for_all (fun c -> c <= counts.(0)) counts)

let test_zipf_matches_probability () =
  let z = Zipf.create ~n:50 ~theta:0.5 in
  let rng = Rng.create ~seed:31 in
  let n = 500_000 in
  let counts = Array.make 50 0 in
  for _ = 1 to n do
    let i = Zipf.sample z rng in
    counts.(i) <- counts.(i) + 1
  done;
  (* Head items should be within 10% of analytic probability. *)
  for i = 0 to 4 do
    let expected = Zipf.probability z i *. float_of_int n in
    let got = float_of_int counts.(i) in
    if abs_float (got -. expected) > 0.1 *. expected then
      Alcotest.failf "item %d: got %.0f expected %.0f" i got expected
  done

let test_zipf_probability_sums_to_one () =
  let z = Zipf.create ~n:200 ~theta:0.9 in
  let sum = ref 0. in
  for i = 0 to 199 do
    sum := !sum +. Zipf.probability z i
  done;
  Alcotest.(check bool) "sums to 1" true (abs_float (!sum -. 1.) < 1e-9)

let test_zipf_invalid_args () =
  Alcotest.check_raises "n = 0" (Invalid_argument "Zipf.create: n must be positive")
    (fun () -> ignore (Zipf.create ~n:0 ~theta:0.5));
  Alcotest.check_raises "theta = 1"
    (Invalid_argument "Zipf.create: theta must be in [0, 1)") (fun () ->
      ignore (Zipf.create ~n:10 ~theta:1.0))

(* Drain a heap, pairing each popped value with the priority
   [min_priority] reported just before the pop. *)
let heap_drain h =
  let rec go acc =
    if Heap.is_empty h then List.rev acc
    else
      let p = Heap.min_priority h in
      let v = Heap.pop h in
      go ((p, v) :: acc)
  in
  go []

let test_heap_ordering () =
  let h = Heap.create () in
  let rng = Rng.create ~seed:37 in
  for _ = 1 to 1000 do
    let p = Rng.int rng 500 in
    Heap.push h ~priority:p p
  done;
  let last = ref min_int in
  List.iter
    (fun (p, v) ->
      Alcotest.(check int) "priority matches value" p v;
      if p < !last then Alcotest.failf "out of order: %d after %d" p !last;
      last := p)
    (heap_drain h);
  Alcotest.(check bool) "drained all" true (Heap.is_empty h)

let test_heap_fifo_ties () =
  let h = Heap.create () in
  Heap.push h ~priority:5 10;
  Heap.push h ~priority:5 11;
  Heap.push h ~priority:5 12;
  Alcotest.(check int) "first" 10 (Heap.pop h);
  Alcotest.(check int) "second" 11 (Heap.pop h);
  Alcotest.(check int) "third" 12 (Heap.pop h)

let test_heap_empty () =
  let h = Heap.create () in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.check_raises "pop raises" (Invalid_argument "Heap.pop: empty heap")
    (fun () -> ignore (Heap.pop h));
  Alcotest.(check int) "min_priority of empty" max_int (Heap.min_priority h)

let test_heap_peek_does_not_remove () =
  let h = Heap.create () in
  Heap.push h ~priority:1 7;
  Alcotest.(check int) "min_priority" 1 (Heap.min_priority h);
  Alcotest.(check int) "still there" 1 (Heap.length h);
  Alcotest.(check int) "value" 7 (Heap.pop h)

let test_heap_interleaved () =
  let h = Heap.create () in
  let pop () =
    let p = Heap.min_priority h in
    (p, Heap.pop h)
  in
  Heap.push h ~priority:10 10;
  Heap.push h ~priority:1 1;
  Alcotest.(check (pair int int)) "min first" (1, 1) (pop ());
  Heap.push h ~priority:5 5;
  Heap.push h ~priority:0 0;
  Alcotest.(check (pair int int)) "new min" (0, 0) (pop ());
  Alcotest.(check (pair int int)) "then 5" (5, 5) (pop ());
  Alcotest.(check (pair int int)) "then 10" (10, 10) (pop ())

let test_histogram_exact_small () =
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ];
  Alcotest.(check int) "count" 10 (Histogram.count h);
  Alcotest.(check int) "p50" 5 (Histogram.percentile h 50.);
  Alcotest.(check int) "p100" 10 (Histogram.percentile h 100.);
  Alcotest.(check int) "min" 1 (Histogram.min_value h);
  Alcotest.(check int) "max" 10 (Histogram.max_value h);
  Alcotest.(check (float 0.001)) "mean" 5.5 (Histogram.mean h)

let test_histogram_large_values_approx () =
  let h = Histogram.create () in
  for i = 1 to 1000 do
    Histogram.add h (i * 1000)
  done;
  let p50 = Histogram.percentile h 50. in
  let exact = 500_000 in
  if abs (p50 - exact) > exact / 20 then
    Alcotest.failf "p50 %d too far from %d" p50 exact;
  Alcotest.(check int) "max tracked exactly" 1_000_000 (Histogram.max_value h)

let test_histogram_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  for i = 1 to 100 do
    Histogram.add a i
  done;
  for i = 101 to 200 do
    Histogram.add b i
  done;
  Histogram.merge ~into:a b;
  Alcotest.(check int) "count" 200 (Histogram.count a);
  Alcotest.(check int) "min" 1 (Histogram.min_value a);
  Alcotest.(check int) "max" 200 (Histogram.max_value a);
  Alcotest.(check int) "p50" 100 (Histogram.percentile a 50.)

let test_histogram_empty_errors () =
  let h = Histogram.create () in
  Alcotest.check_raises "percentile" (Invalid_argument "Histogram.percentile: empty")
    (fun () -> ignore (Histogram.percentile h 50.));
  Alcotest.check_raises "max" (Invalid_argument "Histogram.max_value: empty")
    (fun () -> ignore (Histogram.max_value h))

let test_histogram_negative_clamped () =
  let h = Histogram.create () in
  Histogram.add h (-5);
  Alcotest.(check int) "clamped to 0" 0 (Histogram.max_value h)

let test_histogram_variance () =
  let h = Histogram.create () in
  Alcotest.(check (float 0.)) "empty variance" 0. (Histogram.variance h);
  Alcotest.(check (float 0.)) "empty stddev" 0. (Histogram.stddev h);
  (* 2, 4, 4, 4, 5, 5, 7, 9: the classic example with mean 5, population
     variance 4. *)
  List.iter (Histogram.add h) [ 2; 4; 4; 4; 5; 5; 7; 9 ];
  Alcotest.(check (float 1e-9)) "variance" 4. (Histogram.variance h);
  Alcotest.(check (float 1e-9)) "stddev" 2. (Histogram.stddev h);
  let c = Histogram.create () in
  Histogram.add c 42;
  Alcotest.(check (float 1e-9)) "single sample" 0. (Histogram.variance c)

let test_histogram_variance_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  let whole = Histogram.create () in
  for i = 1 to 50 do
    Histogram.add a i;
    Histogram.add whole i
  done;
  for i = 51 to 100 do
    Histogram.add b (i * 3);
    Histogram.add whole (i * 3)
  done;
  Histogram.merge ~into:a b;
  Alcotest.(check (float 1e-6))
    "merged variance = whole variance" (Histogram.variance whole)
    (Histogram.variance a)

let test_histogram_summary () =
  let empty = Histogram.to_summary (Histogram.create ()) in
  Alcotest.(check int) "empty count" 0 empty.Histogram.s_count;
  Alcotest.(check int) "empty p99" 0 empty.Histogram.s_p99;
  Alcotest.(check (float 0.)) "empty mean" 0. empty.Histogram.s_mean;
  let h = Histogram.create () in
  for i = 1 to 100 do
    Histogram.add h i
  done;
  let s = Histogram.to_summary h in
  Alcotest.(check int) "count" 100 s.Histogram.s_count;
  Alcotest.(check int) "p50" 50 s.Histogram.s_p50;
  Alcotest.(check int) "p95" 95 s.Histogram.s_p95;
  Alcotest.(check int) "p99" 99 s.Histogram.s_p99;
  Alcotest.(check int) "p999" 100 s.Histogram.s_p999;
  Alcotest.(check int) "max" 100 s.Histogram.s_max;
  Alcotest.(check (float 1e-9)) "mean" 50.5 s.Histogram.s_mean;
  (* Population stddev of 1..100: sqrt((n^2 - 1) / 12). *)
  Alcotest.(check (float 1e-9)) "stddev" (sqrt (9999. /. 12.))
    s.Histogram.s_stddev;
  Alcotest.(check (float 0.)) "empty p999 and stddev" 0.
    (float_of_int empty.Histogram.s_p999 +. empty.Histogram.s_stddev);
  (* p999 actually discriminates the tail: 99 samples of 1 plus one
     outlier leave p99 at the floor and p999 on the outlier. *)
  let tail = Histogram.create () in
  for _ = 1 to 99 do
    Histogram.add tail 1
  done;
  Histogram.add tail 5_000;
  let st = Histogram.to_summary tail in
  Alcotest.(check int) "tail p99" 1 st.Histogram.s_p99;
  Alcotest.(check int) "tail p999" 5_000 st.Histogram.s_p999

(* Merging must not let a bucket representative exceed the true maximum —
   the max of [into] must cap the merged percentiles just as a local max
   caps local ones. *)
let test_histogram_merge_max_caps_percentile () =
  let a = Histogram.create () and b = Histogram.create () in
  (* 1_500 lands in a log bucket whose upper bound overshoots; the
     histogram caps representatives at the recorded max. *)
  Histogram.add a 1_500;
  for _ = 1 to 9 do
    Histogram.add b 10
  done;
  Histogram.merge ~into:a b;
  Alcotest.(check int) "p100 = true max" 1_500 (Histogram.percentile a 100.);
  Alcotest.(check int) "min survives merge" 10 (Histogram.min_value a)

(* Property tests. *)

let prop_heap_sorts =
  QCheck.Test.make ~count:200 ~name:"heap drains in sorted order"
    QCheck.(list small_nat)
    (fun l ->
      let h = Heap.create () in
      List.iter (fun p -> Heap.push h ~priority:p p) l;
      List.map fst (heap_drain h) = List.sort compare l)

(* Interleaved pushes ([Some p]) and pops ([None]) against a list model:
   every pop yields the entry least in (priority, push order). The value
   pushed is the push's index, so ties are checked too. *)
let prop_heap_priority_then_push_order =
  QCheck.Test.make ~count:300 ~name:"heap pops in (priority, push order)"
    QCheck.(list (option (int_bound 20)))
    (fun ops ->
      let h = Heap.create () in
      let model = ref [] and pushes = ref 0 in
      List.for_all
        (function
          | Some p ->
              Heap.push h ~priority:p !pushes;
              model := !model @ [ (p, !pushes) ];
              incr pushes;
              Heap.length h = List.length !model
          | None -> (
              match List.stable_sort (fun (a, _) (b, _) -> compare a b) !model with
              | [] -> Heap.is_empty h
              | ((p, v) as least) :: _ ->
                  model := List.filter (fun e -> e != least) !model;
                  let mp = Heap.min_priority h in
                  mp = p && Heap.pop h = v))
        ops
      && List.map snd (heap_drain h)
         = List.map snd (List.stable_sort (fun (a, _) (b, _) -> compare a b) !model))

(* The documented accuracy contract of the log-bucketed quantiles
   (histogram.mli): against the exact quantile of the sorted sample —
   [sorted.(max 1 (ceil (p/100 * n)) - 1)] — a reported quantile [q]
   satisfies [exact <= q <= exact * (1 + 1/sub_buckets) + 1], and never
   exceeds the true maximum. Exercises both the exact linear range and
   the approximate log range (samples up to ~5M). *)
let prop_histogram_percentile_vs_exact =
  QCheck.Test.make ~count:300 ~name:"histogram percentile matches exact quantile"
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 300) (int_bound 5_000_000))
        (int_bound 100))
    (fun (l, p_int) ->
      let p = float_of_int p_int in
      let h = Histogram.create () in
      List.iter (Histogram.add h) l;
      let sorted = List.sort compare l in
      let n = List.length l in
      let target =
        max 1 (int_of_float (ceil (p /. 100. *. float_of_int n)))
      in
      let exact = List.nth sorted (target - 1) in
      let q = Histogram.percentile h p in
      exact <= q
      && float_of_int q <= (float_of_int exact *. (1. +. (1. /. 64.))) +. 1.
      && q <= Histogram.max_value h)

let prop_histogram_percentile_monotone =
  QCheck.Test.make ~count:100 ~name:"histogram percentiles are monotone"
    QCheck.(list_of_size Gen.(int_range 1 200) (int_bound 100_000))
    (fun l ->
      let h = Histogram.create () in
      List.iter (Histogram.add h) l;
      let p25 = Histogram.percentile h 25. in
      let p50 = Histogram.percentile h 50. in
      let p99 = Histogram.percentile h 99. in
      p25 <= p50 && p50 <= p99 && p99 <= Histogram.max_value h * 2)

let prop_zipf_in_range =
  QCheck.Test.make ~count:100 ~name:"zipf samples stay in range"
    QCheck.(pair (int_range 1 10_000) (int_range 0 99))
    (fun (n, theta_pct) ->
      let z = Zipf.create ~n ~theta:(float_of_int theta_pct /. 100.) in
      let rng = Rng.create ~seed:(n + theta_pct) in
      let ok = ref true in
      for _ = 1 to 200 do
        let i = Zipf.sample z rng in
        if i < 0 || i >= n then ok := false
      done;
      !ok)

let prop_rng_int_in_range =
  QCheck.Test.make ~count:200 ~name:"rng int stays in range"
    QCheck.(pair int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let rng = Rng.create ~seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    ( "rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
        Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
        Alcotest.test_case "int bound one" `Quick test_rng_int_bound_one;
        Alcotest.test_case "int invalid" `Quick test_rng_int_invalid;
        Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
        Alcotest.test_case "uniformity" `Quick test_rng_uniformity;
        Alcotest.test_case "split independence" `Quick test_rng_split_independent;
        Alcotest.test_case "copy replays" `Quick test_rng_copy_replays;
        Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
      ]
      @ qcheck [ prop_rng_int_in_range ] );
    ( "zipf",
      [
        Alcotest.test_case "uniform at theta 0" `Quick test_zipf_uniform_when_theta_zero;
        Alcotest.test_case "range" `Quick test_zipf_range;
        Alcotest.test_case "skew" `Quick test_zipf_skew;
        Alcotest.test_case "matches analytic probability" `Slow test_zipf_matches_probability;
        Alcotest.test_case "probability sums to 1" `Quick test_zipf_probability_sums_to_one;
        Alcotest.test_case "invalid args" `Quick test_zipf_invalid_args;
      ]
      @ qcheck [ prop_zipf_in_range ] );
    ( "heap",
      [
        Alcotest.test_case "ordering" `Quick test_heap_ordering;
        Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
        Alcotest.test_case "empty" `Quick test_heap_empty;
        Alcotest.test_case "peek" `Quick test_heap_peek_does_not_remove;
        Alcotest.test_case "interleaved" `Quick test_heap_interleaved;
      ]
      @ qcheck [ prop_heap_sorts; prop_heap_priority_then_push_order ] );
    ( "histogram",
      [
        Alcotest.test_case "exact small" `Quick test_histogram_exact_small;
        Alcotest.test_case "large approx" `Quick test_histogram_large_values_approx;
        Alcotest.test_case "merge" `Quick test_histogram_merge;
        Alcotest.test_case "empty errors" `Quick test_histogram_empty_errors;
        Alcotest.test_case "negative clamped" `Quick test_histogram_negative_clamped;
        Alcotest.test_case "variance and stddev" `Quick test_histogram_variance;
        Alcotest.test_case "variance across merge" `Quick
          test_histogram_variance_merge;
        Alcotest.test_case "summary" `Quick test_histogram_summary;
        Alcotest.test_case "merge max caps percentile" `Quick
          test_histogram_merge_max_caps_percentile;
      ]
      @ qcheck
          [
            prop_histogram_percentile_monotone;
            prop_histogram_percentile_vs_exact;
          ] );
  ]

let () = Alcotest.run "bohm_util" suite
