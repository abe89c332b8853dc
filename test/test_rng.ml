(* Determinism and distribution sanity for the PRNG substrate. *)

module Rng = Dcp_rng.Rng

let test_determinism () =
  let a = Rng.create ~seed:123 and b = Rng.create ~seed:123 in
  let xs = List.init 100 (fun _ -> Rng.bits64 a) in
  let ys = List.init 100 (fun _ -> Rng.bits64 b) in
  Alcotest.(check bool) "same seed, same stream" true (xs = ys)

let test_different_seeds_differ () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let xs = List.init 16 (fun _ -> Rng.bits64 a) in
  let ys = List.init 16 (fun _ -> Rng.bits64 b) in
  Alcotest.(check bool) "different streams" false (xs = ys)

let test_split_independence () =
  let root = Rng.create ~seed:7 in
  let child = Rng.split root in
  let xs = List.init 32 (fun _ -> Rng.bits64 root) in
  let ys = List.init 32 (fun _ -> Rng.bits64 child) in
  Alcotest.(check bool) "parent and child disagree" false (xs = ys)

let test_split_deterministic () =
  let mk () =
    let root = Rng.create ~seed:99 in
    let child = Rng.split root in
    List.init 16 (fun _ -> Rng.bits64 child)
  in
  Alcotest.(check bool) "split is reproducible" true (mk () = mk ())

let test_int_bounds () =
  let rng = Rng.create ~seed:5 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    if v < 0 || v >= 17 then Alcotest.fail "Rng.int out of bounds"
  done

let test_int_in_bounds () =
  let rng = Rng.create ~seed:5 in
  for _ = 1 to 10_000 do
    let v = Rng.int_in rng (-5) 5 in
    if v < -5 || v > 5 then Alcotest.fail "Rng.int_in out of bounds"
  done

let test_int_rejects_nonpositive () =
  let rng = Rng.create ~seed:5 in
  Alcotest.check_raises "n = 0 rejected" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_uniformity_rough () =
  let rng = Rng.create ~seed:11 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let i = Rng.int rng 10 in
    buckets.(i) <- buckets.(i) + 1
  done;
  Array.iter
    (fun c ->
      let expected = n / 10 in
      if abs (c - expected) > expected / 5 then
        Alcotest.failf "bucket count %d too far from %d" c expected)
    buckets

let test_bernoulli_extremes () =
  let rng = Rng.create ~seed:3 in
  for _ = 1 to 100 do
    if Rng.bernoulli rng 0.0 then Alcotest.fail "p=0 returned true";
    if not (Rng.bernoulli rng 1.0) then Alcotest.fail "p=1 returned false"
  done

let test_bernoulli_rate () =
  let rng = Rng.create ~seed:3 in
  let hits = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "rate near 0.3" true (Float.abs (rate -. 0.3) < 0.01)

let test_exponential_mean () =
  let rng = Rng.create ~seed:13 in
  let n = 100_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    let x = Rng.exponential rng ~mean:5.0 in
    if x < 0.0 then Alcotest.fail "exponential draw negative";
    sum := !sum +. x
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 5" true (Float.abs (mean -. 5.0) < 0.2)

let test_shuffle_permutation () =
  let rng = Rng.create ~seed:31 in
  let all = Rng.sample_without_replacement rng 50 50 in
  Alcotest.(check (list int)) "still a permutation" (List.init 50 Fun.id)
    (List.sort Int.compare all)

let test_sample_without_replacement () =
  let rng = Rng.create ~seed:37 in
  let sample = Rng.sample_without_replacement rng 10 100 in
  Alcotest.(check int) "ten values" 10 (List.length sample);
  Alcotest.(check int) "distinct" 10 (List.length (List.sort_uniq Int.compare sample));
  List.iter (fun v -> if v < 0 || v >= 100 then Alcotest.fail "out of range") sample

(* qcheck: Rng.int stays in range for arbitrary positive bounds and seeds. *)
let prop_int_in_range =
  QCheck2.Test.make ~name:"Rng.int always in [0, n)" ~count:500
    QCheck2.Gen.(pair (int_range 1 1_000_000) int)
    (fun (n, seed) ->
      let rng = Rng.create ~seed in
      let v = Rng.int rng n in
      v >= 0 && v < n)

let prop_choice_member =
  QCheck2.Test.make ~name:"Rng.choice returns a member" ~count:200
    QCheck2.Gen.(pair (array_size (int_range 1 40) int) int)
    (fun (a, seed) ->
      let rng = Rng.create ~seed in
      Array.exists (Int.equal (Rng.choice rng a)) a)

let tests =
  [
    Alcotest.test_case "same seed, same stream" `Quick test_determinism;
    Alcotest.test_case "different seeds differ" `Quick test_different_seeds_differ;
    Alcotest.test_case "split independence" `Quick test_split_independence;
    Alcotest.test_case "split determinism" `Quick test_split_deterministic;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "int_in bounds" `Quick test_int_in_bounds;
    Alcotest.test_case "int rejects n<=0" `Quick test_int_rejects_nonpositive;
    Alcotest.test_case "rough uniformity" `Slow test_uniformity_rough;
    Alcotest.test_case "bernoulli extremes" `Quick test_bernoulli_extremes;
    Alcotest.test_case "bernoulli rate" `Slow test_bernoulli_rate;
    Alcotest.test_case "exponential mean" `Slow test_exponential_mean;
    Alcotest.test_case "shuffle is a permutation" `Quick test_shuffle_permutation;
    Alcotest.test_case "sampling without replacement" `Quick test_sample_without_replacement;
    QCheck_alcotest.to_alcotest prop_int_in_range;
    QCheck_alcotest.to_alcotest prop_choice_member;
  ]
