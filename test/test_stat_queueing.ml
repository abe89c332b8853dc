(* The Stat module.  The suite keeps the name stat_queueing so that its
   test names stay stable. *)

module Stat = Dcp_sim.Stat
module Rng = Dcp_rng.Rng

let test_stat_summary_basics () =
  let s = Stat.summarize [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] in
  Alcotest.(check int) "n" 8 s.Stat.n;
  Alcotest.(check (float 1e-9)) "mean" 5.0 s.Stat.mean;
  Alcotest.(check (float 1e-6)) "unbiased variance" (32.0 /. 7.0) s.Stat.variance;
  Alcotest.(check (float 1e-9)) "min" 2.0 s.Stat.minimum;
  Alcotest.(check (float 1e-9)) "max" 9.0 s.Stat.maximum;
  Alcotest.(check (float 1e-9)) "median" 4.5 s.Stat.median

let test_stat_single_sample () =
  let s = Stat.summarize [ 3.0 ] in
  Alcotest.(check (float 1e-9)) "mean" 3.0 s.Stat.mean;
  Alcotest.(check (float 1e-9)) "no variance" 0.0 s.Stat.variance;
  Alcotest.(check (float 1e-9)) "no ci" 0.0 s.Stat.ci95

let test_stat_empty_rejected () =
  Alcotest.check_raises "empty" (Invalid_argument "Stat.summarize: empty sample") (fun () ->
      ignore (Stat.summarize []))

let test_stat_quantiles () =
  let sample = List.init 101 (fun i -> float_of_int i) in
  Alcotest.(check (float 1e-9)) "q0" 0.0 (Stat.quantile sample 0.0);
  Alcotest.(check (float 1e-9)) "q50" 50.0 (Stat.quantile sample 0.5);
  Alcotest.(check (float 1e-9)) "q100" 100.0 (Stat.quantile sample 1.0);
  Alcotest.(check (float 1e-9)) "interpolated" 25.0 (Stat.quantile sample 0.25)

let test_stat_ci_shrinks_with_n () =
  let rng = Rng.create ~seed:3 in
  let sample n = List.init n (fun _ -> Rng.exponential rng ~mean:10.0) in
  let small = (Stat.summarize (sample 5)).Stat.ci95 in
  let large = (Stat.summarize (sample 500)).Stat.ci95 in
  Alcotest.(check bool) "more data, tighter CI" true (large < small)

let test_stat_of_trials () =
  let s = Stat.of_trials ~trials:10 (fun ~seed -> float_of_int (seed * 2)) in
  Alcotest.(check int) "n" 10 s.Stat.n;
  Alcotest.(check (float 1e-9)) "mean of 0,2,..18" 9.0 s.Stat.mean

let prop_stat_mean_bounds =
  QCheck2.Test.make ~name:"mean lies within [min, max]" ~count:300
    QCheck2.Gen.(list_size (int_range 1 50) (float_range (-1e6) 1e6))
    (fun sample ->
      let s = Stat.summarize sample in
      s.Stat.minimum <= s.Stat.mean +. 1e-6 && s.Stat.mean <= s.Stat.maximum +. 1e-6)

let tests =
  [
    Alcotest.test_case "summary basics" `Quick test_stat_summary_basics;
    Alcotest.test_case "single sample" `Quick test_stat_single_sample;
    Alcotest.test_case "empty rejected" `Quick test_stat_empty_rejected;
    Alcotest.test_case "quantiles" `Quick test_stat_quantiles;
    Alcotest.test_case "CI shrinks with n" `Quick test_stat_ci_shrinks_with_n;
    Alcotest.test_case "of_trials" `Quick test_stat_of_trials;
    QCheck_alcotest.to_alcotest prop_stat_mean_bounds;
  ]
