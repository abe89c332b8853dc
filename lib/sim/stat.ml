type summary = {
  n : int;
  mean : float;
  variance : float;
  stddev : float;
  stderr : float;
  ci95 : float;
  minimum : float;
  maximum : float;
  median : float;
}

(* Two-sided 97.5% Student-t critical values for small df; 1.96 beyond. *)
let t_critical df =
  let table =
    [|
      12.706; 4.303; 3.182; 2.776; 2.571; 2.447; 2.365; 2.306; 2.262; 2.228;
      2.201; 2.179; 2.160; 2.145; 2.131; 2.120; 2.110; 2.101; 2.093; 2.086;
      2.080; 2.074; 2.069; 2.064; 2.060; 2.056; 2.052; 2.048; 2.045; 2.042;
    |]
  in
  if df <= 0 then Float.nan
  else if df <= Array.length table then table.(df - 1)
  else 1.96

let quantile sample q =
  if sample = [] then invalid_arg "Stat.quantile: empty sample";
  let sorted = Array.of_list (List.sort Float.compare sample) in
  let n = Array.length sorted in
  let q = Float.max 0.0 (Float.min 1.0 q) in
  let position = q *. float_of_int (n - 1) in
  let lower = int_of_float (Float.floor position) in
  let upper = Int.min (n - 1) (lower + 1) in
  let fraction = position -. float_of_int lower in
  (sorted.(lower) *. (1.0 -. fraction)) +. (sorted.(upper) *. fraction)

let mean sample =
  if sample = [] then invalid_arg "Stat.mean: empty sample";
  List.fold_left ( +. ) 0.0 sample /. float_of_int (List.length sample)

let summarize sample =
  if sample = [] then invalid_arg "Stat.summarize: empty sample";
  let n = List.length sample in
  let m = mean sample in
  let variance =
    if n < 2 then 0.0
    else
      List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 sample /. float_of_int (n - 1)
  in
  let stddev = sqrt variance in
  let stderr = stddev /. sqrt (float_of_int n) in
  let ci95 = if n < 2 then 0.0 else t_critical (n - 1) *. stderr in
  {
    n;
    mean = m;
    variance;
    stddev;
    stderr;
    ci95;
    minimum = List.fold_left Float.min Float.infinity sample;
    maximum = List.fold_left Float.max Float.neg_infinity sample;
    median = quantile sample 0.5;
  }

let of_trials ~trials f =
  if trials <= 0 then invalid_arg "Stat.of_trials: need at least one trial";
  summarize (List.init trials (fun seed -> f ~seed))
