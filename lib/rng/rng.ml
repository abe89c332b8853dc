type t = Splitmix.t

let create ~seed = Splitmix.of_int seed
let split = Splitmix.split
let bits64 = Splitmix.next

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling over the low 62 bits avoids modulo bias; the
     overflow test rejects draws from the final, partial bucket (the Java
     Random.nextInt technique — 2^62 itself is not representable). *)
  let mask = 0x3fff_ffff_ffff_ffffL in
  let rec draw () =
    let bits = Int64.to_int (Int64.logand (Splitmix.next t) mask) in
    let value = bits mod n in
    if bits - value + (n - 1) < 0 then draw () else value
  in
  draw ()

let int_in t lo hi =
  if lo > hi then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let unit_float t =
  (* 53 random bits mapped to [0, 1). *)
  let v = Int64.shift_right_logical (Splitmix.next t) 11 in
  Int64.to_float v *. (1.0 /. 9007199254740992.0)

let float t x = unit_float t *. x

let bernoulli t p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else unit_float t < p

let exponential t ~mean =
  if mean <= 0.0 then invalid_arg "Rng.exponential: mean must be positive";
  let u = 1.0 -. unit_float t in
  -.mean *. log u

let choice t a =
  if Array.length a = 0 then invalid_arg "Rng.choice: empty array";
  a.(int t (Array.length a))

let choice_list t l =
  match l with
  | [] -> invalid_arg "Rng.choice_list: empty list"
  | l -> List.nth l (int t (List.length l))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_without_replacement t k n =
  if k < 0 || k > n then invalid_arg "Rng.sample_without_replacement";
  let a = Array.init n (fun i -> i) in
  shuffle t a;
  Array.to_list (Array.sub a 0 k)
