(* Summary statistics for the benchmark's reports.

   Percentiles follow the nearest-rank rule and are reported only when at
   least [min_beyond] samples lie strictly above the percentile's rank, so
   a "p99" over 50 samples is refused rather than silently being the
   maximum.  Every reported percentile carries its sample count. *)

let min_beyond = 10

let sorted samples =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  a

let median samples =
  match samples with
  | [] -> nan
  | _ ->
    let a = sorted samples in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* 1-based nearest rank of the [p]-th percentile among [n] samples. *)
let rank ~p n = Int.max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)))

type percentile = { p : float; value : float; count : int }

let percentile ~p samples =
  let n = List.length samples in
  if n = 0 || p <= 0.0 || p >= 100.0 then None
  else
    let k = rank ~p n in
    if n - k < min_beyond then None
    else Some { p; value = (sorted samples).(k - 1); count = n }

(* Quartiles with the same (exclusive) interpolation as Python's
   [statistics.quantiles(values, n=4)], so spreads printed here match the
   ones computed over result files. *)
let quartiles samples =
  let a = sorted samples in
  let ld = Array.length a in
  if ld < 2 then None
  else
    let q i =
      let m = ld + 1 in
      let j = Int.max 1 (Int.min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    Some (q 1, q 2, q 3)

(* Geometric mean of strictly positive finite values, accumulated in list
   order so equal inputs give bit-identical outputs.  [None] for an empty
   list or any value outside the domain. *)
let geomean values =
  if values = [] then None
  else if List.exists (fun v -> not (Float.is_finite v && v > 0.0)) values then None
  else
    let s = List.fold_left (fun acc v -> acc +. Float.log v) 0.0 values in
    Some (Float.exp (s /. float_of_int (List.length values)))

let ratio num den = if den = 0.0 then 0.0 else num /. den
