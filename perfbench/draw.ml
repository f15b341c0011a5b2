(* Seeded draws: a SplitMix64 generator, so the same seed gives the same
   inputs on every OCaml version and platform (the stdlib [Random] makes
   no such promise across releases). *)

type t = { mutable state : int64 }

let make seed = { state = Int64.of_int seed }

let next g =
  g.state <- Int64.add g.state 0x9E3779B97F4A7C15L;
  let z = g.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Uniform in [0, 1), from the top 53 bits. *)
let float g = Int64.to_float (Int64.shift_right_logical (next g) 11) /. 9007199254740992.0

(* Uniform in [0, n). *)
let int g n =
  if n <= 0 then invalid_arg "Draw.int";
  Int.min (n - 1) (int_of_float (float g *. float_of_int n))

(* A uniformly random permutation (Fisher-Yates). *)
let shuffle g l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a
