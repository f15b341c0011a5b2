module Vec = Linalg.Vec
module M = Symexpr.Monomial
module P = Symexpr.Posynomial

type fn = {
  f_nterms : int;
  f_starts : int array;
  f_idx : int array;
  f_coef : float array;
  f_b : float array;
  f_support : int array;
  f_lin_idx : int array;
  f_lin_coef : float array;
  f_lin_const : float;
}

type t = {
  vars : string list;
  n : int;
  index : (string, int) Hashtbl.t;
  objective : fn;
  ineqs : fn array;
  rows : Vec.t array;
  rhs : float array;
  consistent : bool;
  max_terms : int;
}

(* Distinct indices, ascending. *)
let merged_support lists =
  let tbl = Hashtbl.create 16 in
  List.iter (fun l -> Array.iter (fun i -> Hashtbl.replace tbl i ()) l) lists;
  let s = Array.of_seq (Seq.map fst (Hashtbl.to_seq tbl)) in
  Array.sort compare s;
  s

let of_sparse_terms sparse =
  if sparse = [] then invalid_arg "Gp.Compiled.of_sparse_terms: empty term list";
  let nterms = List.length sparse in
  let starts = Array.make (nterms + 1) 0 in
  let b = Array.make nterms 0.0 in
  let total = List.fold_left (fun acc (entries, _) -> acc + List.length entries) 0 sparse in
  let idx = Array.make total 0 in
  let coef = Array.make total 0.0 in
  List.iteri
    (fun k (entries, bk) ->
      b.(k) <- bk;
      let pos = ref starts.(k) in
      List.iter
        (fun (i, c) ->
          if i < 0 then invalid_arg "Gp.Compiled.of_sparse_terms: negative variable index";
          idx.(!pos) <- i;
          coef.(!pos) <- c;
          incr pos)
        entries;
      starts.(k + 1) <- !pos)
    sparse;
  (* Entries must be ascending within each term so the sparse dot product
     accumulates in the same order as the dense walk. *)
  for k = 0 to nterms - 1 do
    for p = starts.(k) + 1 to starts.(k + 1) - 1 do
      if idx.(p - 1) >= idx.(p) then
        invalid_arg "Gp.Compiled.of_sparse_terms: indices not strictly ascending"
    done
  done;
  let row k = Array.init (starts.(k + 1) - starts.(k)) (fun p -> idx.(starts.(k) + p)) in
  {
    f_nterms = nterms;
    f_starts = starts;
    f_idx = idx;
    f_coef = coef;
    f_b = b;
    f_support = merged_support (List.init nterms row);
    f_lin_idx = [||];
    f_lin_coef = [||];
    f_lin_const = 0.0;
  }

let of_posynomial index p =
  let term m =
    let entries =
      List.sort
        (fun (i, _) (j, _) -> compare i j)
        (List.map (fun (x, e) -> (Hashtbl.find index x, e)) (M.exponents m))
    in
    (entries, log (M.coeff m))
  in
  of_sparse_terms (List.map term (P.terms p))

let affine entries const =
  let entries = List.sort (fun (i, _) (j, _) -> compare i j) entries in
  let entries = List.filter (fun (_, c) -> c <> 0.0) entries in
  {
    f_nterms = 0;
    f_starts = [| 0 |];
    f_idx = [||];
    f_coef = [||];
    f_b = [||];
    f_support = Array.of_list (List.map fst entries);
    f_lin_idx = Array.of_list (List.map fst entries);
    f_lin_coef = Array.of_list (List.map snd entries);
    f_lin_const = const;
  }

let minus_slack s f =
  {
    f with
    f_lin_idx = Array.append f.f_lin_idx [| s |];
    f_lin_coef = Array.append f.f_lin_coef [| -1.0 |];
    f_support = merged_support [ f.f_support; [| s |] ];
  }

let compile problem =
  let vars = Problem.variables problem in
  let n = List.length vars in
  let index = Hashtbl.create (2 * n) in
  List.iteri (fun i x -> Hashtbl.replace index x i) vars;
  let objective = of_posynomial index (Problem.objective problem) in
  let ineqs = Array.of_list (List.map (fun (_, p) -> of_posynomial index p) (Problem.ineqs problem)) in
  (* Equality rows [a . y = -log c]: structurally nonzero rows are kept
     in source order; an all-zero row reduces to [0 = -log c], which is
     consistent only when [c ~ 1]. *)
  let eqs =
    List.map
      (fun (_, m) ->
        let a = Vec.create n in
        List.iter (fun (x, e) -> a.(Hashtbl.find index x) <- e) (M.exponents m);
        (a, -.log (M.coeff m)))
      (Problem.eqs problem)
  in
  let nonzero, zero = List.partition (fun (a, _) -> Vec.norm_inf a > 0.0) eqs in
  {
    vars;
    n;
    index;
    objective;
    ineqs;
    rows = Array.of_list (List.map fst nonzero);
    rhs = Array.of_list (List.map snd nonzero);
    consistent = List.for_all (fun (_, d) -> not (Float.abs d > 1e-9)) zero;
    max_terms = Array.fold_left (fun acc f -> max acc f.f_nterms) objective.f_nterms ineqs;
  }

(* --- flat evaluation --------------------------------------------------- *)

(* Sparse row dot: identical accumulation order (ascending index) and
   identical bits to the dense [Vec.dot] for finite [y] — the skipped
   entries contribute exactly [+0.0] or [-0.0], which never changes a
   partial sum that started at [+0.0]. *)
let row_dot f k y =
  let acc = ref 0.0 in
  let last = Array.unsafe_get f.f_starts (k + 1) - 1 in
  for p = Array.unsafe_get f.f_starts k to last do
    acc :=
      !acc
      +. Array.unsafe_get f.f_coef p
         *. Array.unsafe_get y (Array.unsafe_get f.f_idx p)
  done;
  !acc

let linear_part f y =
  let acc = ref 0.0 in
  for p = 0 to Array.length f.f_lin_idx - 1 do
    acc :=
      !acc
      +. Array.unsafe_get f.f_lin_coef p
         *. Array.unsafe_get y (Array.unsafe_get f.f_lin_idx p)
  done;
  !acc

let lse_value f ~es y =
  for k = 0 to f.f_nterms - 1 do
    Array.unsafe_set es k (row_dot f k y +. Array.unsafe_get f.f_b k)
  done;
  let m = ref neg_infinity in
  for k = 0 to f.f_nterms - 1 do
    m := Float.max !m (Array.unsafe_get es k)
  done;
  let z = ref 0.0 in
  for k = 0 to f.f_nterms - 1 do
    z := !z +. exp (Array.unsafe_get es k -. !m)
  done;
  !m +. log !z

let value f ~es y =
  let v =
    if f.f_nterms = 0 then linear_part f y
    else if Array.length f.f_lin_idx = 0 then lse_value f ~es y
    else lse_value f ~es y +. linear_part f y
  in
  if f.f_lin_const <> 0.0 then v +. f.f_lin_const else v

let eval_into f ~es ~grad ~hess ~hn y =
  (* Clear only the support entries: the caller's buffers are reused
     across functions and may hold stale data. *)
  let support = f.f_support in
  let ns = Array.length support in
  for a = 0 to ns - 1 do
    Array.unsafe_set grad (Array.unsafe_get support a) 0.0
  done;
  for a = 0 to ns - 1 do
    let base = Array.unsafe_get support a * hn in
    for bj = 0 to ns - 1 do
      Array.unsafe_set hess (base + Array.unsafe_get support bj) 0.0
    done
  done;
  let v_lse =
    if f.f_nterms = 0 then 0.0
    else begin
      for k = 0 to f.f_nterms - 1 do
        Array.unsafe_set es k (row_dot f k y +. Array.unsafe_get f.f_b k)
      done;
      let m = ref neg_infinity in
      for k = 0 to f.f_nterms - 1 do
        m := Float.max !m (Array.unsafe_get es k)
      done;
      let m = !m in
      (* Reuse [es] for the softmax weights, then probabilities. *)
      for k = 0 to f.f_nterms - 1 do
        Array.unsafe_set es k (exp (Array.unsafe_get es k -. m))
      done;
      let z = ref 0.0 in
      for k = 0 to f.f_nterms - 1 do
        z := !z +. Array.unsafe_get es k
      done;
      let z = !z in
      let v = m +. log z in
      for k = 0 to f.f_nterms - 1 do
        Array.unsafe_set es k (Array.unsafe_get es k /. z)
      done;
      (* grad = sum_k p_k row_k, accumulated term-major like the list
         walk. *)
      for k = 0 to f.f_nterms - 1 do
        let p = Array.unsafe_get es k in
        for q = Array.unsafe_get f.f_starts k to Array.unsafe_get f.f_starts (k + 1) - 1 do
          let i = Array.unsafe_get f.f_idx q in
          Array.unsafe_set grad i
            (Array.unsafe_get grad i +. (p *. Array.unsafe_get f.f_coef q))
        done
      done;
      (* hess = sum_k p_k row_k row_k^T - grad grad^T.  The rank-one
         subtraction must use the pure log-sum-exp gradient, before any
         linear adjustment below. *)
      for k = 0 to f.f_nterms - 1 do
        let p = Array.unsafe_get es k in
        let first = Array.unsafe_get f.f_starts k in
        let last = Array.unsafe_get f.f_starts (k + 1) - 1 in
        for q = first to last do
          let i = Array.unsafe_get f.f_idx q in
          let pai = p *. Array.unsafe_get f.f_coef q in
          if pai <> 0.0 then begin
            let base = i * hn in
            for r = first to last do
              let o = base + Array.unsafe_get f.f_idx r in
              Array.unsafe_set hess o
                (Array.unsafe_get hess o +. (pai *. Array.unsafe_get f.f_coef r))
            done
          end
        done
      done;
      for a = 0 to ns - 1 do
        let i = Array.unsafe_get support a in
        let gi = Array.unsafe_get grad i in
        let base = i * hn in
        for bj = 0 to ns - 1 do
          let j = Array.unsafe_get support bj in
          let o = base + j in
          Array.unsafe_set hess o
            (Array.unsafe_get hess o +. -.(gi *. Array.unsafe_get grad j))
        done
      done;
      v
    end
  in
  for p = 0 to Array.length f.f_lin_idx - 1 do
    let i = Array.unsafe_get f.f_lin_idx p in
    Array.unsafe_set grad i
      (Array.unsafe_get grad i +. Array.unsafe_get f.f_lin_coef p)
  done;
  let v =
    if f.f_nterms = 0 then linear_part f y
    else if Array.length f.f_lin_idx = 0 then v_lse
    else v_lse +. linear_part f y
  in
  if f.f_lin_const <> 0.0 then v +. f.f_lin_const else v
