module Vec = Linalg.Vec
module Mat = Linalg.Mat

type t = {
  dim : int;
  eval : Vec.t -> float * Vec.t * Mat.t;
  value : Vec.t -> float;
}

let linear n a b =
  if Vec.dim a <> n then invalid_arg "Smooth.linear: dimension mismatch";
  (* The (zero) Hessian must be fresh on every [eval]: callers accumulate
     into returned Hessians, and a shared matrix would leak one call's
     accumulation into the next. *)
  {
    dim = n;
    eval = (fun y -> (Vec.dot a y +. b, Vec.copy a, Mat.create n n));
    value = (fun y -> Vec.dot a y +. b);
  }

let log_sum_exp n terms =
  if terms = [] then invalid_arg "Smooth.log_sum_exp: empty term list";
  List.iter
    (fun (a, _) ->
      if Vec.dim a <> n then invalid_arg "Smooth.log_sum_exp: dimension mismatch")
    terms;
  let exponents y =
    List.map (fun (a, b) -> Vec.dot a y +. b) terms
  in
  let value y =
    let es = exponents y in
    let m = List.fold_left Float.max neg_infinity es in
    m +. log (List.fold_left (fun acc e -> acc +. exp (e -. m)) 0.0 es)
  in
  let eval y =
    let es = exponents y in
    let m = List.fold_left Float.max neg_infinity es in
    let weights = List.map (fun e -> exp (e -. m)) es in
    let z = List.fold_left ( +. ) 0.0 weights in
    let v = m +. log z in
    (* Softmax probabilities p_k; grad = sum p_k a_k;
       hess = sum p_k a_k a_k^T - grad grad^T. *)
    let probs = List.map (fun w -> w /. z) weights in
    let grad = Vec.create n in
    List.iter2
      (fun p (a, _) ->
        for i = 0 to n - 1 do
          grad.(i) <- grad.(i) +. (p *. a.(i))
        done)
      probs terms;
    let hess = Mat.create n n in
    List.iter2
      (fun p (a, _) ->
        for i = 0 to n - 1 do
          let pai = p *. a.(i) in
          if pai <> 0.0 then
            for j = 0 to n - 1 do
              Mat.add_to hess i j (pai *. a.(j))
            done
        done)
      probs terms;
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        Mat.add_to hess i j (-.(grad.(i) *. grad.(j)))
      done
    done;
    (v, grad, hess)
  in
  { dim = n; eval; value }

let extend f extra =
  let n = f.dim + extra in
  let restrict y = Vec.slice y 0 f.dim in
  let value y = f.value (restrict y) in
  let eval y =
    let v, g, h = f.eval (restrict y) in
    let g' = Vec.create n in
    Array.blit g 0 g' 0 f.dim;
    let h' = Mat.create n n in
    for i = 0 to f.dim - 1 do
      for j = 0 to f.dim - 1 do
        Mat.set h' i j (Mat.get h i j)
      done
    done;
    (v, g', h')
  in
  { dim = n; eval; value }

let add f g =
  if f.dim <> g.dim then invalid_arg "Smooth.add: dimension mismatch";
  let value y = f.value y +. g.value y in
  let eval y =
    let v, gf, hf = f.eval y in
    let w, gg, hg = g.eval y in
    (v +. w, Vec.add gf gg, Mat.add hf hg)
  in
  { dim = f.dim; eval; value }
