module Vec = Linalg.Vec
module Mat = Linalg.Mat
module P = Symexpr.Posynomial

type status = Optimal | Infeasible | Iteration_limit | Deadline_exceeded

type solution = { status : status; values : (string * float) list; objective : float }

type kernel = [ `Compiled | `List ]

let lookup sol x =
  match List.assoc_opt x sol.values with
  | Some v -> v
  | None ->
    invalid_arg
      (Printf.sprintf "Gp.Solver.lookup: no variable %S in the solution (solution carries: %s)"
         x
         (match sol.values with
         | [] -> "no variables"
         | vs -> String.concat ", " (List.map fst vs)))

let env sol x = lookup sol x

(* ------------------------------------------------------------------ *)
(* Telemetry                                                          *)
(* ------------------------------------------------------------------ *)

type stats = {
  mutable phase1_outer : int;
  mutable phase2_outer : int;
  mutable newton_iters : int;
  mutable backtracks : int;
  mutable kkt_regularizations : int;
  mutable cholesky_fallbacks : int;
  mutable deadline_hits : int;
  mutable duality_gap : float;
}

let fresh_stats () =
  {
    phase1_outer = 0;
    phase2_outer = 0;
    newton_iters = 0;
    backtracks = 0;
    kkt_regularizations = 0;
    cholesky_fallbacks = 0;
    deadline_hits = 0;
    duality_gap = nan;
  }

let reset_stats st =
  st.phase1_outer <- 0;
  st.phase2_outer <- 0;
  st.newton_iters <- 0;
  st.backtracks <- 0;
  st.kkt_regularizations <- 0;
  st.cholesky_fallbacks <- 0;
  st.deadline_hits <- 0;
  st.duality_gap <- nan

let copy_stats ~into st =
  into.phase1_outer <- st.phase1_outer;
  into.phase2_outer <- st.phase2_outer;
  into.newton_iters <- st.newton_iters;
  into.backtracks <- st.backtracks;
  into.kkt_regularizations <- st.kkt_regularizations;
  into.cholesky_fallbacks <- st.cholesky_fallbacks;
  into.deadline_hits <- st.deadline_hits;
  into.duality_gap <- st.duality_gap

type totals = {
  solves : int;
  t_phase1_outer : int;
  t_phase2_outer : int;
  t_newton_iters : int;
  t_backtracks : int;
  t_kkt_regularizations : int;
  t_cholesky_fallbacks : int;
  t_deadline_hits : int;
  max_duality_gap : float;
}

let zero_totals =
  {
    solves = 0;
    t_phase1_outer = 0;
    t_phase2_outer = 0;
    t_newton_iters = 0;
    t_backtracks = 0;
    t_kkt_regularizations = 0;
    t_cholesky_fallbacks = 0;
    t_deadline_hits = 0;
    max_duality_gap = 0.0;
  }

let accumulate t s =
  {
    solves = t.solves + 1;
    t_phase1_outer = t.t_phase1_outer + s.phase1_outer;
    t_phase2_outer = t.t_phase2_outer + s.phase2_outer;
    t_newton_iters = t.t_newton_iters + s.newton_iters;
    t_backtracks = t.t_backtracks + s.backtracks;
    t_kkt_regularizations = t.t_kkt_regularizations + s.kkt_regularizations;
    t_cholesky_fallbacks = t.t_cholesky_fallbacks + s.cholesky_fallbacks;
    t_deadline_hits = t.t_deadline_hits + s.deadline_hits;
    max_duality_gap =
      (if Float.is_finite s.duality_gap then Float.max t.max_duality_gap s.duality_gap
       else t.max_duality_gap);
  }

let pp_totals ppf t =
  Format.fprintf ppf
    "solves=%d phase1-outer=%d phase2-outer=%d newton=%d backtracks=%d kkt-reg=%d \
     chol-fallback=%d deadline=%d max-gap=%.3g"
    t.solves t.t_phase1_outer t.t_phase2_outer t.t_newton_iters t.t_backtracks
    t.t_kkt_regularizations t.t_cholesky_fallbacks t.t_deadline_hits t.max_duality_gap

let log_src = Logs.Src.create "gp.solver" ~doc:"Geometric-program solver"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* ------------------------------------------------------------------ *)
(* Dense KKT path (the list kernel, and the flat kernel's fallback)   *)
(* ------------------------------------------------------------------ *)

(* Newton step keeping A y = const: KKT system
   [H + reg I, A^T; A, 0] [dy; w] = [-grad; 0], solved densely by LU. *)
let solve_kkt_dense ~hess ~grad ~(rows : Vec.t array) n reg =
  let p = Array.length rows in
  let dim = n + p in
  let kkt = Mat.create dim dim in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      Mat.set kkt i j (Mat.get hess i j)
    done;
    Mat.add_to kkt i i reg
  done;
  Array.iteri
    (fun k a ->
      for j = 0 to n - 1 do
        Mat.set kkt (n + k) j a.(j);
        Mat.set kkt j (n + k) a.(j)
      done)
    rows;
  let rhs = Vec.create dim in
  for i = 0 to n - 1 do
    rhs.(i) <- -.grad.(i)
  done;
  Vec.slice (Mat.lu_solve kkt rhs) 0 n

let attempt_dense ~st ~initial_reg ~hess ~grad ~rows n =
  let rec attempt reg tries =
    match solve_kkt_dense ~hess ~grad ~rows n reg with
    | dy -> Some dy
    | exception Mat.Singular ->
      if tries <= 0 then None
      else begin
        st.kkt_regularizations <- st.kkt_regularizations + 1;
        attempt (reg *. 100.0) (tries - 1)
      end
  in
  attempt initial_reg 6

(* ------------------------------------------------------------------ *)
(* Equality-constrained Newton centering — list kernel                *)
(* ------------------------------------------------------------------ *)

(* Minimize  barrier_t * f0(y) - sum_i log (-f_i(y))  subject to [rows]
   y fixed to its value at [y0] (the start must satisfy the equalities
   and be strictly feasible for the inequalities).  The centering also
   returns as soon as an accepted iterate satisfies [stop] (phase I's
   strict-feasibility test).  Closure-per-function evaluation and a
   dense LU KKT solve per step: the reference path. *)
let centering_list ~initial_reg ~st ~stop ~barrier_t ~(objective : Smooth.t)
    ~(ineqs : Smooth.t list) ~rows y0 =
  let n = Vec.dim y0 in
  let phi y =
    let acc = ref (barrier_t *. objective.Smooth.value y) in
    let ok = ref true in
    List.iter
      (fun (g : Smooth.t) ->
        let v = g.Smooth.value y in
        if v >= 0.0 then ok := false else acc := !acc -. log (-.v))
      ineqs;
    if !ok then Some !acc else None
  in
  let y = ref (Vec.copy y0) in
  let converged = ref false in
  let iter = ref 0 in
  while (not !converged) && !iter < 80 do
    incr iter;
    st.newton_iters <- st.newton_iters + 1;
    let v0, g0, h0 = objective.Smooth.eval !y in
    ignore v0;
    let grad = Vec.scale barrier_t g0 in
    let hess = Mat.scale barrier_t h0 in
    List.iter
      (fun (g : Smooth.t) ->
        let vi, gi, hi = g.Smooth.eval !y in
        (* vi < 0 by the line-search invariant *)
        let inv = -1.0 /. vi in
        for i = 0 to n - 1 do
          grad.(i) <- grad.(i) +. (inv *. gi.(i))
        done;
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            Mat.add_to hess i j ((inv *. Mat.get hi i j) +. (inv *. inv *. gi.(i) *. gi.(j)))
          done
        done)
      ineqs;
    match attempt_dense ~st ~initial_reg ~hess ~grad ~rows n with
    | None ->
      (* The KKT system is numerically singular even with heavy
         regularization: accept the current (feasible) point. *)
      converged := true
    | Some dy ->
    let slope = Vec.dot grad dy in
    let lambda2 = -.slope in
    if lambda2 /. 2.0 < 1e-10 then converged := true
    else begin
      (* Backtracking line search with the strict-feasibility invariant. *)
      let phi0 =
        match phi !y with
        | Some v -> v
        | None -> invalid_arg "Gp.Solver: centering started at an infeasible point"
      in
      let rec search alpha tries =
        if tries <= 0 then None
        else begin
          let cand = Vec.axpy alpha dy !y in
          match phi cand with
          | Some v when v <= phi0 +. (0.25 *. alpha *. slope) -> Some cand
          | _ ->
            st.backtracks <- st.backtracks + 1;
            search (alpha /. 2.0) (tries - 1)
        end
      in
      match search 1.0 60 with
      | Some cand ->
        y := cand;
        if stop cand then converged := true
      | None -> converged := true (* cannot make progress; accept the point *)
    end
  done;
  !y

(* ------------------------------------------------------------------ *)
(* Equality-constrained Newton centering — compiled (flat) kernel     *)
(* ------------------------------------------------------------------ *)

(* The same minimization over {!Compiled} functions: sparse evaluation
   into flat reused buffers and a structured KKT solve.  With [Z] an
   orthonormal basis of null(A) (computed once per solve and phase —
   the rows never change within one), the equality-constrained Newton
   step reduces to the SPD system

     (Z^T H Z + reg I) u = Z^T (-grad),   dy = Z u

   solved by Cholesky.  [A dy = (A Z) u ~ 0] holds to machine precision
   by construction, unlike a range-space (Schur-complement) elimination,
   which amplifies roundoff by ||H^-1|| ~ barrier_t / reg along the
   curvature-free log-linear directions every GP formulation has. *)

(* What one barrier phase minimizes: [pg_obj] over [pg_n] log-space
   coordinates subject to [pg_ineqs] < 0, with [pg_rows] y held at the
   start point's value.  Phase II is the compiled program itself
   ({!phase2_program}); phase I is built from it once per solve
   ({!phase1_program}).  Both kernels run the same programs. *)
type program = {
  pg_n : int;
  pg_obj : Compiled.fn;
  pg_ineqs : Compiled.fn array;
  pg_rows : Vec.t array;
  pg_max_terms : int;
}

(* Per-phase workspace, owned by one solve. *)
type ws = {
  w_y : float array;
  w_cand : float array;
  w_grad : float array;
  w_hess : float array;  (* n * n, stride n *)
  w_gi : float array;
  w_hi : float array;  (* n * n, stride n *)
  w_dy : float array;
  w_es : float array;
  w_vis : float array;  (* per-inequality values at the current iterate *)
  w_hz : Vec.t array;
  w_hr : Mat.t;
  w_hr0 : float array;  (* pristine reduced Hessian, lower triangle, stride q *)
  w_u : Vec.t;
  w_u0 : float array;  (* pristine reduced RHS *)
}

let make_ws ~n ~q ~max_terms ~nineqs =
  {
    w_y = Array.make n 0.0;
    w_cand = Array.make n 0.0;
    w_grad = Array.make n 0.0;
    w_hess = Array.make (n * n) 0.0;
    w_gi = Array.make n 0.0;
    w_hi = Array.make (n * n) 0.0;
    w_dy = Array.make n 0.0;
    w_es = Array.make (max 1 max_terms) 0.0;
    w_vis = Array.make (max 1 nineqs) 0.0;
    w_hz = Array.init q (fun _ -> Vec.create n);
    w_hr = Mat.create q q;
    w_hr0 = Array.make (max 1 (q * q)) 0.0;
    w_u = Vec.create q;
    w_u0 = Array.make (max 1 q) 0.0;
  }

let centering ~ws ~(pg : program) ~zbasis ~initial_reg ~st ~stop ~barrier_t y0 =
  let n = pg.pg_n in
  let nineq = Array.length pg.pg_ineqs in
  let q = Array.length zbasis in
  let grad = ws.w_grad in
  let hess = ws.w_hess in
  let gi = ws.w_gi in
  let hi = ws.w_hi in
  let es = ws.w_es in
  let vis = ws.w_vis in
  let y = ws.w_y in
  if y != y0 then Array.blit y0 0 y 0 n;
  (* Line-search merit value at a candidate, [None] when any inequality
     is >= 0.  Stopping at the first such value skips only pure
     computations.  A NaN value never triggers the exit ([v >= 0.0] is
     false for NaN); the accept test below then fails on the NaN merit
     value instead. *)
  let phi_cand cand =
    let ok = ref true in
    let i = ref 0 in
    while !ok && !i < nineq do
      let v = Compiled.value (Array.unsafe_get pg.pg_ineqs !i) ~es cand in
      if v >= 0.0 then ok := false
      else begin
        Array.unsafe_set vis !i v;
        incr i
      end
    done;
    if not !ok then None
    else begin
      let acc = ref (barrier_t *. Compiled.value pg.pg_obj ~es cand) in
      for j = 0 to nineq - 1 do
        acc := !acc -. log (-.Array.unsafe_get vis j)
      done;
      Some !acc
    end
  in
  let converged = ref false in
  let iter = ref 0 in
  while (not !converged) && !iter < 80 do
    incr iter;
    st.newton_iters <- st.newton_iters + 1;
    (* Combined gradient/Hessian of barrier_t * f0 - sum log(-f_i).  The
       buffers are cleared in full: variables appearing only in equality
       rows are outside every support, yet the reduction reads all of
       them. *)
    Array.fill grad 0 n 0.0;
    Array.fill hess 0 (n * n) 0.0;
    let v0 = Compiled.eval_into pg.pg_obj ~es ~grad:gi ~hess:hi ~hn:n y in
    let sup0 = pg.pg_obj.Compiled.f_support in
    let ns0 = Array.length sup0 in
    for a = 0 to ns0 - 1 do
      let i = Array.unsafe_get sup0 a in
      Array.unsafe_set grad i (barrier_t *. Array.unsafe_get gi i);
      let base = i * n in
      for b = 0 to ns0 - 1 do
        let j = Array.unsafe_get sup0 b in
        Array.unsafe_set hess (base + j) (barrier_t *. Array.unsafe_get hi (base + j))
      done
    done;
    for gidx = 0 to nineq - 1 do
      let g = Array.unsafe_get pg.pg_ineqs gidx in
      let vi = Compiled.eval_into g ~es ~grad:gi ~hess:hi ~hn:n y in
      Array.unsafe_set vis gidx vi;
      (* vi < 0 by the line-search invariant *)
      let inv = -1.0 /. vi in
      let sup = g.Compiled.f_support in
      let ns = Array.length sup in
      for a = 0 to ns - 1 do
        let i = Array.unsafe_get sup a in
        Array.unsafe_set grad i (Array.unsafe_get grad i +. (inv *. Array.unsafe_get gi i))
      done;
      for a = 0 to ns - 1 do
        let i = Array.unsafe_get sup a in
        let gi_i = Array.unsafe_get gi i in
        let base = i * n in
        for b = 0 to ns - 1 do
          let j = Array.unsafe_get sup b in
          let o = base + j in
          Array.unsafe_set hess o
            (Array.unsafe_get hess o
            +. ((inv *. Array.unsafe_get hi o) +. (inv *. inv *. gi_i *. Array.unsafe_get gi j))
            )
        done
      done
    done;
    (* Structured KKT solve in the nullspace basis: the products
       [hz_j = H z_j], the reduced Hessian entries [z_j . hz_l] and the
       reduced RHS [-z_j . grad] are fixed for this step, so they are
       computed once and replayed on every regularization retry. *)
    for j = 0 to q - 1 do
      let zj = zbasis.(j) in
      let hzj = ws.w_hz.(j) in
      for i = 0 to n - 1 do
        let base = i * n in
        let acc = ref 0.0 in
        for k = 0 to n - 1 do
          acc := !acc +. (Array.unsafe_get hess (base + k) *. Array.unsafe_get zj k)
        done;
        Array.unsafe_set hzj i !acc
      done
    done;
    let hr0 = ws.w_hr0 and u0 = ws.w_u0 in
    for j = 0 to q - 1 do
      let zj = zbasis.(j) in
      for l = 0 to j do
        let hzl = ws.w_hz.(l) in
        let acc = ref 0.0 in
        for i = 0 to n - 1 do
          acc := !acc +. (Array.unsafe_get zj i *. Array.unsafe_get hzl i)
        done;
        Array.unsafe_set hr0 ((j * q) + l) !acc
      done;
      let acc = ref 0.0 in
      for i = 0 to n - 1 do
        acc := !acc +. (Array.unsafe_get zj i *. Array.unsafe_get grad i)
      done;
      Array.unsafe_set u0 j (-. !acc)
    done;
    let solve_structured reg =
      let hr = ws.w_hr in
      let u = ws.w_u in
      for j = 0 to q - 1 do
        for l = 0 to j do
          Mat.set hr j l (Array.unsafe_get hr0 ((j * q) + l))
        done;
        Mat.add_to hr j j reg
      done;
      Mat.cholesky_in_place hr;
      Array.blit u0 0 u 0 q;
      Mat.cholesky_solve_in_place hr u;
      let dy = ws.w_dy in
      Array.fill dy 0 n 0.0;
      for j = 0 to q - 1 do
        let uj = u.(j) in
        if uj <> 0.0 then begin
          let zj = zbasis.(j) in
          for i = 0 to n - 1 do
            Array.unsafe_set dy i (Array.unsafe_get dy i +. (uj *. Array.unsafe_get zj i))
          done
        end
      done;
      dy
    in
    let dy =
      let rec attempt reg tries =
        match solve_structured reg with
        | dy -> Some dy
        | exception Mat.Singular ->
          if tries <= 0 then None
          else begin
            st.kkt_regularizations <- st.kkt_regularizations + 1;
            attempt (reg *. 100.0) (tries - 1)
          end
      in
      match attempt initial_reg 6 with
      | Some dy -> Some dy
      | None ->
        (* Cholesky keeps failing even under heavy regularization (an
           indefinite Hessian from numerical noise): fall back once to
           the dense pivoted-LU KKT path before giving up on the step. *)
        st.cholesky_fallbacks <- st.cholesky_fallbacks + 1;
        let hess_m = Mat.init n n (fun i j -> hess.((i * n) + j)) in
        attempt_dense ~st ~initial_reg ~hess:hess_m ~grad ~rows:pg.pg_rows n
    in
    match dy with
    | None ->
      (* Singular under every factorization: accept the current
         (feasible) point. *)
      converged := true
    | Some dy ->
      let slope =
        let acc = ref 0.0 in
        for i = 0 to n - 1 do
          acc := !acc +. (Array.unsafe_get grad i *. Array.unsafe_get dy i)
        done;
        !acc
      in
      let lambda2 = -.slope in
      if lambda2 /. 2.0 < 1e-10 then converged := true
      else begin
        (* Merit value at the current iterate, from the values the
           assembly above just computed. *)
        let phi0 =
          let ok = ref true in
          for j = 0 to nineq - 1 do
            if vis.(j) >= 0.0 then ok := false
          done;
          if not !ok then
            invalid_arg "Gp.Solver: centering started at an infeasible point"
          else begin
            let acc = ref (barrier_t *. v0) in
            for j = 0 to nineq - 1 do
              acc := !acc -. log (-.vis.(j))
            done;
            !acc
          end
        in
        (* Backtracking line search with the strict-feasibility
           invariant. *)
        let cand = ws.w_cand in
        let rec search alpha tries =
          if tries <= 0 then false
          else begin
            for i = 0 to n - 1 do
              Array.unsafe_set cand i
                ((alpha *. Array.unsafe_get dy i) +. Array.unsafe_get y i)
            done;
            match phi_cand cand with
            | Some v when v <= phi0 +. (0.25 *. alpha *. slope) -> true
            | _ ->
              st.backtracks <- st.backtracks + 1;
              search (alpha /. 2.0) (tries - 1)
          end
        in
        if search 1.0 60 then begin
          Array.blit cand 0 y 0 n;
          if stop y then converged := true
        end
        else converged := true (* cannot make progress; accept the point *)
      end
  done;
  y

(* ------------------------------------------------------------------ *)
(* Barrier loop                                                       *)
(* ------------------------------------------------------------------ *)

(* [check] is the cooperative deadline hook: called before every outer
   (centering) iteration, it raises {!Deadline} once the caller's budget
   is spent.  Checks sit at outer-iteration boundaries only — a single
   centering runs to completion — keeping the hot path untouched.

   The loop is written against an abstract [centering] closure (and the
   inequality count [m]) so both kernels run through the identical
   control flow: same schedule, same stop conditions, same stats
   ticks. *)
let barrier ?(stop_early = fun _ -> false) ~check ~st ~phase ~tol ~max_outer ~m
    ~centering y0 =
  let tick () =
    match phase with
    | `One -> st.phase1_outer <- st.phase1_outer + 1
    | `Two -> st.phase2_outer <- st.phase2_outer + 1
  in
  if m = 0 then begin
    check ();
    if phase = `Two then st.duality_gap <- 0.0;
    (centering ~barrier_t:1.0 y0, true)
  end
  else begin
    let y = ref y0 in
    let t = ref 1.0 in
    let mu = 20.0 in
    let outer = ref 0 in
    let done_ = ref false in
    let clean = ref false in
    while not !done_ do
      incr outer;
      tick ();
      check ();
      y := centering ~barrier_t:!t !y;
      if stop_early !y then begin
        done_ := true;
        clean := true
      end
      else if float_of_int m /. !t < tol then begin
        done_ := true;
        clean := true
      end
      else if !outer >= max_outer then done_ := true
      else t := !t *. mu
    done;
    if phase = `Two then st.duality_gap <- float_of_int m /. !t;
    (!y, !clean)
  end

(* ------------------------------------------------------------------ *)
(* Programs and kernels                                               *)
(* ------------------------------------------------------------------ *)

let phase2_program (c : Compiled.t) =
  {
    pg_n = c.Compiled.n;
    pg_obj = c.Compiled.objective;
    pg_ineqs = c.Compiled.ineqs;
    pg_rows = c.Compiled.rows;
    pg_max_terms = c.Compiled.max_terms;
  }

(* Bound on every log-space coordinate in phase I.  [exp 700] is still
   finite, and any point beyond the box overflows to [inf] when mapped
   back to the positive space, so the box loses no usable point. *)
let phase1_box = 700.0

(* Phase I minimizes the slack s = y_n over the n + 1 coordinates (y, s)
   subject to f_i(y) - s <= 0, the floor -s - 20 <= 0 and the box
   |y_j| <= box (two affine inequalities per coordinate).  The box keeps
   the program bounded: a variable that enters the inequalities only
   with negative exponents, like a delay epigraph T in c / T <= 1, would
   otherwise lower the barrier without limit as log T grows, and every
   centering would run to its Newton cap. *)
let phase1_program (c : Compiled.t) ~box =
  let n = c.Compiled.n in
  let bounds =
    Array.init (2 * n) (fun k ->
        Compiled.affine [ (k / 2, if k mod 2 = 0 then 1.0 else -1.0) ] (-.box))
  in
  {
    pg_n = n + 1;
    pg_obj = Compiled.affine [ (n, 1.0) ] 0.0;
    pg_ineqs =
      Array.concat
        [
          [| Compiled.affine [ (n, -1.0) ] (-20.0) |];
          Array.map (Compiled.minus_slack n) c.Compiled.ineqs;
          bounds;
        ];
    pg_rows = Array.map (fun a -> Vec.concat a [| 0.0 |]) c.Compiled.rows;
    pg_max_terms = c.Compiled.max_terms;
  }

(* A compiled function as a dense [Smooth] closure over [n] coordinates:
   same rows, log coefficients and linear part, hence (by the
   {!Compiled} contract) the same values. *)
let smooth n (f : Compiled.fn) =
  let lin = Vec.create n in
  Array.iteri (fun p i -> lin.(i) <- f.Compiled.f_lin_coef.(p)) f.Compiled.f_lin_idx;
  let linear = Smooth.linear n lin f.Compiled.f_lin_const in
  if f.Compiled.f_nterms = 0 then linear
  else begin
    let lse =
      Smooth.log_sum_exp n
        (List.init f.Compiled.f_nterms (fun k ->
             let a = Vec.create n in
             for q = f.Compiled.f_starts.(k) to f.Compiled.f_starts.(k + 1) - 1 do
               a.(f.Compiled.f_idx.(q)) <- f.Compiled.f_coef.(q)
             done;
             (a, f.Compiled.f_b.(k))))
    in
    if Array.length f.Compiled.f_lin_idx = 0 && f.Compiled.f_lin_const = 0.0 then lse
    else Smooth.add lse linear
  end

(* A kernel turns a program into its centering
   [fun ~stop ~barrier_t y -> ...].  The list kernel evaluates the
   program's functions as dense [Smooth] closures; the compiled kernel
   computes the nullspace basis and its workspace once per program. *)
let list_kernel ~st ~initial_reg pg =
  let n = pg.pg_n in
  let objective = smooth n pg.pg_obj in
  let ineqs = Array.to_list (Array.map (smooth n) pg.pg_ineqs) in
  fun ~stop ~barrier_t y ->
    centering_list ~initial_reg ~st ~stop ~barrier_t ~objective ~ineqs ~rows:pg.pg_rows y

let compiled_kernel ~st ~initial_reg pg =
  let zbasis = Mat.nullspace_basis pg.pg_n pg.pg_rows in
  let ws =
    make_ws ~n:pg.pg_n ~q:(Array.length zbasis) ~max_terms:pg.pg_max_terms
      ~nineqs:(Array.length pg.pg_ineqs)
  in
  fun ~stop ~barrier_t y ->
    centering ~ws ~pg ~zbasis ~initial_reg ~st ~stop ~barrier_t y

(* ------------------------------------------------------------------ *)
(* Phase I                                                            *)
(* ------------------------------------------------------------------ *)

(* Find a point satisfying the equalities and strictly satisfying the
   inequalities, or decide that none exists.  Phase I needs any strictly
   feasible point, not the slack minimizer, so it returns at the first
   accepted Newton iterate (inside a centering or at an outer boundary)
   that passes [strictly_ok]. *)
let phase1 ~check ~st ~max_outer ~kernel (c : Compiled.t) y0 =
  let n = c.Compiled.n in
  let nineq = Array.length c.Compiled.ineqs in
  let es = Array.make (max 1 c.Compiled.max_terms) 0.0 in
  let value i y = Compiled.value c.Compiled.ineqs.(i) ~es y in
  (* Reads only the first n coordinates, so it also tests phase-I
     iterates (y, s). *)
  let strictly_ok y =
    let rec go i = i >= nineq || (value i y < -1e-9 && go (i + 1)) in
    go 0
  in
  if strictly_ok y0 then Some y0
  else begin
    let s0 =
      let acc = ref 0.0 in
      for i = 0 to nineq - 1 do
        acc := Float.max !acc (value i y0)
      done;
      !acc +. 1.0
    in
    (* The start must lie strictly inside the box. *)
    let box = Array.fold_left (fun acc v -> Float.max acc (Float.abs v +. 1.0)) phase1_box y0 in
    let pg = phase1_program c ~box in
    let y1, _ =
      barrier ~stop_early:strictly_ok ~check ~st ~phase:`One ~tol:1e-6 ~max_outer
        ~m:(Array.length pg.pg_ineqs)
        ~centering:(kernel pg ~stop:strictly_ok)
        (Vec.concat y0 [| s0 |])
    in
    let y = Vec.slice y1 0 n in
    if strictly_ok y then Some y else None
  end

(* ------------------------------------------------------------------ *)
(* Entry point                                                        *)
(* ------------------------------------------------------------------ *)

(* Log-space start: the least-norm solution of the equality system,
   y = A^T z with (A A^T + eps I) z = d, regularized for safety.  A warm
   start overlays a prior solution's values, then projects back onto the
   equality manifold ([y <- y + A^T z] with (A A^T + eps I) z = d - A y),
   since the warm point satisfied a {e different} problem's equalities.
   The Gram matrix is factored once for both solves; a singular one
   raises [Mat.Singular]. *)
let start_point (c : Compiled.t) warm_start =
  let n = c.Compiled.n in
  let rows = c.Compiled.rows in
  let p = Array.length rows in
  let y = Vec.create n in
  let gram =
    if p = 0 then None
    else
      Some
        (Mat.lu_factor
           (Mat.init p p (fun i j ->
                Vec.dot rows.(i) rows.(j) +. if i = j then 1e-12 else 0.0)))
  in
  let project d =
    Option.iter
      (fun lu ->
        let z = Mat.lu_solve_factored lu d in
        Array.iteri
          (fun i a ->
            for j = 0 to n - 1 do
              y.(j) <- y.(j) +. (z.(i) *. a.(j))
            done)
          rows)
      gram
  in
  project c.Compiled.rhs;
  Option.iter
    (fun warm ->
      List.iter
        (fun x ->
          match List.assoc_opt x warm with
          | Some v when Float.is_finite v && v > 0.0 ->
            y.(Hashtbl.find c.Compiled.index x) <- log v
          | _ -> ())
        c.Compiled.vars;
      project (Array.init p (fun i -> c.Compiled.rhs.(i) -. Vec.dot rows.(i) y)))
    warm_start;
  y

(* Internal deadline signal; never escapes [solve]. *)
exception Deadline

let now_ns () = Unix.gettimeofday () *. 1e9

let solve ?(tol = 1e-8) ?(max_outer = 60) ?stats ?warm_start ?(kernel = `Compiled)
    ?deadline_ns ?(initial_reg = 1e-9) problem =
  let st = match stats with Some st -> st | None -> fresh_stats () in
  reset_stats st;
  (* Cooperative deadline: checked at outer-iteration boundaries (see
     [barrier]).  [deadline_ns <= 0] trips at the very first check, which
     the fault-injection "stall" path relies on for determinism. *)
  let check =
    match deadline_ns with
    | None -> fun () -> ()
    | Some budget_ns ->
      let start = now_ns () in
      fun () -> if now_ns () -. start >= budget_ns then raise Deadline
  in
  let infeasible = { status = Infeasible; values = []; objective = nan } in
  (* Any residual numerical failure is reported as infeasibility of this
     program rather than escaping to the caller: the driver treats such
     choices as unusable and moves on. *)
  match
    let c = Compiled.compile problem in
    if not c.Compiled.consistent then infeasible
    else begin
      let y0 = start_point c warm_start in
      let kernel =
        match kernel with
        | `List -> list_kernel ~st ~initial_reg
        | `Compiled -> compiled_kernel ~st ~initial_reg
      in
      match phase1 ~check ~st ~max_outer ~kernel c y0 with
      | None ->
        Log.debug (fun m -> m "phase I failed: problem infeasible");
        infeasible
      | Some y_feas ->
        let y_opt, clean =
          barrier ~check ~st ~phase:`Two ~tol ~max_outer
            ~m:(Array.length c.Compiled.ineqs)
            ~centering:(kernel (phase2_program c) ~stop:(fun _ -> false))
            y_feas
        in
        let envt = Array.map exp y_opt in
        {
          status = (if clean then Optimal else Iteration_limit);
          values = List.mapi (fun i x -> (x, envt.(i))) c.Compiled.vars;
          objective =
            P.eval (fun x -> envt.(Hashtbl.find c.Compiled.index x)) (Problem.objective problem);
        }
    end
  with
  | solution -> solution
  | exception Mat.Singular ->
    Log.debug (fun m -> m "numerical failure: treating the program as infeasible");
    infeasible
  | exception Deadline ->
    st.deadline_hits <- st.deadline_hits + 1;
    Log.debug (fun m -> m "solve deadline exceeded");
    { status = Deadline_exceeded; values = []; objective = nan }
