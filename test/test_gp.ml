(* Tests for the geometric-programming solver against problems with known
   closed-form optima, plus feasibility/optimality properties. *)

module M = Symexpr.Monomial
module P = Symexpr.Posynomial

let approx ?(eps = 1e-4) a b = Float.abs (a -. b) <= eps *. (1.0 +. Float.abs b)

let check_float name expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %g, got %g" name expected actual)
    true (approx expected actual)

let solve = Gp.Solver.solve

let status_name = function
  | Gp.Solver.Optimal -> "optimal"
  | Gp.Solver.Infeasible -> "infeasible"
  | Gp.Solver.Iteration_limit -> "iteration-limit"
  | Gp.Solver.Deadline_exceeded -> "deadline-exceeded"

let check_optimal sol =
  Alcotest.(check string) "status" "optimal" (status_name sol.Gp.Solver.status)

(* min x + y  s.t. x y >= 1  ->  x = y = 1, objective 2 (AM-GM). *)
let test_amgm () =
  let prob =
    Gp.Problem.make
      ~objective:(P.add (P.var "x") (P.var "y"))
      ~ineqs:
        [ ("xy>=1", P.of_monomial (M.make 1.0 [ ("x", -1.0); ("y", -1.0) ])) ]
      ()
  in
  let sol = solve prob in
  check_optimal sol;
  check_float "objective" 2.0 sol.Gp.Solver.objective;
  check_float "x" 1.0 (Gp.Solver.lookup sol "x");
  check_float "y" 1.0 (Gp.Solver.lookup sol "y")

(* min x  s.t. x y = 4, y <= 2  ->  x = 2. *)
let test_equality () =
  let prob =
    Gp.Problem.make ~objective:(P.var "x")
      ~ineqs:[ ("y<=2", Gp.Problem.le_const (P.var "y") 2.0) ]
      ~eqs:[ ("xy=4", Gp.Problem.eq (M.mul (M.var "x") (M.var "y")) (M.const 4.0)) ]
      ()
  in
  let sol = solve prob in
  check_optimal sol;
  check_float "x" 2.0 (Gp.Solver.lookup sol "x");
  check_float "y" 2.0 (Gp.Solver.lookup sol "y")

(* min x + 1/x (no constraints) -> 2 at x = 1. *)
let test_unconstrained () =
  let prob =
    Gp.Problem.make
      ~objective:(P.add (P.var "x") (P.of_monomial (M.var_pow "x" (-1.0))))
      ()
  in
  let sol = solve prob in
  check_float "objective" 2.0 sol.Gp.Solver.objective;
  check_float "x" 1.0 (Gp.Solver.lookup sol "x")

(* min sqrt x + 4/x -> stationary at x^1.5 = 8, x = 4, objective 3. *)
let test_fractional_exponent () =
  let prob =
    Gp.Problem.make
      ~objective:
        (P.of_monomials [ M.var_pow "x" 0.5; M.make 4.0 [ ("x", -1.0) ] ])
      ()
  in
  let sol = solve prob in
  check_float "x" 4.0 (Gp.Solver.lookup sol "x");
  check_float "objective" 3.0 sol.Gp.Solver.objective

(* Classic box design: minimize total wall area of an open box of volume 8
   with a square base: min b^2 + 4 b h  s.t. b^2 h = 8.
   Substituting h = 8/b^2: A = b^2 + 32/b, A' = 2b - 32/b^2 = 0 -> b^3 = 16. *)
let test_box_design () =
  let b = M.var "b" and h = M.var "h" in
  let prob =
    Gp.Problem.make
      ~objective:
        (P.of_monomials [ M.pow b 2.0; M.scale 4.0 (M.mul b h) ])
      ~eqs:
        [ ("volume", Gp.Problem.eq (M.mul (M.pow b 2.0) h) (M.const 8.0)) ]
      ()
  in
  let sol = solve prob in
  check_optimal sol;
  let b_star = Float.pow 16.0 (1.0 /. 3.0) in
  check_float "b" b_star (Gp.Solver.lookup sol "b");
  check_float "objective"
    ((b_star ** 2.0) +. (32.0 /. b_star))
    sol.Gp.Solver.objective

(* Infeasible: x <= 1/2 and x >= 2. *)
let test_infeasible () =
  let prob =
    Gp.Problem.make ~objective:(P.var "x")
      ~ineqs:
        [
          ("x<=0.5", Gp.Problem.le_const (P.var "x") 0.5);
          ("x>=2", P.of_monomial (M.make 2.0 [ ("x", -1.0) ]));
        ]
      ()
  in
  let sol = solve prob in
  Alcotest.(check string) "status" "infeasible" (status_name sol.Gp.Solver.status)

(* Inconsistent constant equality. *)
let test_inconsistent_equality () =
  let prob =
    Gp.Problem.make ~objective:(P.var "x")
      ~eqs:[ ("2=1", Gp.Problem.eq (M.const 2.0) M.one) ]
      ()
  in
  let sol = solve prob in
  Alcotest.(check string) "status" "infeasible" (status_name sol.Gp.Solver.status)

(* A problem shaped like the paper's Eq. 3 for a tiny matmul: checks that
   multi-variable tiling problems with several equalities solve cleanly. *)
let test_matmul_shaped () =
  let n = 64.0 in
  let vars l d = M.var (Printf.sprintf "t%d.%s" l d) in
  let prod d = List.fold_left (fun acc l -> M.mul acc (vars l d)) M.one [ 0; 1; 2; 3 ] in
  let eqs =
    List.map
      (fun d -> (Printf.sprintf "extent:%s" d, Gp.Problem.eq (prod d) (M.const n)))
      [ "i"; "j"; "k" ]
  in
  let bounds =
    List.concat_map
      (fun d ->
        List.map
          (fun l ->
            let v = Printf.sprintf "t%d.%s" l d in
            (Printf.sprintf "bound:%s" v, P.of_monomial (M.var_pow v (-1.0))))
          [ 0; 1; 2; 3 ])
      [ "i"; "j"; "k" ]
  in
  let reg_cap =
    Gp.Problem.le_const
      (P.of_monomials
         [
           M.mul (vars 0 "i") (vars 0 "j");
           M.mul (vars 0 "i") (vars 0 "k");
           M.mul (vars 0 "j") (vars 0 "k");
         ])
      64.0
  in
  (* DRAM volume shaped objective: N^3/Si + N^3/Sj terms. *)
  let s d = M.mul (vars 0 d) (M.mul (vars 1 d) (vars 2 d)) in
  let objective =
    P.of_monomials
      [
        M.scale (n ** 3.0) (M.pow (s "i") (-1.0));
        M.scale (n ** 3.0) (M.pow (s "j") (-1.0));
        M.scale (n ** 3.0) (M.pow (s "k") (-1.0));
      ]
  in
  let prob =
    Gp.Problem.make ~objective ~ineqs:(("reg", reg_cap) :: bounds) ~eqs ()
  in
  let sol = solve prob in
  check_optimal sol;
  Alcotest.(check bool)
    "feasible" true
    (Gp.Problem.is_feasible ~tol:1e-4 prob (Gp.Solver.env sol))

(* Boyd et al.'s floor-planning-style GP: minimize the bounding-box area
   h*w of two stacked rectangles with fixed areas and aspect limits.
   minimize h*w s.t. h >= h1 + h2, w*h1 >= a1, w*h2 >= a2,
   aspect: h1 <= 2w, w <= 2 h1 (etc.).  With a1 = a2 = 2 and loose aspect
   bounds the optimum stacks two 1x2 rectangles: w = 2, h = 2, area 4. *)
let test_floorplan () =
  let v = M.var in
  let prob =
    Gp.Problem.make
      ~objective:(P.of_monomial (M.mul (v "h") (v "w")))
      ~ineqs:
        [
          ( "stack",
            Gp.Problem.le (P.add (P.var "h1") (P.var "h2")) (v "h") );
          ("area1", P.of_monomial (M.make 2.0 [ ("w", -1.0); ("h1", -1.0) ]));
          ("area2", P.of_monomial (M.make 2.0 [ ("w", -1.0); ("h2", -1.0) ]));
          ("w<=4", Gp.Problem.le_const (P.var "w") 4.0);
          ("h1<=4", Gp.Problem.le_const (P.var "h1") 4.0);
          ("h2<=4", Gp.Problem.le_const (P.var "h2") 4.0);
        ]
      ()
  in
  let sol = solve prob in
  check_optimal sol;
  check_float "area" 4.0 sol.Gp.Solver.objective

(* A moderately large structured instance (approximately the size of a
   Thistle co-design program) must solve quickly and to feasibility. *)
let test_large_structured () =
  let n_groups = 12 in
  let var g l = Printf.sprintf "x%d_%d" g l in
  let eqs =
    List.init n_groups (fun g ->
        let product =
          List.fold_left (fun acc l -> M.mul acc (M.var (var g l))) M.one [ 0; 1; 2; 3 ]
        in
        (Printf.sprintf "eq%d" g, Gp.Problem.eq product (M.const 64.0)))
  in
  let bounds =
    List.concat_map
      (fun g ->
        List.map
          (fun l ->
            (Printf.sprintf "b%d_%d" g l, P.of_monomial (M.var_pow (var g l) (-1.0))))
          [ 0; 1; 2; 3 ])
      (List.init n_groups (fun g -> g))
  in
  let cap =
    ( "cap",
      Gp.Problem.le_const
        (P.of_monomials (List.init n_groups (fun g -> M.var (var g 0))))
        48.0 )
  in
  let objective =
    P.of_monomials
      (List.init n_groups (fun g -> M.scale 100.0 (M.var_pow (var g 2) (-1.0))))
  in
  let prob = Gp.Problem.make ~objective ~ineqs:(cap :: bounds) ~eqs () in
  let t0 = Sys.time () in
  let sol = solve prob in
  let elapsed = Sys.time () -. t0 in
  check_optimal sol;
  Alcotest.(check bool)
    "feasible" true
    (Gp.Problem.is_feasible ~tol:1e-4 prob (Gp.Solver.env sol));
  Alcotest.(check bool)
    (Printf.sprintf "fast enough (%.2f s)" elapsed)
    true (elapsed < 5.0)

let test_violations_report () =
  let prob =
    Gp.Problem.make ~objective:(P.var "x")
      ~ineqs:[ ("x<=2", Gp.Problem.le_const (P.var "x") 2.0) ]
      ~eqs:[ ("xy=4", Gp.Problem.eq (M.mul (M.var "x") (M.var "y")) (M.const 4.0)) ]
      ()
  in
  let bad = function "x" -> 3.0 | _ -> 1.0 in
  let violations = Gp.Problem.violations prob bad in
  Alcotest.(check (list string))
    "both violated" [ "x<=2"; "xy=4" ]
    (List.map fst violations);
  let good = function "x" -> 2.0 | _ -> 2.0 in
  Alcotest.(check bool) "feasible point" true (Gp.Problem.is_feasible prob good)

let test_zero_objective_rejected () =
  Alcotest.check_raises "zero objective"
    (Invalid_argument "Gp.Problem.make: zero objective") (fun () ->
      ignore (Gp.Problem.make ~objective:P.zero ()))

let contains hay needle =
  let n = String.length needle and m = String.length hay in
  let rec go i = i + n <= m && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* lookup/env on a missing variable must raise a descriptive
   Invalid_argument naming the variable and the ones the solution does
   carry — never a bare Not_found. *)
let test_lookup_missing () =
  let prob =
    Gp.Problem.make
      ~objective:(P.add (P.var "x") (P.of_monomial (M.var_pow "x" (-1.0))))
      ()
  in
  let sol = solve prob in
  let expect_raise f =
    match f () with
    | exception Invalid_argument msg ->
      Alcotest.(check bool)
        (Printf.sprintf "message %S names the missing variable" msg)
        true (contains msg "nosuch");
      Alcotest.(check bool)
        (Printf.sprintf "message %S lists the available variables" msg)
        true (contains msg "x")
    | exception Not_found -> Alcotest.fail "raised bare Not_found"
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  expect_raise (fun () -> Gp.Solver.lookup sol "nosuch");
  expect_raise (fun () -> Gp.Solver.env sol "nosuch")

(* --- telemetry --- *)

let test_stats_optimal () =
  let prob =
    Gp.Problem.make
      ~objective:(P.add (P.var "x") (P.var "y"))
      ~ineqs:
        [ ("xy>=1", P.of_monomial (M.make 1.0 [ ("x", -1.0); ("y", -1.0) ])) ]
      ()
  in
  let st = Gp.Solver.fresh_stats () in
  let sol = Gp.Solver.solve ~stats:st prob in
  check_optimal sol;
  Alcotest.(check bool) "phase II ran" true (st.Gp.Solver.phase2_outer > 0);
  Alcotest.(check bool) "newton steps counted" true
    (st.Gp.Solver.newton_iters >= st.Gp.Solver.phase2_outer);
  Alcotest.(check bool) "gap is finite" true (Float.is_finite st.Gp.Solver.duality_gap);
  Alcotest.(check bool)
    (Printf.sprintf "gap %g certified below tolerance" st.Gp.Solver.duality_gap)
    true
    (st.Gp.Solver.duality_gap >= 0.0 && st.Gp.Solver.duality_gap <= 1e-6);
  (* Passing a sink must not perturb the solution. *)
  let plain = solve prob in
  Alcotest.(check bool) "solution unchanged by stats" true
    (plain.Gp.Solver.values = sol.Gp.Solver.values
    && Int64.bits_of_float plain.Gp.Solver.objective
       = Int64.bits_of_float sol.Gp.Solver.objective)

let test_stats_infeasible () =
  let prob =
    Gp.Problem.make ~objective:(P.var "x")
      ~ineqs:
        [
          ("x<=0.5", Gp.Problem.le_const (P.var "x") 0.5);
          ("x>=2", P.of_monomial (M.make 2.0 [ ("x", -1.0) ]));
        ]
      ()
  in
  let st = Gp.Solver.fresh_stats () in
  let sol = Gp.Solver.solve ~stats:st prob in
  Alcotest.(check string) "status" "infeasible" (status_name sol.Gp.Solver.status);
  Alcotest.(check bool) "gap is nan when phase II never ran" true
    (Float.is_nan st.Gp.Solver.duality_gap)

let test_stats_no_inequalities () =
  let prob =
    Gp.Problem.make
      ~objective:(P.add (P.var "x") (P.of_monomial (M.var_pow "x" (-1.0))))
      ()
  in
  let st = Gp.Solver.fresh_stats () in
  let sol = Gp.Solver.solve ~stats:st prob in
  check_float "objective" 2.0 sol.Gp.Solver.objective;
  Alcotest.(check (float 0.0)) "gap is exactly 0 without inequalities" 0.0
    st.Gp.Solver.duality_gap

let test_totals_accumulate () =
  let s1 = Gp.Solver.fresh_stats () in
  s1.Gp.Solver.phase1_outer <- 2;
  s1.Gp.Solver.phase2_outer <- 5;
  s1.Gp.Solver.newton_iters <- 40;
  s1.Gp.Solver.backtracks <- 7;
  s1.Gp.Solver.kkt_regularizations <- 1;
  s1.Gp.Solver.duality_gap <- 1e-3;
  let s2 = Gp.Solver.fresh_stats () in
  s2.Gp.Solver.phase2_outer <- 3;
  s2.Gp.Solver.newton_iters <- 10;
  (* s2's gap stays nan (infeasible solve): it must not poison the max. *)
  let t =
    Gp.Solver.(accumulate (accumulate zero_totals s1) s2)
  in
  Alcotest.(check int) "solves" 2 t.Gp.Solver.solves;
  Alcotest.(check int) "phase1" 2 t.Gp.Solver.t_phase1_outer;
  Alcotest.(check int) "phase2" 8 t.Gp.Solver.t_phase2_outer;
  Alcotest.(check int) "newton" 50 t.Gp.Solver.t_newton_iters;
  Alcotest.(check int) "backtracks" 7 t.Gp.Solver.t_backtracks;
  Alcotest.(check int) "kkt" 1 t.Gp.Solver.t_kkt_regularizations;
  Alcotest.(check (float 0.0)) "nan gap skipped in max" 1e-3
    t.Gp.Solver.max_duality_gap;
  (* Accumulation order must not matter. *)
  let t' = Gp.Solver.(accumulate (accumulate zero_totals s2) s1) in
  Alcotest.(check bool) "order-independent" true (t = t')

(* --- properties --- *)

(* Monomial objective with nonnegative exponents over a box [1, u]^2 is
   minimized at the all-ones corner. *)
let prop_box_corner =
  let gen =
    QCheck2.Gen.(
      triple (float_range 0.1 3.0) (float_range 0.1 3.0) (float_range 2.0 16.0))
  in
  QCheck2.Test.make ~name:"monomial over a box is minimized at 1" ~count:50 gen
    (fun (a, b, u) ->
      let prob =
        Gp.Problem.make
          ~objective:(P.of_monomial (M.make 1.0 [ ("x", a); ("y", b) ]))
          ~ineqs:
            [
              ("x>=1", P.of_monomial (M.var_pow "x" (-1.0)));
              ("y>=1", P.of_monomial (M.var_pow "y" (-1.0)));
              ("x<=u", Gp.Problem.le_const (P.var "x") u);
              ("y<=u", Gp.Problem.le_const (P.var "y") u);
            ]
          ()
      in
      let sol = solve prob in
      approx ~eps:1e-3 1.0 sol.Gp.Solver.objective)

(* Random 2-variable posynomial objective over a box: the solver should
   never be beaten by a grid scan (up to tolerance). *)
let prop_beats_grid =
  let gen_term =
    QCheck2.Gen.(
      triple (float_range 0.1 5.0) (float_range (-2.0) 2.0) (float_range (-2.0) 2.0))
  in
  let gen = QCheck2.Gen.(list_size (int_range 1 4) gen_term) in
  QCheck2.Test.make ~name:"solver <= grid scan on the box" ~count:40 gen (fun terms ->
      let objective =
        P.of_monomials
          (List.map (fun (c, a, b) -> M.make c [ ("x", a); ("y", b) ]) terms)
      in
      let u = 8.0 in
      let prob =
        Gp.Problem.make ~objective
          ~ineqs:
            [
              ("x>=1", P.of_monomial (M.var_pow "x" (-1.0)));
              ("y>=1", P.of_monomial (M.var_pow "y" (-1.0)));
              ("x<=u", Gp.Problem.le_const (P.var "x") u);
              ("y<=u", Gp.Problem.le_const (P.var "y") u);
            ]
          ()
      in
      let sol = solve prob in
      let grid_best = ref infinity in
      let steps = 40 in
      for i = 0 to steps do
        for j = 0 to steps do
          let x = exp (log u *. float_of_int i /. float_of_int steps) in
          let y = exp (log u *. float_of_int j /. float_of_int steps) in
          let v = P.eval (function "x" -> x | _ -> y) objective in
          if v < !grid_best then grid_best := v
        done
      done;
      sol.Gp.Solver.objective <= !grid_best *. 1.001)

(* The returned point always satisfies the constraints. *)
let prop_solution_feasible =
  let gen =
    QCheck2.Gen.(
      triple (float_range 1.5 100.0) (float_range 1.5 100.0) (float_range 1.5 50.0))
  in
  QCheck2.Test.make ~name:"solution is feasible" ~count:50 gen (fun (cap1, cap2, n) ->
      let prob =
        Gp.Problem.make
          ~objective:(P.add (P.var "x") (P.of_monomial (M.make n [ ("y", -1.0) ])))
          ~ineqs:
            [
              ("xy<=cap1", Gp.Problem.le_const (P.of_monomial (M.mul (M.var "x") (M.var "y"))) cap1);
              ("x+y<=cap2", Gp.Problem.le_const (P.add (P.var "x") (P.var "y")) cap2);
              ("x>=1", P.of_monomial (M.var_pow "x" (-1.0)));
              ("y>=1", P.of_monomial (M.var_pow "y" (-1.0)));
            ]
          ()
      in
      let sol = solve prob in
      match sol.Gp.Solver.status with
      | Gp.Solver.Infeasible -> cap1 < 1.0 +. 1e-6 || cap2 < 2.0 +. 1e-6
      | Gp.Solver.Deadline_exceeded -> false (* no deadline was set *)
      | Gp.Solver.Optimal | Gp.Solver.Iteration_limit ->
        Gp.Problem.is_feasible ~tol:1e-5 prob (Gp.Solver.env sol))

(* Random small DGP instances, feasible by construction: a random
   posynomial objective and a random posynomial constraint g <= cap over
   the box [1, 8]^2, with cap = slack * g(1, 1) so the all-ones point is
   strictly feasible.  Whenever the solver claims Optimal, the returned
   point must (a) violate nothing, (b) not be beaten by a brute-force
   log-grid scan over the feasible box, and (c) carry a certified gap. *)
let gen_dgp =
  QCheck2.Gen.(
    let term lo = triple (float_range 0.1 5.0) (float_range lo 2.0) (float_range lo 2.0) in
    triple
      (list_size (int_range 1 4) (term (-2.0)))
      (list_size (int_range 1 3) (term 0.1))
      (float_range 1.2 4.0))

let build_dgp (obj_terms, con_terms, slack) =
  let posy terms =
    P.of_monomials (List.map (fun (c, a, b) -> M.make c [ ("x", a); ("y", b) ]) terms)
  in
  let g = posy con_terms in
  let cap = slack *. P.eval (fun _ -> 1.0) g in
  let u = 8.0 in
  let prob =
    Gp.Problem.make ~objective:(posy obj_terms)
      ~ineqs:
        [
          ("g<=cap", Gp.Problem.le_const g cap);
          ("x>=1", P.of_monomial (M.var_pow "x" (-1.0)));
          ("y>=1", P.of_monomial (M.var_pow "y" (-1.0)));
          ("x<=u", Gp.Problem.le_const (P.var "x") u);
          ("y<=u", Gp.Problem.le_const (P.var "y") u);
        ]
      ()
  in
  (prob, posy obj_terms, g, cap, u)

let prop_random_dgp_optimal =
  QCheck2.Test.make ~name:"random feasible DGP: optimal, clean, matches grid"
    ~count:40 gen_dgp (fun instance ->
      let prob, objective, g, cap, u = build_dgp instance in
      let st = Gp.Solver.fresh_stats () in
      let sol = Gp.Solver.solve ~stats:st prob in
      match sol.Gp.Solver.status with
      | Gp.Solver.Infeasible -> false (* feasible by construction *)
      | Gp.Solver.Deadline_exceeded -> false (* no deadline was set *)
      | Gp.Solver.Iteration_limit ->
        (* Not certified: only require the point it did return to be
           feasible (matches the solver's documented contract). *)
        Gp.Problem.is_feasible ~tol:1e-5 prob (Gp.Solver.env sol)
      | Gp.Solver.Optimal ->
        let env = Gp.Solver.env sol in
        let clean = Gp.Problem.violations ~tol:1e-5 prob env = [] in
        let grid_best = ref infinity in
        let steps = 40 in
        for i = 0 to steps do
          for j = 0 to steps do
            let x = exp (log u *. float_of_int i /. float_of_int steps) in
            let y = exp (log u *. float_of_int j /. float_of_int steps) in
            let at = function "x" -> x | _ -> y in
            if P.eval at g <= cap then begin
              let v = P.eval at objective in
              if v < !grid_best then grid_best := v
            end
          done
        done;
        clean
        && sol.Gp.Solver.objective <= !grid_best *. 1.001
        && Float.is_finite st.Gp.Solver.duality_gap)

(* The same instances with an added constant constraint c <= 1, c > 1:
   the solver must certify infeasibility, and the certificate is the
   constant constraint itself — it is violated at every point, which
   Gp.Problem.violations confirms without reference to the solver. *)
let prop_constant_infeasible =
  QCheck2.Gen.(pair gen_dgp (float_range 1.01 10.0)) |> fun gen ->
  QCheck2.Test.make ~name:"constant-violated DGP is reported infeasible" ~count:40
    gen (fun (instance, c) ->
      let prob0, _, _, _, _ = build_dgp instance in
      let prob =
        Gp.Problem.make
          ~objective:(Gp.Problem.objective prob0)
          ~ineqs:(("impossible", P.of_monomial (M.const c)) :: Gp.Problem.ineqs prob0)
          ~eqs:(Gp.Problem.eqs prob0) ()
      in
      let sol = solve prob in
      sol.Gp.Solver.status = Gp.Solver.Infeasible
      && List.mem_assoc "impossible" (Gp.Problem.violations prob (fun _ -> 1.0)))

(* Regression: Smooth.linear used to hand out one shared Hessian matrix
   from every eval; a caller accumulating into it corrupted later
   evaluations. *)
let test_linear_hessian_fresh () =
  let f = Gp.Smooth.linear 2 [| 1.0; 2.0 |] 3.0 in
  let y = [| 0.5; -0.5 |] in
  let _, g1, h1 = f.Gp.Smooth.eval y in
  Linalg.Mat.add_to h1 0 0 5.0;
  g1.(0) <- 42.0;
  let _, g2, h2 = f.Gp.Smooth.eval y in
  check_float "hessian fresh" 0.0 (Linalg.Mat.get h2 0 0);
  check_float "gradient fresh" 1.0 g2.(0)

(* The two kernels must agree on every problem to solver tolerance (the
   function evaluations are bit-identical; only the KKT factorization
   differs). *)
let kernel_ab_problem () =
  Gp.Problem.make
    ~objective:(P.add (P.var "x") (P.add (P.var "y") (P.var "z")))
    ~ineqs:
      [
        ("xyz>=8", P.of_monomial (M.make 8.0 [ ("x", -1.0); ("y", -1.0); ("z", -1.0) ]));
        ("x<=4", Gp.Problem.le_const (P.var "x") 4.0);
      ]
    ~eqs:[ ("yz=4", Gp.Problem.eq (M.mul (M.var "y") (M.var "z")) (M.const 4.0)) ]
    ()

let test_kernel_ab () =
  let prob = kernel_ab_problem () in
  let a = Gp.Solver.solve ~kernel:`Compiled prob in
  let b = Gp.Solver.solve ~kernel:`List prob in
  Alcotest.(check string) "status" (status_name b.Gp.Solver.status)
    (status_name a.Gp.Solver.status);
  check_float "objective" b.Gp.Solver.objective a.Gp.Solver.objective;
  List.iter
    (fun (x, v) -> check_float x v (Gp.Solver.lookup a x))
    b.Gp.Solver.values

let test_warm_start () =
  let prob = kernel_ab_problem () in
  let cold = Gp.Solver.solve prob in
  check_optimal cold;
  let warm = Gp.Solver.solve ~warm_start:cold.Gp.Solver.values prob in
  check_optimal warm;
  check_float "objective" cold.Gp.Solver.objective warm.Gp.Solver.objective;
  (* Garbage warm values are ignored, never fatal. *)
  let junk =
    Gp.Solver.solve ~warm_start:[ ("x", -3.0); ("y", nan); ("nosuch", 1.0) ] prob
  in
  check_optimal junk;
  check_float "objective after junk seed" cold.Gp.Solver.objective
    junk.Gp.Solver.objective

(* Phase I on a delay-style epigraph: min T s.t. 10 / T <= 1, with an
   extent equality x y = 64 under x, y <= 8.5.  The least-norm start
   (T = 1, x = y = 8) violates only the epigraph constraint.  The best
   phase-I slack is log (8 / 8.5) ~ -0.06, so a "slack below -0.5" stop
   never fires, and T enters the inequalities only with exponent -1: an
   unbounded phase I lets log T drift upward through every centering,
   each to its 80-step Newton cap (7 x 80 = 560 steps).  Phase I must
   instead stop at its first strictly feasible iterate. *)
let epigraph_problem () =
  Gp.Problem.make ~objective:(P.var "T")
    ~ineqs:
      [
        ("T>=10", P.of_monomial (M.make 10.0 [ ("T", -1.0) ]));
        ("x<=8.5", Gp.Problem.le_const (P.var "x") 8.5);
        ("y<=8.5", Gp.Problem.le_const (P.var "y") 8.5);
      ]
    ~eqs:[ ("xy=64", Gp.Problem.eq (M.mul (M.var "x") (M.var "y")) (M.const 64.0)) ]
    ()

let test_phase1_epigraph kernel () =
  let st = Gp.Solver.fresh_stats () in
  let sol = Gp.Solver.solve ~kernel ~stats:st (epigraph_problem ()) in
  check_optimal sol;
  check_float "objective" 10.0 sol.Gp.Solver.objective;
  Alcotest.(check bool) "phase I ran" true (st.Gp.Solver.phase1_outer >= 1);
  Alcotest.(check bool)
    (Printf.sprintf "phase I outer iterations %d <= 2" st.Gp.Solver.phase1_outer)
    true (st.Gp.Solver.phase1_outer <= 2);
  Alcotest.(check bool)
    (Printf.sprintf "Newton steps %d <= 200" st.Gp.Solver.newton_iters)
    true (st.Gp.Solver.newton_iters <= 200)

let () =
  Alcotest.run "gp"
    [
      ( "known optima",
        [
          Alcotest.test_case "AM-GM" `Quick test_amgm;
          Alcotest.test_case "equality" `Quick test_equality;
          Alcotest.test_case "unconstrained" `Quick test_unconstrained;
          Alcotest.test_case "fractional exponent" `Quick test_fractional_exponent;
          Alcotest.test_case "box design" `Quick test_box_design;
          Alcotest.test_case "matmul shaped" `Quick test_matmul_shaped;
          Alcotest.test_case "floorplan" `Quick test_floorplan;
          Alcotest.test_case "large structured" `Quick test_large_structured;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "violations report" `Quick test_violations_report;
          Alcotest.test_case "zero objective" `Quick test_zero_objective_rejected;
          Alcotest.test_case "lookup missing variable" `Quick test_lookup_missing;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "stats on optimal" `Quick test_stats_optimal;
          Alcotest.test_case "stats on infeasible" `Quick test_stats_infeasible;
          Alcotest.test_case "stats without inequalities" `Quick
            test_stats_no_inequalities;
          Alcotest.test_case "totals accumulate" `Quick test_totals_accumulate;
        ] );
      ( "infeasibility",
        [
          Alcotest.test_case "conflicting bounds" `Quick test_infeasible;
          Alcotest.test_case "inconsistent equality" `Quick test_inconsistent_equality;
        ] );
      ( "phase I",
        [
          Alcotest.test_case "epigraph start, compiled kernel" `Quick
            (test_phase1_epigraph `Compiled);
          Alcotest.test_case "epigraph start, list kernel" `Quick
            (test_phase1_epigraph `List);
        ] );
      ( "kernels",
        [
          Alcotest.test_case "linear hessian fresh" `Quick test_linear_hessian_fresh;
          Alcotest.test_case "compiled vs list" `Quick test_kernel_ab;
          Alcotest.test_case "warm start" `Quick test_warm_start;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_box_corner;
            prop_beats_grid;
            prop_solution_feasible;
            prop_random_dgp_optimal;
            prop_constant_infeasible;
          ] );
    ]
