(* Bit-for-bit equivalence of the compiled evaluation kernel
   (Gp.Compiled) against the reference list path (Gp.Smooth), and golden
   pins of the solver's arithmetic on the paper's flows.  The compiled
   kernel's contract is exact: same values, gradients and Hessians down
   to the last bit, for any finite inputs — this is what lets the solver
   switch kernels without perturbing results beyond the KKT
   factorization itself. *)

module Vec = Linalg.Vec
module Mat = Linalg.Mat
module M = Symexpr.Monomial
module P = Symexpr.Posynomial

let bits = Int64.bits_of_float

let same_float a b = Int64.equal (bits a) (bits b)

let check_bits name expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %h (%Lx), got %h (%Lx)" name expected (bits expected)
       actual (bits actual))
    true (same_float expected actual)

(* [Smooth.log_sum_exp n terms] as a compiled function: the dense rows'
   nonzero entries, ascending. *)
let of_terms terms =
  Gp.Compiled.of_sparse_terms
    (List.map
       (fun (a, b) ->
         (List.filter (fun (_, c) -> c <> 0.0) (List.mapi (fun i c -> (i, c)) (Array.to_list a)), b))
       terms)

(* Value, gradient and Hessian of a compiled function at [y] into fresh
   zeroed buffers (the Hessian unpacked from its flat row-major form). *)
let eval_fresh n f y =
  let es = Array.make (max 1 f.Gp.Compiled.f_nterms) 0.0 in
  let grad = Vec.create n in
  let flat = Array.make (n * n) 0.0 in
  let v = Gp.Compiled.eval_into f ~es ~grad ~hess:flat ~hn:n y in
  (Gp.Compiled.value f ~es y, v, grad, Mat.init n n (fun i j -> flat.((i * n) + j)))

(* Every bit of value / full gradient / full Hessian agrees.  The
   compiled kernel only writes support entries, so the buffers start
   zeroed — off-support entries of the dense path are always [+0.0]
   (sums from a [+0.0] start can never produce [-0.0]). *)
let agrees (smooth : Gp.Smooth.t) f y =
  let n = smooth.Gp.Smooth.dim in
  let value, v, grad, hess = eval_fresh n f y in
  let v_ref, g_ref, h_ref = smooth.Gp.Smooth.eval y in
  let ok = ref (same_float (smooth.Gp.Smooth.value y) value && same_float v_ref v) in
  for i = 0 to n - 1 do
    if not (same_float g_ref.(i) grad.(i)) then ok := false;
    for j = 0 to n - 1 do
      if not (same_float (Mat.get h_ref i j) (Mat.get hess i j)) then ok := false
    done
  done;
  !ok

let agree_on name smooth f y =
  Alcotest.(check bool) (name ^ ": bit-identical value, gradient, Hessian") true
    (agrees smooth f y)

(* G(y, s) = f(y) - s over n + 1 variables, the list path's phase-I
   image. *)
let smooth_minus_slack n base =
  let ext = Gp.Smooth.extend base 1 in
  {
    Gp.Smooth.dim = n + 1;
    value = (fun y -> ext.Gp.Smooth.value y -. y.(n));
    eval =
      (fun y ->
        let v, g, h = ext.Gp.Smooth.eval y in
        g.(n) <- g.(n) -. 1.0;
        (v -. y.(n), g, h));
  }

(* --- unit cases --- *)

let test_single_term () =
  let n = 3 in
  let terms = [ (Vec.of_list [ 1.0; -2.0; 0.0 ], log 3.0) ] in
  agree_on "single" (Gp.Smooth.log_sum_exp n terms) (of_terms terms)
    (Vec.of_list [ 0.3; -1.2; 7.0 ])

let test_constant_term () =
  (* A term with an all-zero row (a constant monomial). *)
  let n = 2 in
  let terms =
    [ (Vec.of_list [ 0.0; 0.0 ], log 2.0); (Vec.of_list [ 1.0; 1.0 ], 0.0) ]
  in
  agree_on "const-term" (Gp.Smooth.log_sum_exp n terms) (of_terms terms)
    (Vec.of_list [ -0.4; 0.9 ])

let test_affine_matches_linear () =
  let n = 4 in
  let a = Vec.of_list [ 0.5; 0.0; -1.25; 0.0 ] in
  let smooth = Gp.Smooth.linear n a 0.75 in
  let compiled = Gp.Compiled.affine [ (0, 0.5); (2, -1.25) ] 0.75 in
  agree_on "affine" smooth compiled (Vec.of_list [ 1.0; 2.0; 3.0; 4.0 ])

let test_stale_buffers () =
  (* eval_into must overwrite (not accumulate into) its support block
     even when the buffers carry stale garbage from another function. *)
  let n = 3 in
  let terms = [ (Vec.of_list [ 2.0; 0.0; 1.0 ], 0.1) ] in
  let smooth = Gp.Smooth.log_sum_exp n terms in
  let compiled = of_terms terms in
  let y = Vec.of_list [ 0.2; 0.4; -0.6 ] in
  let _, g_ref, h_ref = smooth.Gp.Smooth.eval y in
  let grad = Vec.of_list [ 5.0; 5.0; 5.0 ] in
  let hess = Array.make (n * n) 7.0 in
  let es = Array.make 1 0.0 in
  ignore (Gp.Compiled.eval_into compiled ~es ~grad ~hess ~hn:n y);
  check_bits "g0" g_ref.(0) grad.(0);
  check_bits "g2" g_ref.(2) grad.(2);
  check_bits "g1 untouched" 5.0 grad.(1);
  check_bits "h00" (Mat.get h_ref 0 0) hess.(0);
  check_bits "h02" (Mat.get h_ref 0 2) hess.(2);
  check_bits "h11 untouched" 7.0 hess.(4);
  check_bits "h01 untouched" 7.0 hess.(1)

let test_minus_slack () =
  (* The phase-I construction G(y, s) = f(y) - s over one extra
     coordinate. *)
  let n = 2 in
  let terms =
    [ (Vec.of_list [ 1.0; 0.5 ], 0.2); (Vec.of_list [ -1.0; 2.0 ], -0.3) ]
  in
  let smooth = smooth_minus_slack n (Gp.Smooth.log_sum_exp n terms) in
  let compiled = Gp.Compiled.minus_slack n (of_terms terms) in
  agree_on "slack" smooth compiled (Vec.of_list [ 0.7; -0.1; 1.3 ]);
  agree_on "slack at s=0" smooth compiled (Vec.of_list [ 0.7; -0.1; 0.0 ])

let test_rejects_bad_input () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Gp.Compiled.of_sparse_terms: empty term list") (fun () ->
      ignore (Gp.Compiled.of_sparse_terms []));
  Alcotest.check_raises "descending"
    (Invalid_argument "Gp.Compiled.of_sparse_terms: indices not strictly ascending")
    (fun () -> ignore (Gp.Compiled.of_sparse_terms [ ([ (1, 1.0); (0, 2.0) ], 0.0) ]))

(* --- properties --- *)

let gen_posynomial =
  let open QCheck2.Gen in
  let* n = int_range 2 7 in
  let* nterms = int_range 1 6 in
  let entry =
    (* Mostly structural zeros, like real formulations (each monomial
       mentions a few of the problem variables). *)
    let* zero = frequency [ (6, return true); (4, return false) ] in
    if zero then return 0.0 else float_range (-3.0) 3.0
  in
  let* rows = list_size (return nterms) (array_size (return n) entry) in
  let* bs = list_size (return nterms) (float_range (-4.0) 4.0) in
  let* y = array_size (return n) (float_range (-3.0) 3.0) in
  return (n, List.combine rows bs, y)

let prop_bit_identical =
  QCheck2.Test.make ~name:"compiled kernel is bit-identical to Smooth.log_sum_exp"
    ~count:500 gen_posynomial (fun (n, terms, y) ->
      agrees (Gp.Smooth.log_sum_exp n terms) (of_terms terms) y)

let prop_slack_bit_identical =
  QCheck2.Test.make ~name:"compiled slack extension is bit-identical" ~count:200
    gen_posynomial (fun (n, terms, y) ->
      agrees
        (smooth_minus_slack n (Gp.Smooth.log_sum_exp n terms))
        (Gp.Compiled.minus_slack n (of_terms terms))
        (Vec.concat y [| 0.5 |]))

(* Random programs: exponent rows for the objective, inequalities and
   equalities over a few variables, plus per-variable box constraints
   that keep them bounded, and occasionally a constant equality. *)
let gen_problem =
  let open QCheck2.Gen in
  let* n = int_range 2 4 in
  let vars = Array.init n (fun i -> Printf.sprintf "x%d" i) in
  let exp_choice = oneofl [ -2.0; -1.0; -0.5; 0.5; 1.0; 2.0 ] in
  let coeff = float_range 0.2 5.0 in
  let gen_mono =
    let* nv = int_range 1 (min 3 n) in
    let* start = int_range 0 (n - 1) in
    let* exps = list_size (return nv) exp_choice in
    let* c = coeff in
    return (M.make c (List.mapi (fun k e -> (vars.((start + k) mod n), e)) exps))
  in
  let gen_poly = int_range 1 4 >>= fun nt -> map P.of_monomials (list_size (return nt) gen_mono) in
  let* objective = gen_poly in
  let* ineqs = int_range 0 2 >>= fun k -> list_size (return k) gen_poly in
  let* eqs = int_range 0 1 >>= fun k -> list_size (return k) gen_mono in
  let* const_eq =
    frequency [ (4, return None); (1, return (Some 1.0)); (1, return (Some 1.5)) ]
  in
  let* y = array_size (return n) (float_range (-1.5) 1.5) in
  let box =
    List.concat
      (List.init n (fun i ->
           [
             (Printf.sprintf "ub%d" i, P.of_monomial (M.make 0.1 [ (vars.(i), 1.0) ]));
             (Printf.sprintf "lb%d" i, P.of_monomial (M.make 0.1 [ (vars.(i), -1.0) ]));
           ]))
  in
  let eqs = List.mapi (fun j m -> (Printf.sprintf "e%d" j, m)) eqs in
  let eqs = match const_eq with None -> eqs | Some c -> ("ec", M.const c) :: eqs in
  let ineqs = List.mapi (fun j p -> (Printf.sprintf "g%d" j, p)) ineqs @ box in
  return (Gp.Problem.make ~objective ~ineqs ~eqs (), y)

(* [Compiled.compile] lowers every posynomial of a program to exactly
   the function the dense list lowering (exponent row per monomial, log
   coefficient) describes, and splits the equalities into nonzero rows
   and the consistency of the all-zero ones. *)
let prop_compile_bit_identical =
  QCheck2.Test.make ~name:"compiled problem lowering is bit-identical to the list path"
    ~count:200 gen_problem (fun (problem, y) ->
      let c = Gp.Compiled.compile problem in
      let n = c.Gp.Compiled.n in
      let dense m =
        let a = Vec.create n in
        List.iter (fun (x, e) -> a.(Hashtbl.find c.Gp.Compiled.index x) <- e) (M.exponents m);
        a
      in
      let smooth p =
        Gp.Smooth.log_sum_exp n (List.map (fun m -> (dense m, log (M.coeff m))) (P.terms p))
      in
      let rows, zero =
        List.partition (fun (a, _) -> Vec.norm_inf a > 0.0)
          (List.map (fun (_, m) -> (dense m, -.log (M.coeff m))) (Gp.Problem.eqs problem))
      in
      agrees (smooth (Gp.Problem.objective problem)) c.Gp.Compiled.objective y
      && List.for_all2
           (fun (_, p) f -> agrees (smooth p) f y)
           (Gp.Problem.ineqs problem) (Array.to_list c.Gp.Compiled.ineqs)
      && List.length rows = Array.length c.Gp.Compiled.rows
      && List.for_all2
           (fun (a, d) (a', d') -> Array.for_all2 same_float a a' && same_float d d')
           rows
           (List.combine (Array.to_list c.Gp.Compiled.rows) (Array.to_list c.Gp.Compiled.rhs))
      && c.Gp.Compiled.consistent = List.for_all (fun (_, d) -> Float.abs d <= 1e-9) zero)

(* --- golden runs --- *)

(* The solver's exact arithmetic on three of the paper's flows: the
   logical solve count, Newton steps and line-search backtracks summed
   over the sweep, and the bits of the winning design's model score and
   of the best continuous objective.  Any change to the production
   kernel's float operations or their order moves at least one of
   these.  The winner score bits date from before the compiled kernel
   moved onto flat one-problem buffers; the solver counts and the
   best-continuous bits were re-recorded when phase I was bounded and
   made to stop at its first strictly feasible iterate. *)
module O = Thistle.Optimize
module F = Thistle.Formulate
module I = Thistle.Integerize

let golden ~solves ~newton ~backtracks ~score ~best_continuous objective run () =
  match run () with
  | Error e -> Alcotest.fail e
  | Ok (r : O.report) ->
    let t = r.O.solve_totals in
    Alcotest.(check int) "solves" solves t.Gp.Solver.solves;
    Alcotest.(check int) "Newton steps" newton t.Gp.Solver.t_newton_iters;
    Alcotest.(check int) "backtracks" backtracks t.Gp.Solver.t_backtracks;
    Alcotest.(check int64) "winner score bits" score
      (bits (I.score objective r.O.outcome.I.metrics));
    Alcotest.(check int64) "best continuous bits" best_continuous (bits r.O.best_continuous)

let codesign_energy layer () =
  let tech = Archspec.Technology.table3 in
  O.codesign tech ~area_budget:(Archspec.Arch.eyeriss_area tech) F.Energy
    (Workload.Conv.to_nest (Workload.Zoo.find layer))

let edge_delay layer () =
  O.dataflow Archspec.Technology.edge
    (Archspec.Arch.make ~name:"edge" ~pes:32 ~registers:16 ~sram_words:4096)
    F.Delay
    (Workload.Conv.to_nest (Workload.Zoo.find layer))

let golden_cases =
  [
    Alcotest.test_case "resnet-2 codesign energy" `Quick
      (golden ~solves:136 ~newton:10426 ~backtracks:39616 ~score:0x41b7d857040740e7L
         ~best_continuous:0x41b8da1b9a7ee565L F.Energy (codesign_energy "resnet-2"));
    Alcotest.test_case "yolo-2 codesign energy" `Quick
      (golden ~solves:136 ~newton:10310 ~backtracks:38759 ~score:0x41f370a57b2678e4L
         ~best_continuous:0x41f3e82975cc0ef0L F.Energy (codesign_energy "yolo-2"));
    Alcotest.test_case "resnet-5 edge delay" `Quick
      (golden ~solves:34 ~newton:2825 ~backtracks:8188 ~score:0x41233f8000000000L
         ~best_continuous:0x41231c5cfcbb178aL F.Delay (edge_delay "resnet-5"));
  ]

let () =
  Alcotest.run "compiled"
    [
      ( "units",
        [
          Alcotest.test_case "single term" `Quick test_single_term;
          Alcotest.test_case "constant term" `Quick test_constant_term;
          Alcotest.test_case "affine" `Quick test_affine_matches_linear;
          Alcotest.test_case "stale buffers" `Quick test_stale_buffers;
          Alcotest.test_case "slack extension" `Quick test_minus_slack;
          Alcotest.test_case "bad input" `Quick test_rejects_bad_input;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_bit_identical; prop_slack_bit_identical; prop_compile_bit_identical ] );
      ("golden", golden_cases);
    ]
