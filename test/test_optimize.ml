(* End-to-end tests of the Thistle driver: dataflow optimization for fixed
   architectures, co-design under an area budget, and the paper's expected
   dominance relations between the two. *)

module O = Thistle.Optimize
module F = Thistle.Formulate
module I = Thistle.Integerize
module S = Mapper.Search
module Arch = Archspec.Arch
module Mapping = Mapspace.Mapping
module Evaluate = Accmodel.Evaluate

let tech = Archspec.Technology.table3

let small_conv () =
  Workload.Conv.to_nest (Workload.Conv.make ~name:"small" ~k:16 ~c:16 ~hw:16 ~rs:3 ())

let arch = Arch.make ~name:"mid" ~pes:64 ~registers:64 ~sram_words:8192

let get = function
  | Ok (r : O.report) -> r
  | Error msg -> Alcotest.failf "optimize failed: %s" msg

(* A reduced exploration keeps the end-to-end suite fast; the full
   settings are exercised by the reproduction harness. *)
let fast = { O.default_config with O.max_choices = 10; top_choices = 2 }

let test_dataflow_valid () =
  let nest = small_conv () in
  let r = get (O.dataflow ~config:fast tech arch F.Energy nest) in
  let o = r.O.outcome in
  Alcotest.(check (result unit string))
    "mapping valid" (Ok ())
    (Mapping.validate nest o.I.mapping);
  Alcotest.(check bool) "solved several" true (r.O.choices_solved > 1);
  (* The continuous relaxation over-approximates halo volumes and the
     integer point rounds tile sizes, so the two can differ in either
     direction — but only modestly. *)
  let ratio = r.O.best_continuous /. o.I.metrics.Evaluate.energy_pj in
  Alcotest.(check bool)
    (Printf.sprintf "continuous/integer ratio %.3f in [0.5, 2]" ratio)
    true
    (ratio > 0.5 && ratio < 2.0)

(* Thistle's optimized dataflow should not lose to a seeded random search
   with a healthy trial budget (the paper's Fig. 4 relationship). *)
let test_beats_or_matches_mapper () =
  let nest = small_conv () in
  let r = get (O.dataflow ~config:fast tech arch F.Energy nest) in
  let thistle_energy = r.O.outcome.I.metrics.Evaluate.energy_pj in
  let config = { S.max_trials = 5000; victory_condition = 5000; seed = 1 } in
  let mapper = S.search ~config tech arch S.Min_energy nest in
  match mapper.S.best with
  | None -> Alcotest.fail "mapper found nothing"
  | Some (_, e) ->
    Alcotest.(check bool)
      (Printf.sprintf "thistle %.3g <= 1.05 * mapper %.3g" thistle_energy
         e.Evaluate.energy_pj)
      true
      (thistle_energy <= e.Evaluate.energy_pj *. 1.05)

(* Co-design at the area of the fixed architecture should match or beat
   the fixed architecture's optimized dataflow (Fig. 5 relationship). *)
let test_codesign_beats_fixed () =
  let nest = small_conv () in
  let fixed = get (O.dataflow ~config:fast tech arch F.Energy nest) in
  let budget = Arch.area tech arch in
  let codesign = get (O.codesign ~config:fast tech ~area_budget:budget F.Energy nest) in
  let e_fixed = fixed.O.outcome.I.metrics.Evaluate.energy_pj in
  let e_codesign = codesign.O.outcome.I.metrics.Evaluate.energy_pj in
  Alcotest.(check bool)
    (Printf.sprintf "codesign %.3g <= 1.05 * fixed %.3g" e_codesign e_fixed)
    true
    (e_codesign <= e_fixed *. 1.05);
  Alcotest.(check bool)
    "within budget" true
    (Arch.area tech codesign.O.outcome.I.arch <= budget)

let test_delay_objective () =
  let nest = small_conv () in
  let r = get (O.dataflow ~config:fast tech arch F.Delay nest) in
  let m = r.O.outcome.I.metrics in
  Alcotest.(check bool)
    "ipc <= P" true
    (m.Evaluate.ipc <= float_of_int arch.Arch.pe_count +. 1e-9);
  Alcotest.(check bool)
    "cycles >= macs / P" true
    (m.Evaluate.cycles
    >= (Workload.Nest.ops nest /. float_of_int arch.Arch.pe_count) -. 1e-9);
  (* Delay optimization should saturate a good fraction of the array on
     this comfortably parallel layer. *)
  Alcotest.(check bool)
    (Printf.sprintf "ipc %.1f >= 16" m.Evaluate.ipc)
    true (m.Evaluate.ipc >= 16.0)

let test_edp_objective () =
  let nest = small_conv () in
  let edp (m : Evaluate.t) = m.Evaluate.energy_pj *. m.Evaluate.cycles in
  let r_edp = get (O.run ~config:fast tech (F.Fixed arch) F.Edp nest) in
  let r_energy = get (O.run ~config:fast tech (F.Fixed arch) F.Energy nest) in
  let r_delay = get (O.run ~config:fast tech (F.Fixed arch) F.Delay nest) in
  let edp_of (r : O.report) = edp r.O.outcome.I.metrics in
  (* The EDP-optimal point should beat (or match) the products achieved
     by the single-criterion optimizations, modulo integerization. *)
  Alcotest.(check bool)
    (Printf.sprintf "edp %.3g <= energy-run %.3g" (edp_of r_edp) (edp_of r_energy))
    true
    (edp_of r_edp <= edp_of r_energy *. 1.10);
  Alcotest.(check bool)
    (Printf.sprintf "edp %.3g <= delay-run %.3g" (edp_of r_edp) (edp_of r_delay))
    true
    (edp_of r_edp <= edp_of r_delay *. 1.10)

let test_matmul_workload () =
  (* The optimizer is not conv-specific: the paper's Fig. 1 example. *)
  let nest = Workload.Matmul.nest ~ni:64 ~nj:64 ~nk:64 () in
  let r = get (O.dataflow ~config:fast tech arch F.Energy nest) in
  Alcotest.(check (result unit string))
    "mapping valid" (Ok ())
    (Mapping.validate nest r.O.outcome.I.mapping)

let test_infeasible_arch () =
  let nest = small_conv () in
  let hopeless = Arch.make ~name:"hopeless" ~pes:1 ~registers:2 ~sram_words:16 in
  match O.dataflow tech hopeless F.Energy nest with
  | Error _ -> ()
  | Ok r ->
    Alcotest.failf "expected failure, got %g pJ"
      r.O.outcome.I.metrics.Evaluate.energy_pj

(* The parallel sweep must be a pure scheduling change: whatever [jobs]
   is, the report (mapping, metrics, counters) is bit-identical to the
   sequential path.  Checked on two real zoo layers. *)
let test_jobs_determinism () =
  List.iter
    (fun layer_name ->
      let nest = Workload.Conv.to_nest (Workload.Zoo.find layer_name) in
      let run jobs =
        let config = { O.default_config with O.max_choices = 8; top_choices = 2; jobs } in
        get (O.dataflow ~config tech arch F.Energy nest)
      in
      Alcotest.(check bool)
        (layer_name ^ ": jobs=4 report = jobs=1 report")
        true
        (run 4 = run 1))
    [ "resnet-2"; "yolo-2" ]

(* The dedup key must identify programs by their mathematics alone:
   renaming constraints keeps the key, perturbing any coefficient or
   exponent changes it. *)
let test_problem_key () =
  let module M = Symexpr.Monomial in
  let module P = Symexpr.Posynomial in
  let problem ?(coeff = 2.0) ?(cname = "cap") () =
    Gp.Problem.make
      ~objective:
        (P.of_monomials [ M.make 1.0 [ ("x", 1.0) ]; M.make coeff [ ("y", 1.0) ] ])
      ~ineqs:[ (cname, P.of_monomial (M.make 0.5 [ ("x", -1.0); ("y", -1.0) ])) ]
      ~eqs:[ ("tie", M.make 0.25 [ ("x", 1.0); ("y", -1.0) ]) ]
      ()
  in
  let base = O.problem_key (problem ()) in
  Alcotest.(check string) "renamed constraint keeps key" base
    (O.problem_key (problem ~cname:"budget" ()));
  Alcotest.(check bool) "perturbed coefficient changes key" true
    (base <> O.problem_key (problem ~coeff:2.0000000001 ()))

(* Regression: a NaN-scored candidate must never displace a finite one.
   The old best-outcome fold asked "is the incumbent strictly better than
   the challenger?" — every comparison against NaN answers false, so a
   NaN challenger *replaced* a finite incumbent; and raw [Float.compare]
   orders NaN before every finite float, so a NaN objective topped the
   ascending continuous shortlist. *)
let test_nan_ordering () =
  let check = Alcotest.(check int) in
  check "finite ascending" (-1) (O.compare_scores 1.0 2.0);
  check "finite descending" 1 (O.compare_scores 2.0 1.0);
  check "finite ties" 0 (O.compare_scores 1.0 1.0);
  check "nan after finite" 1 (O.compare_scores Float.nan 1.0);
  check "finite before nan" (-1) (O.compare_scores 1.0 Float.nan);
  check "inf after finite" 1 (O.compare_scores Float.infinity 1.0);
  check "neg-inf after finite" 1 (O.compare_scores Float.neg_infinity 1.0);
  check "non-finite ties" 0 (O.compare_scores Float.nan Float.infinity);
  (* Sorting a shortlist with a NaN entry keeps the finite minimum on
     top — the exact ranking the solve-stage shortlist performs. *)
  let sorted = List.sort O.compare_scores [ 3.0; Float.nan; 1.0; 2.0 ] in
  Alcotest.(check (float 0.0)) "nan sorts last" 1.0 (List.hd sorted)

let test_select_best_nan () =
  let best = O.select_best ~score:Fun.id in
  let check_some name exp got =
    match got with
    | Some v when v = exp || (Float.is_nan exp && Float.is_nan v) -> ()
    | Some v -> Alcotest.failf "%s: expected %h, got %h" name exp v
    | None -> Alcotest.failf "%s: got None" name
  in
  Alcotest.(check bool) "empty list" true (best [] = None);
  check_some "nan challenger loses" 1.0 (best [ 1.0; Float.nan ]);
  check_some "nan incumbent loses" 1.0 (best [ Float.nan; 1.0 ]);
  check_some "finite minimum wins" 1.0 (best [ 3.0; Float.nan; 1.0; 2.0 ]);
  check_some "all-nan still answers" Float.nan (best [ Float.nan; Float.nan ]);
  check_some "inf loses to finite" 1.0 (best [ Float.infinity; 1.0 ])

(* Choices whose continuous objectives tie up to solver round-off must
   reach the shortlist in enumeration order, whatever the round-off:
   perturbing every objective by 1e-12 relative, in any direction,
   leaves the shortlist unchanged.  Ranking raw objectives picks the
   three smallest by their noise instead. *)
let test_shortlist_noise () =
  let gp_tol = O.default_config.O.gp_tol in
  (* mid-band values, far from a band edge at any 1e-12 perturbation *)
  let mid k = exp (100.0 *. gp_tol *. (float_of_int k +. 0.5)) in
  let a = mid 1000 and b = mid 1003 in
  let base = [ a; b; a; a; Float.nan; a; b ] in
  let shortlist objs =
    List.map fst
      (O.shortlist ~gp_tol ~top:3 ~objective:snd (List.mapi (fun i v -> (i, v)) objs))
  in
  Alcotest.(check (list int)) "ties in enumeration order" [ 0; 2; 3 ] (shortlist base);
  for pattern = 0 to (1 lsl List.length base) - 1 do
    let perturbed =
      List.mapi
        (fun i v ->
          let sign = if pattern land (1 lsl i) <> 0 then 1.0 else -1.0 in
          v *. (1.0 +. (sign *. float_of_int (i + 1) *. 1e-12)))
        base
    in
    Alcotest.(check (list int))
      (Printf.sprintf "perturbation pattern %d" pattern)
      [ 0; 2; 3 ] (shortlist perturbed)
  done

let test_config_knobs () =
  let nest = small_conv () in
  let config = { O.default_config with O.max_choices = 2; top_choices = 1 } in
  let r = get (O.dataflow ~config tech arch F.Energy nest) in
  Alcotest.(check bool) "choices capped" true (r.O.choices_enumerated <= 2)

(* Knobs no sweep can honor are refused before any work, with an Error
   that names the offending field — not a misleading "nothing survived"
   message or a silently ignored deadline. *)
let refused field config () =
  let names msg =
    let n = String.length field in
    let rec at i = i + n <= String.length msg && (String.sub msg i n = field || at (i + 1)) in
    at 0
  in
  match O.dataflow ~config tech arch F.Energy (small_conv ()) with
  | Ok _ -> Alcotest.failf "%s: config was accepted" field
  | Error msg -> Alcotest.(check bool) (Printf.sprintf "%S names %s" msg field) true (names msg)

let () =
  Alcotest.run "optimize"
    [
      ( "dataflow",
        [
          Alcotest.test_case "valid outcome" `Quick test_dataflow_valid;
          Alcotest.test_case "matches mapper" `Quick test_beats_or_matches_mapper;
          Alcotest.test_case "matmul workload" `Quick test_matmul_workload;
          Alcotest.test_case "infeasible arch" `Quick test_infeasible_arch;
          Alcotest.test_case "config knobs" `Quick test_config_knobs;
          Alcotest.test_case "problem key" `Quick test_problem_key;
          Alcotest.test_case "nan ordering" `Quick test_nan_ordering;
          Alcotest.test_case "select best vs nan" `Quick test_select_best_nan;
          Alcotest.test_case "shortlist ignores round-off" `Quick test_shortlist_noise;
          Alcotest.test_case "jobs determinism" `Quick test_jobs_determinism;
        ] );
      ( "config",
        [
          Alcotest.test_case "top_choices 0 refused" `Quick
            (refused "top_choices" { fast with O.top_choices = 0 });
          Alcotest.test_case "max_choices -1 refused" `Quick
            (refused "max_choices" { fast with O.max_choices = -1 });
          Alcotest.test_case "NaN deadline refused" `Quick
            (refused "solve_deadline_ms" { fast with O.solve_deadline_ms = Some Float.nan });
        ] );
      ( "codesign",
        [
          Alcotest.test_case "beats fixed at equal area" `Quick test_codesign_beats_fixed;
        ] );
      ( "delay",
        [
          Alcotest.test_case "delay objective" `Quick test_delay_objective;
          Alcotest.test_case "edp objective" `Quick test_edp_objective;
        ] );
    ]
