(* Stage-by-stage replay of one [Thistle.Optimize.run], through the
   library's public functions, with a span around every call.

   The replay follows the optimizer's schedule exactly: formulate, lint,
   presolve (with every pruning proof re-checked) and key every
   (choice x placement) pair; replay journal entries on resume; prune;
   solve the pinned placements cold and the others warm-started from
   their choice's pinned solution, with presolve-fixed values re-injected
   and duplicate programs replayed from their first occurrence;
   certificate-check; rank; integerize the shortlist; select the best.
   Its logical solve count, Newton steps, pruned pairs and winner score
   must equal the optimizer's own report — the traced run checks that on
   every layer.

   Supported configurations are the ones the benchmark runs: the
   compiled kernel, presolve pruning and the full shard. *)

module O = Thistle.Optimize
module F = Thistle.Formulate

type slot = { fate : Sweep.Journal.fate; stats : Gp.Solver.stats; retries : int }

type t = {
  totals : Gp.Solver.totals;  (** logical: every pair, as [report.solve_totals] *)
  pruned : int;
  winner : Thistle.Integerize.outcome option;
  failed : bool;  (** an [Error], or any quarantined pair *)
  pairs : int;
  resumed : int;  (** pairs replayed from the journal *)
  physical_solves : int;  (** solver invocations, retries included *)
  physical_newton : int;
  physical_backtracks : int;
  physical_infeasible : int;
  candidates_tried : int;
  candidates_valid : int;
}

let supported (config : O.config) =
  config.O.gp_kernel = `Compiled
  && config.O.presolve = Analysis.Presolve.Prune
  && Sweep.Partition.is_full config.O.shard

let presolve_of (instance : F.instance) =
  let problem = instance.F.problem in
  match Analysis.Presolve.analyze problem with
  | exception _ -> None
  | t -> (
    match t.Analysis.Presolve.verdict with
    | Analysis.Presolve.Feasible _ -> Some t
    | Analysis.Presolve.Infeasible proof -> (
      match Analysis.Certificate.check_prune problem proof with
      | Ok () -> Some t
      | Error _ ->
        Some
          {
            t with
            Analysis.Presolve.verdict =
              Analysis.Presolve.Feasible
                { Analysis.Presolve.reduced = problem; fixed = []; dropped = [] };
          }))

let rec take k = function x :: rest when k > 0 -> x :: take (k - 1) rest | _ -> []

let run ~layer ~(config : O.config) tech arch_mode objective nest =
  if not (supported config) then invalid_arg "Replay.run: unsupported configuration";
  let jobs = Int.max 1 config.O.jobs in
  let par f l = Exec.Par.map ~jobs f l in
  Spans.with_span ~layer "layer" @@ fun lid ->
  let stage name f = Spans.with_span ~parent:lid ~layer name f in
  let call sid name f = Spans.with_span ~parent:sid ~layer name (fun _ -> f ()) in
  (* 1. enumerate *)
  let plan =
    stage "permutations.enumerate" (fun _ ->
        Thistle.Permutations.enumerate ~max_choices:config.O.max_choices nest)
  in
  let placements =
    if config.O.explore_placements then plan.Thistle.Permutations.placements
    else [ plan.Thistle.Permutations.pinned ]
  in
  let nplac = Int.max 1 (List.length placements) in
  let pair_arr =
    Array.of_list
      (List.concat_map
         (fun cv -> List.map (fun p -> (cv, p)) placements)
         plan.Thistle.Permutations.choices)
  in
  let npairs = Array.length pair_arr in
  let idx = List.init npairs Fun.id in
  (* 2. formulate *)
  let inst =
    Array.of_list
      (stage "formulate.build" (fun sid ->
           par
             (fun i ->
               let cv, placement = pair_arr.(i) in
               call sid "formulate.build.call" (fun () ->
                   F.build ~placement ~comm:config.O.comm tech arch_mode objective plan cv))
             idx))
  in
  (* 3. lint *)
  let linted =
    stage "lint.check" (fun sid ->
        match
          par
            (fun i ->
              call sid "lint.check.call" (fun () ->
                  Analysis.Lint.gate config.O.lint (F.lint inst.(i))))
            idx
        with
        | _ -> Ok ()
        | exception Analysis.Lint.Rejected diags ->
          Error (Analysis.Diagnostic.summary diags))
  in
  let empty =
    {
      totals = Gp.Solver.zero_totals;
      pruned = 0;
      winner = None;
      failed = true;
      pairs = npairs;
      resumed = 0;
      physical_solves = 0;
      physical_newton = 0;
      physical_backtracks = 0;
      physical_infeasible = 0;
      candidates_tried = 0;
      candidates_valid = 0;
    }
  in
  match linted with
  | Error _ -> empty
  | Ok () ->
  (* 4. presolve, each pruning proof re-checked *)
  let pre =
    Array.of_list
      (stage "presolve.analyze" (fun sid ->
           par (fun i -> call sid "presolve.analyze.call" (fun () -> presolve_of inst.(i))) idx))
  in
  (* 5. per-pair keying: the dedupe key and the journal fingerprint *)
  let config_fp = O.config_fingerprint config in
  let keyed =
    Array.of_list
      (stage "optimize.problem_key" (fun sid ->
           par
             (fun i ->
               call sid "optimize.problem_key.call" (fun () ->
                   let key = O.problem_key inst.(i).F.problem in
                   (key, Sweep.Journal.fingerprint ~config:config_fp ~problem_key:key)))
             idx))
  in
  let results : slot option array = Array.make npairs None in
  let resumed = ref 0 in
  (if config.O.resume then
     match config.O.journal with
     | None -> ()
     | Some path ->
       stage "journal.replay" (fun _ ->
           match Sweep.Journal.load_existing path with
           | Error _ -> ()
           | Ok entries ->
             let tbl = Hashtbl.create (2 * List.length entries + 1) in
             List.iter
               (fun (e : Sweep.Journal.entry) -> Hashtbl.replace tbl e.Sweep.Journal.pair e)
               entries;
             List.iter
               (fun i ->
                 match Hashtbl.find_opt tbl i with
                 | Some e when String.equal e.Sweep.Journal.fingerprint (snd keyed.(i)) ->
                   results.(i) <-
                     Some
                       {
                         fate = e.Sweep.Journal.fate;
                         stats = e.Sweep.Journal.stats;
                         retries = e.Sweep.Journal.retries;
                       };
                   incr resumed
                 | Some _ | None -> ())
               idx));
  List.iter
    (fun i ->
      if results.(i) = None then
        match pre.(i) with
        | Some { Analysis.Presolve.verdict = Analysis.Presolve.Infeasible proof; _ } ->
          results.(i) <-
            Some { fate = Sweep.Journal.Pruned proof; stats = Gp.Solver.fresh_stats (); retries = 0 }
        | Some _ | None -> ())
    idx;
  let reduced_of i =
    match pre.(i) with
    | Some { Analysis.Presolve.verdict = Analysis.Presolve.Feasible red; _ } ->
      (red.Analysis.Presolve.reduced, red.Analysis.Presolve.fixed)
    | _ -> (inst.(i).F.problem, [])
  in
  let deadline_ns = Option.map (fun ms -> ms *. 1e6) config.O.solve_deadline_ms in
  let max_attempts = 1 + Int.max 0 config.O.retries in
  let solve_pair ?warm_start i =
    let prov = inst.(i).F.provenance in
    let problem, fixed = reduced_of i in
    if fixed <> [] && Gp.Problem.variables problem = [] then
      {
        fate =
          Sweep.Journal.Solved
            {
              Gp.Solver.status = Gp.Solver.Optimal;
              objective = Symexpr.Posynomial.eval (fun _ -> 1.0) (Gp.Problem.objective problem);
              values = fixed;
            };
        stats = Gp.Solver.fresh_stats ();
        retries = 0;
      }
    else
      let rec go attempt =
        let st = Gp.Solver.fresh_stats () in
        let deadline_ns =
          if Robust.Inject.stall config.O.inject ~site:"solve" ~provenance:prov ~attempt then
            Some 0.0
          else deadline_ns
        in
        let initial_reg = if attempt = 0 then 1e-9 else 1e-5 in
        let result =
          Robust.guard ~inject:config.O.inject ~attempt ~site:"solve" ~provenance:prov (fun () ->
              Gp.Solver.solve ~tol:config.O.gp_tol ~stats:st ~kernel:`Compiled ?deadline_ns
                ~initial_reg ?warm_start problem)
        in
        let finish fate = { fate; stats = st; retries = attempt } in
        match result with
        | Ok sol when sol.Gp.Solver.status = Gp.Solver.Deadline_exceeded ->
          if attempt + 1 < max_attempts then go (attempt + 1)
          else
            finish
              (Sweep.Journal.Quarantined
                 (Robust.deadline_failure ~attempts:(attempt + 1) ~site:"solve" ~provenance:prov
                    ~elapsed_ns:0.0 ()))
        | Error f -> if attempt + 1 < max_attempts then go (attempt + 1) else finish (Sweep.Journal.Quarantined f)
        | Ok sol ->
          let sol =
            if fixed = [] then sol else { sol with Gp.Solver.values = sol.Gp.Solver.values @ fixed }
          in
          finish (Sweep.Journal.Solved sol)
      in
      go 0
  in
  (* 6. solve: dedupe representatives in enumeration order, two waves *)
  let key_rep = Hashtbl.create (2 * npairs) in
  let is_rep i =
    let key = fst keyed.(i) in
    if config.O.dedupe && Hashtbl.mem key_rep key then false
    else begin
      Hashtbl.replace key_rep key i;
      true
    end
  in
  let replay_dup i =
    let r = Option.get results.(Hashtbl.find key_rep (fst keyed.(i))) in
    let st = Gp.Solver.fresh_stats () in
    Gp.Solver.copy_stats ~into:st r.stats;
    let fate =
      match r.fate with
      | Sweep.Journal.Quarantined f ->
        Sweep.Journal.Quarantined { f with Robust.provenance = inst.(i).F.provenance }
      | fate -> fate
    in
    results.(i) <- Some { r with fate; stats = st }
  in
  let pinned_idx = List.filter (fun i -> Sweep.Partition.is_pinned ~nplac i) idx in
  let other_idx = List.filter (fun i -> not (Sweep.Partition.is_pinned ~nplac i)) idx in
  let physical =
    stage "gp.solve" (fun sid ->
        let wave1 = List.filter (fun i -> is_rep i && results.(i) = None) pinned_idx in
        let solved1 =
          par (fun i -> call sid "gp.solve.call" (fun () -> solve_pair i)) wave1
        in
        List.iter2 (fun i r -> results.(i) <- Some r) wave1 solved1;
        List.iter (fun i -> if results.(i) = None then replay_dup i) pinned_idx;
        let warm_of i =
          if not config.O.warm_start then None
          else
            match results.(i / nplac * nplac) with
            | Some { fate = Sweep.Journal.Solved sol; _ }
              when sol.Gp.Solver.status <> Gp.Solver.Infeasible && sol.Gp.Solver.values <> [] ->
              Some sol.Gp.Solver.values
            | _ -> None
        in
        let wave2 =
          List.filter_map
            (fun i -> if is_rep i && results.(i) = None then Some (i, warm_of i) else None)
            other_idx
        in
        let solved2 =
          par
            (fun (i, warm_start) ->
              call sid "gp.solve.call" (fun () -> solve_pair ?warm_start i))
            wave2
        in
        List.iter2 (fun (i, _) r -> results.(i) <- Some r) wave2 solved2;
        List.iter (fun i -> if results.(i) = None then replay_dup i) other_idx;
        solved1 @ solved2)
  in
  (* 7. certificate *)
  let attempts =
    stage "certificate.check" (fun sid ->
        par
          (fun i ->
            let instance = inst.(i) in
            let slot = Option.get results.(i) in
            let usable =
              match slot.fate with
              | Sweep.Journal.Quarantined _ | Sweep.Journal.Pruned _ -> None
              | Sweep.Journal.Solved solution -> (
                match solution.Gp.Solver.status with
                | Gp.Solver.Infeasible | Gp.Solver.Deadline_exceeded -> None
                | Gp.Solver.Optimal | Gp.Solver.Iteration_limit ->
                  if not (Float.is_finite solution.Gp.Solver.objective) then None
                  else
                    call sid "certificate.check.call" (fun () ->
                        let cert =
                          Analysis.Certificate.check ~provenance:instance.F.provenance
                            instance.F.problem
                            (F.solution_env instance solution)
                        in
                        if Analysis.Certificate.hard_failure cert then None
                        else Some (instance, solution)))
            in
            (usable, slot))
          idx)
  in
  let totals =
    List.fold_left (fun acc (_, s) -> Gp.Solver.accumulate acc s.stats) Gp.Solver.zero_totals attempts
  in
  let quarantined =
    List.exists
      (fun (_, s) -> match s.fate with Sweep.Journal.Quarantined _ -> true | _ -> false)
      attempts
  in
  let pruned =
    List.length
      (List.filter
         (fun (_, s) -> match s.fate with Sweep.Journal.Pruned _ -> true | _ -> false)
         attempts)
  in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 physical in
  let base =
    {
      empty with
      totals;
      pruned;
      failed = quarantined;
      resumed = !resumed;
      physical_solves = sum (fun s -> s.retries + 1);
      physical_newton = sum (fun s -> s.stats.Gp.Solver.newton_iters);
      physical_backtracks = sum (fun s -> s.stats.Gp.Solver.backtracks);
      physical_infeasible =
        sum (fun s ->
            match s.fate with
            | Sweep.Journal.Solved { Gp.Solver.status = Gp.Solver.Infeasible; _ } -> 1
            | _ -> 0);
    }
  in
  match List.filter_map fst attempts with
  | [] -> { base with failed = true }
  | solved ->
    (* 8. rank, then integerize the shortlist *)
    let shortlisted =
      take config.O.top_choices
        (List.sort
           (fun (_, a) (_, b) -> O.compare_scores a.Gp.Solver.objective b.Gp.Solver.objective)
           solved)
    in
    let staged =
      stage "integerize.run" (fun sid ->
          par
            (fun ((instance : F.instance), solution) ->
              call sid "integerize.run.call" (fun () ->
                  Robust.guard ~inject:config.O.inject ~site:"integerize"
                    ~provenance:instance.F.provenance (fun () ->
                      Thistle.Integerize.run ~n_divisors:config.O.n_divisors
                        ~n_pow2:config.O.n_pow2 ~min_pe_utilization:config.O.min_pe_utilization
                        ~contention:config.O.contention tech instance solution)))
            shortlisted)
    in
    let outcomes =
      List.filter_map (function Ok (Ok o) -> Some o | Ok (Error _) | Error _ -> None) staged
    in
    let integerize_failed = List.exists Result.is_error staged in
    (* 9. select *)
    let winner =
      stage "select.best" (fun _ ->
          O.select_best
            ~score:(fun o -> Thistle.Integerize.score objective o.Thistle.Integerize.metrics)
            outcomes)
    in
    {
      base with
      winner;
      failed = base.failed || integerize_failed || winner = None;
      candidates_tried =
        List.fold_left (fun acc o -> acc + o.Thistle.Integerize.candidates_tried) 0 outcomes;
      candidates_valid =
        List.fold_left (fun acc o -> acc + o.Thistle.Integerize.candidates_valid) 0 outcomes;
    }

let score_bits objective (o : Thistle.Integerize.outcome) =
  Int64.bits_of_float (Thistle.Integerize.score objective o.Thistle.Integerize.metrics)

(* Differences between the replay and the optimizer's report on the
   counts the replay must reproduce; empty when they agree. *)
let mismatches objective (r : t) (report : (O.report, string) result) =
  match report with
  | Error m -> if r.winner = None then [] else [ "optimizer failed but replay succeeded: " ^ m ]
  | Ok rep ->
    let check name a b = if a = b then [] else [ Printf.sprintf "%s: replay %d, optimizer %d" name a b ] in
    check "solves" r.totals.Gp.Solver.solves rep.O.solve_totals.Gp.Solver.solves
    @ check "newton steps" r.totals.Gp.Solver.t_newton_iters
        rep.O.solve_totals.Gp.Solver.t_newton_iters
    @ check "pruned pairs" r.pruned (List.length rep.O.pruned)
    @
    match r.winner with
    | None -> [ "replay found no winner" ]
    | Some w ->
      if Int64.equal (score_bits objective w) (score_bits objective rep.O.outcome) then []
      else
        [
          Printf.sprintf "winner score: replay %h, optimizer %h"
            (Thistle.Integerize.score objective w.Thistle.Integerize.metrics)
            (Thistle.Integerize.score objective rep.O.outcome.Thistle.Integerize.metrics);
        ]
