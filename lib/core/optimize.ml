type config = {
  n_divisors : int;
  n_pow2 : int;
  top_choices : int;
  max_choices : int;
  gp_tol : float;
  explore_placements : bool;
  min_pe_utilization : float;
  comm : Archspec.Link.comm_model;
  contention : bool;
  jobs : int;
  lint : Analysis.Lint.mode;
  presolve : Analysis.Presolve.mode;
  dedupe : bool;
  warm_start : bool;
  gp_kernel : Gp.Solver.kernel;
  solve_deadline_ms : float option;
  retries : int;
  inject : Robust.Inject.t;
  shard : Sweep.Partition.t;
  journal : string option;
  resume : bool;
}

let default_config =
  {
    n_divisors = 2;
    n_pow2 = 2;
    top_choices = 3;
    max_choices = 512;
    gp_tol = 1e-6;
    explore_placements = true;
    min_pe_utilization = 0.0;
    comm = Archspec.Link.Comm_aware;
    contention = false;
    jobs = Domain.recommended_domain_count ();
    lint = Analysis.Lint.Enforce;
    presolve = Analysis.Presolve.Prune;
    dedupe = true;
    warm_start = true;
    gp_kernel = `Compiled;
    solve_deadline_ms = None;
    retries = 1;
    inject = Robust.Inject.none;
    shard = Sweep.Partition.full;
    journal = None;
    resume = false;
  }

type report = {
  outcome : Integerize.outcome;
  choices_enumerated : int;
  choices_solved : int;
  best_continuous : float;
  solve_totals : Gp.Solver.totals;
  failures : Robust.failure list;
  pruned : (string * Analysis.Presolve.proof) list;
}

let log_src = Logs.Src.create "thistle.optimize" ~doc:"Thistle optimizer driver"

module Log = (val Logs.src_log log_src : Logs.LOG)

let m_solves = Obs.Metrics.counter "solver.solves"
let m_outer = Obs.Metrics.counter "solver.outer_iters"
let m_phase1 = Obs.Metrics.counter "solver.phase1_outer_iters"
let m_phase2 = Obs.Metrics.counter "solver.phase2_outer_iters"
let m_newton = Obs.Metrics.counter "solver.newton_steps"
let m_backtracks = Obs.Metrics.counter "solver.backtracks"
let m_kkt = Obs.Metrics.counter "solver.kkt_regularizations"
let m_cache_hits = Obs.Metrics.counter "solver.cache_hits"
let m_warm_starts = Obs.Metrics.counter "solver.warm_starts"
let m_chol_fallbacks = Obs.Metrics.counter "solver.cholesky_fallbacks"
let g_gap = Obs.Metrics.gauge "solver.max_duality_gap"

(* Robustness counters (DESIGN §9/§11): fed sequentially from per-pair
   records after the parallel waves complete, like the solver counters,
   so they are functions of the workload (and injection config) alone. *)
let m_quarantined = Obs.Metrics.counter "robust.quarantined"
let m_retries = Obs.Metrics.counter "robust.retries"
let m_deadline_hits = Obs.Metrics.counter "robust.deadline_hits"

(* Sharded/resumable sweep counters (DESIGN §9/§12).  [sweep.pairs_solved]
   counts physical solver invocations this run — the number a resumed or
   merged run keeps low — while [solve_totals] keeps counting logical
   solves (journal replays included) so reports stay identical. *)
let m_journal_hits = Obs.Metrics.counter "sweep.journal_hits"
let m_journal_stale = Obs.Metrics.counter "sweep.journal_stale"
let m_pairs_solved = Obs.Metrics.counter "sweep.pairs_solved"

(* Presolve counters (DESIGN §9/§13): derived from the stage-A verdicts
   over the owned pairs — a pure function of the workload and the
   presolve mode — and fed sequentially after the waves.  [Prune] and
   [Check] produce identical verdicts, hence identical counters; [Off]
   leaves all three at zero. *)
let m_presolve_pruned = Obs.Metrics.counter "presolve.pruned"
let m_presolve_vars_fixed = Obs.Metrics.counter "presolve.vars_fixed"
let m_presolve_dropped = Obs.Metrics.counter "presolve.constraints_dropped"

(* Communication-model counters (DESIGN §9/§16): per-link delay
   constraints emitted across the owned pairs (a function of the nest,
   the objective and [config.comm]; zero under [Overlapped] or the
   Energy objective), and shortlisted integer outcomes whose binding
   resource is a link rather than compute.  Both fed sequentially after
   the parallel stages. *)
let m_comm_constraints = Obs.Metrics.counter "comm.delay_constraints"
let m_comm_bound = Obs.Metrics.counter "comm.comm_bound_outcomes"

let comm_constraint_names =
  [ "delay-reg"; "delay-dram-rd"; "delay-dram-wr"; "delay-noc-rd"; "delay-noc-wr" ]

(* Ascending on finite scores; any non-finite score (NaN, +/-inf from an
   overflowed or failed model evaluation) orders after every finite one
   and ties with other non-finite scores — under a minimization
   objective a bogus score must never displace a real one.  Note
   [Float.compare] alone orders NaN *first*, which would put a NaN
   candidate at the top of the shortlist. *)
let compare_scores a b =
  match (Float.is_finite a, Float.is_finite b) with
  | true, true -> Float.compare a b
  | true, false -> -1
  | false, true -> 1
  | false, false -> 0

(* Minimum of [score] over the list under [compare_scores]; exact ties
   keep the last listed (the historical fold behavior).  In particular a
   NaN-scored element can win only when every element is non-finite. *)
let select_best ~score outcomes =
  List.fold_left
    (fun acc o ->
      match acc with
      | Some o' when compare_scores (score o') (score o) < 0 -> acc
      | Some _ | None -> Some o)
    None outcomes

(* Everything that can change a pair's journaled fate besides the
   problem itself: solver tolerance and kernel, reuse policy, the
   deadline/retry/injection machinery.  Entering the pair fingerprint,
   it versions the journal cache — change any of these and every
   journal entry goes stale and is re-solved (DESIGN §12). *)
let config_fingerprint config =
  Printf.sprintf
    "v3|tol=%Lx|kernel=%s|warm=%b|dedupe=%b|deadline=%s|retries=%d|inject=%s|presolve=%s|comm=%s"
    (Int64.bits_of_float config.gp_tol)
    (match config.gp_kernel with `Compiled -> "compiled" | `List -> "list")
    config.warm_start config.dedupe
    (match config.solve_deadline_ms with
    | None -> "none"
    | Some ms -> Printf.sprintf "%Lx" (Int64.bits_of_float ms))
    config.retries
    (Robust.Inject.to_string config.inject)
    (* [Check] solves every original problem exactly as [Off] does —
       presolve only audits — so their journal entries are
       interchangeable; [Prune] solves reduced problems and skips pruned
       pairs, which is a different workload. *)
    (match config.presolve with
    | Analysis.Presolve.Prune -> "prune"
    | Analysis.Presolve.Check | Analysis.Presolve.Off -> "off")
    (* The communication model changes the delay constraints a pair is
       lowered with, so journaled fates of one model must never replay
       under the other.  (For the Energy objective the GPs coincide, but
       [problem_key] already keys that; entering the fingerprint keeps
       the invalidation rule uniform.)  [contention] is excluded: it
       never changes a solve, only evaluation-side scoring — it enters
       {!request_key} instead. *)
    (Archspec.Link.comm_model_name config.comm)

(* Fed from the sequentially-accumulated totals (not from inside the
   parallel sweep), so the counter values are functions of the workload
   alone — see the Obs.Metrics determinism contract. *)
let feed_solver_metrics (t : Gp.Solver.totals) =
  Obs.Metrics.add m_solves t.Gp.Solver.solves;
  Obs.Metrics.add m_outer (t.Gp.Solver.t_phase1_outer + t.Gp.Solver.t_phase2_outer);
  Obs.Metrics.add m_phase1 t.Gp.Solver.t_phase1_outer;
  Obs.Metrics.add m_phase2 t.Gp.Solver.t_phase2_outer;
  Obs.Metrics.add m_newton t.Gp.Solver.t_newton_iters;
  Obs.Metrics.add m_backtracks t.Gp.Solver.t_backtracks;
  Obs.Metrics.add m_kkt t.Gp.Solver.t_kkt_regularizations;
  Obs.Metrics.add m_chol_fallbacks t.Gp.Solver.t_cholesky_fallbacks;
  Obs.Metrics.observe_max g_gap t.Gp.Solver.max_duality_gap

(* Canonical structural key of a GP: the exact coefficient and exponent
   bits of every term, in formulation order, with constraint names
   excluded — the solver's behavior depends on names only through the
   variable set, which the exponent maps carry.  Pairs with equal keys
   are the same mathematical program, so one solve serves all of them. *)
let problem_key problem =
  let buf = Buffer.create 1024 in
  let fl v =
    Buffer.add_string buf (Printf.sprintf "%Lx;" (Int64.bits_of_float v))
  in
  let mono m =
    fl (Symexpr.Monomial.coeff m);
    List.iter
      (fun (x, e) ->
        Buffer.add_string buf x;
        Buffer.add_char buf ':';
        fl e)
      (Symexpr.Monomial.exponents m);
    Buffer.add_char buf '|'
  in
  let poly p =
    List.iter mono (Symexpr.Posynomial.terms p);
    Buffer.add_char buf '#'
  in
  poly (Gp.Problem.objective problem);
  Buffer.add_char buf 'I';
  List.iter (fun (_, p) -> poly p) (Gp.Problem.ineqs problem);
  Buffer.add_char buf 'E';
  List.iter
    (fun (_, m) ->
      mono m;
      Buffer.add_char buf '#')
    (Gp.Problem.eqs problem);
  Buffer.contents buf

(* Canonical identity of a whole optimization request, for the serve
   layer's cross-request result store (DESIGN §14).  [problem_key] keys
   only the GP structure, which is not enough at request granularity:
   two arches with identical capacities but different names formulate
   bit-identical GPs yet print different reports, and the integerization
   knobs never enter the GP at all.  This key therefore covers
   everything outside the solver that determines the report: the
   technology point (exact bits), the arch mode, the objective, the full
   nest (dims, extents, tensors, projections) and the enumeration /
   integerization / lint configuration.  Solver behavior is versioned
   separately by {!config_fingerprint}; a result cache keys on both.
   [jobs], [shard] and the journal fields are excluded — they never
   change the report (the bit-identity contracts of §7/§12). *)
let request_key ~config tech arch_mode objective nest =
  let buf = Buffer.create 512 in
  let add = Buffer.add_string buf in
  let fl v = add (Printf.sprintf "%Lx;" (Int64.bits_of_float v)) in
  add "rk2|tech:";
  fl tech.Archspec.Technology.area_mac;
  fl tech.Archspec.Technology.area_register;
  fl tech.Archspec.Technology.area_sram_word;
  fl tech.Archspec.Technology.energy_mac;
  fl tech.Archspec.Technology.sigma_register;
  fl tech.Archspec.Technology.sigma_sram;
  fl tech.Archspec.Technology.energy_dram;
  fl tech.Archspec.Technology.dram_bandwidth;
  fl tech.Archspec.Technology.sram_bandwidth;
  let link (l : Archspec.Link.t) =
    fl l.Archspec.Link.bandwidth;
    fl l.Archspec.Link.burst_words;
    fl l.Archspec.Link.burst_overhead
  in
  add "links:";
  link tech.Archspec.Technology.links.Archspec.Link.dram;
  link tech.Archspec.Technology.links.Archspec.Link.noc;
  link tech.Archspec.Technology.links.Archspec.Link.reg;
  (match arch_mode with
  | Formulate.Fixed a ->
    add
      (Printf.sprintf "|arch:%s:%d:%d:%d" a.Archspec.Arch.arch_name
         a.Archspec.Arch.pe_count a.Archspec.Arch.registers_per_pe
         a.Archspec.Arch.sram_words)
  | Formulate.Codesign { area_budget } ->
    add "|codesign:";
    fl area_budget);
  add
    (match objective with
    | Formulate.Energy -> "|obj:energy"
    | Formulate.Delay -> "|obj:delay"
    | Formulate.Edp -> "|obj:edp");
  add (Printf.sprintf "|nest:%s" (Workload.Nest.name nest));
  List.iter
    (fun (d : Workload.Nest.dim) ->
      add (Printf.sprintf ";%s=%d" d.Workload.Nest.dim_name d.Workload.Nest.extent))
    (Workload.Nest.dims nest);
  List.iter
    (fun (t : Workload.Nest.tensor) ->
      add
        (Printf.sprintf "|T:%s:%b" t.Workload.Nest.tensor_name
           t.Workload.Nest.read_write);
      List.iter
        (fun (proj : Workload.Nest.projection) ->
          add "[";
          List.iter
            (fun (ix : Workload.Nest.index) ->
              add
                (Printf.sprintf "%d*%s," ix.Workload.Nest.stride
                   ix.Workload.Nest.iter))
            proj;
          add "]")
        t.Workload.Nest.projections)
    (Workload.Nest.tensors nest);
  add
    (Printf.sprintf "|cfg:nd=%d;np=%d;top=%d;max=%d;expl=%b;util=" config.n_divisors
       config.n_pow2 config.top_choices config.max_choices
       config.explore_placements);
  fl config.min_pe_utilization;
  add
    (match config.lint with
    | Analysis.Lint.Enforce -> "lint=enforce"
    | Analysis.Lint.Warn -> "lint=warn"
    | Analysis.Lint.Off -> "lint=off");
  (* Unlike the journal fingerprint, contention belongs here: it changes
     the integerizer's candidate scoring, hence the served result. *)
  add
    (Printf.sprintf ";comm=%s;cont=%b"
       (Archspec.Link.comm_model_name config.comm)
       config.contention);
  Buffer.contents buf

(* Fate of one (choice, placement) pair after the guarded solve stage:
   a solver solution, the quarantining failure, or the presolve proof
   that pruned the pair without a solve, plus the final attempt's
   telemetry, the number of extra attempts spent, and the deadline hits
   accumulated across every attempt (retried stalls included, which the
   final attempt's stats alone would miss). *)
type slot = {
  s_fate : Sweep.Journal.fate;
  s_stats : Gp.Solver.stats;
  s_retries : int;
  s_deadline_hits : int;
}

(* Knobs no sweep can honor are refused up front, naming the field:
   left alone, a zero shortlist or enumeration cap would surface as a
   misleading "nothing survived" error, and a NaN deadline compares
   false against the clock and silently means "no deadline". *)
let validate config =
  if config.top_choices < 1 then
    Error (Printf.sprintf "optimize: top_choices must be >= 1 (got %d)" config.top_choices)
  else if config.max_choices < 1 then
    Error (Printf.sprintf "optimize: max_choices must be >= 1 (got %d)" config.max_choices)
  else
    match config.solve_deadline_ms with
    | Some ms when Float.is_nan ms -> Error "optimize: solve_deadline_ms must not be NaN"
    | Some _ | None -> Ok ()

let run ?(config = default_config) tech arch_mode objective nest =
  match validate config with
  | Error _ as e -> e
  | Ok () ->
  let jobs = Int.max 1 config.jobs in
  let plan = Permutations.enumerate ~max_choices:config.max_choices nest in
  let placements =
    if config.explore_placements then plan.Permutations.placements
    else [ plan.Permutations.pinned ]
  in
  let nplac = Int.max 1 (List.length placements) in
  let pairs =
    List.concat_map
      (fun choice_vol -> List.map (fun placement -> (choice_vol, placement)) placements)
      plan.Permutations.choices
  in
  let npairs = List.length pairs in
  (* The explicit indexed work-list: pair [i] is choice [i / nplac],
     placement [i mod nplac], in exact enumeration order.  Shard
     membership, journal entries and the merge step all speak this
     indexing (DESIGN §12); a shard owns whole choices so every
     warm-start source stays shard-local. *)
  let pair_arr = Array.of_list pairs in
  let shard_idx = Sweep.Partition.pair_indices config.shard ~nplac ~npairs in
  (* Stage A: formulate, lint, key and presolve every owned (choice,
     placement) pair.  The pairs are independent — Formulate.build
     shares no mutable state — and Exec.Par.map preserves sequential
     order, so the stage is bit-identical for any [jobs].  A lint
     rejection aborts the whole sweep: every pair of one layer shares
     the formulation code, so one malformed instance means the model
     itself is wrong, not that one choice is unlucky.

     Presolve (DESIGN §13) is defense-in-depth the other way around: its
     verdicts gate individual pairs, never the sweep, and before an
     infeasibility verdict is allowed to stand, the proof is re-checked
     by {!Analysis.Certificate.check_prune}.  A rejected proof — or a
     crash inside the propagator — downgrades the pair to "solve
     normally" with a warning, in [Prune] and [Check] alike, so a buggy
     propagator can never silently discard a feasible pair. *)
  let presolve_of instance =
    match config.presolve with
    | Analysis.Presolve.Off -> None
    | Analysis.Presolve.Prune | Analysis.Presolve.Check -> (
      let problem = instance.Formulate.problem in
      let no_reduction t =
        {
          t with
          Analysis.Presolve.verdict =
            Analysis.Presolve.Feasible
              { Analysis.Presolve.reduced = problem; fixed = []; dropped = [] };
        }
      in
      match Analysis.Presolve.analyze problem with
      | exception e ->
        Log.warn (fun m ->
            m "%s: presolve crashed, solving anyway: %s"
              instance.Formulate.provenance (Printexc.to_string e));
        None
      | t -> (
        match t.Analysis.Presolve.verdict with
        | Analysis.Presolve.Feasible _ -> Some t
        | Analysis.Presolve.Infeasible proof -> (
          match Analysis.Certificate.check_prune problem proof with
          | Ok () -> Some t
          | Error msg ->
            Log.warn (fun m ->
                m "%s: presolve proof rejected, solving anyway: %s"
                  instance.Formulate.provenance msg);
            Some (no_reduction t))))
  in
  let formulated =
    try
      Ok
        (Exec.Par.map ~jobs
           (fun i ->
             let choice_vol, placement = pair_arr.(i) in
             let instance =
               Obs.Trace.span "formulate" (fun () ->
                   Formulate.build ~placement ~comm:config.comm tech arch_mode
                     objective plan choice_vol)
             in
             Analysis.Lint.gate config.lint (Formulate.lint instance);
             (instance, problem_key instance.Formulate.problem, presolve_of instance))
           shard_idx)
    with Analysis.Lint.Rejected diags ->
      Error
        (Printf.sprintf "optimize: lint rejected formulation: %s"
           (Analysis.Diagnostic.summary diags))
  in
  match formulated with
  | Error _ as e -> e
  | Ok formulated ->
  let inst :
      (Formulate.instance * string * Analysis.Presolve.t option) option array =
    Array.make npairs None
  in
  List.iter2 (fun i v -> inst.(i) <- Some v) shard_idx formulated;
  let instance_of i =
    match inst.(i) with
    | Some v -> v
    | None -> invalid_arg (Printf.sprintf "optimize: pair %d outside shard" i)
  in
  (* Solve schedule: two waves with sweep-level reuse.

     Wave 1 solves the pinned-placement pair of every choice (pair
     indices [c * nplac]) cold, deduplicating identical programs onto
     their first occurrence in enumeration order.  Wave 2 solves the
     remaining placements, deduplicating against everything already
     keyed, and warm-starting each representative from its own choice's
     pinned solution — which wave 1 always provides.

     Wave membership, dedup representatives and warm-start sources are
     all functions of the enumeration order alone (never of timing or
     worker count), and Exec.Par.map preserves order within each wave,
     so the whole schedule is bit-identical for any [jobs]. *)
  let results : slot option array = Array.make npairs None in
  let key_rep = Hashtbl.create (2 * npairs) in
  let cache_hits = ref 0 in
  let warm_starts = ref 0 in
  (* Journal plumbing (DESIGN §12).  Each owned pair gets a fingerprint
     of (canonical problem key, solver-config fingerprint); a resume
     replays journal entries whose fingerprint still matches, and every
     pair completed by THIS run is appended as it finishes — under a
     mutex, flushed per entry — so a killed run loses at most the pairs
     still in flight. *)
  let config_fp = config_fingerprint config in
  let pair_fp = Array.make npairs "" in
  List.iter
    (fun i ->
      let _, key, _ = instance_of i in
      pair_fp.(i) <- Sweep.Journal.fingerprint ~config:config_fp ~problem_key:key)
    shard_idx;
  let journal_hits = ref 0 in
  let journal_stale = ref 0 in
  let resumed = Array.make npairs false in
  (if config.resume then
     match config.journal with
     | Some path -> (
       match Sweep.Journal.load_existing path with
       | Error msg ->
         Log.warn (fun m -> m "journal %s unreadable, resuming nothing: %s" path msg)
       | Ok entries ->
         let tbl = Hashtbl.create (2 * List.length entries + 1) in
         (* Last entry per pair wins: a re-run may have appended a fresh
            entry for a pair whose earlier one had gone stale. *)
         List.iter
           (fun (e : Sweep.Journal.entry) -> Hashtbl.replace tbl e.Sweep.Journal.pair e)
           entries;
         List.iter
           (fun i ->
             match Hashtbl.find_opt tbl i with
             | Some e when String.equal e.Sweep.Journal.fingerprint pair_fp.(i) ->
               results.(i) <-
                 Some
                   {
                     s_fate = e.Sweep.Journal.fate;
                     s_stats = e.Sweep.Journal.stats;
                     s_retries = e.Sweep.Journal.retries;
                     s_deadline_hits = e.Sweep.Journal.deadline_hits;
                   };
               resumed.(i) <- true;
               incr journal_hits
             | Some _ -> incr journal_stale
             | None -> ())
           shard_idx)
     | None -> ());
  let journal_oc =
    Option.map
      (fun path -> open_out_gen [ Open_append; Open_creat ] 0o644 path)
      config.journal
  in
  let journal_mutex = Mutex.create () in
  let journal_emit i (slot : slot) =
    match journal_oc with
    | None -> ()
    | Some oc ->
      if not resumed.(i) then begin
        let instance, _, _ = instance_of i in
        let entry =
          {
            Sweep.Journal.pair = i;
            fingerprint = pair_fp.(i);
            provenance = instance.Formulate.provenance;
            fate = slot.s_fate;
            stats = slot.s_stats;
            retries = slot.s_retries;
            deadline_hits = slot.s_deadline_hits;
          }
        in
        Mutex.lock journal_mutex;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock journal_mutex)
          (fun () -> Sweep.Journal.append_line oc entry)
      end
  in
  Fun.protect ~finally:(fun () -> Option.iter close_out_noerr journal_oc)
  @@ fun () ->
  (* Presolve pruning ([Prune] mode only): statically infeasible pairs
     get their fate slot before wave selection — like journal-resumed
     pairs they register as dedupe representatives and are never
     handed to the solver.  The proof was independently re-checked in
     stage A; the stats are all-zero because no solver ran. *)
  (match config.presolve with
  | Analysis.Presolve.Check | Analysis.Presolve.Off -> ()
  | Analysis.Presolve.Prune ->
    List.iter
      (fun i ->
        if results.(i) = None then
          let _, _, pre = instance_of i in
          match pre with
          | Some
              { Analysis.Presolve.verdict = Analysis.Presolve.Infeasible proof; _ }
            ->
            let slot =
              {
                s_fate = Sweep.Journal.Pruned proof;
                s_stats = Gp.Solver.fresh_stats ();
                s_retries = 0;
                s_deadline_hits = 0;
              }
            in
            results.(i) <- Some slot;
            journal_emit i slot
          | Some { Analysis.Presolve.verdict = Analysis.Presolve.Feasible _; _ }
          | None ->
            ())
      shard_idx);
  let deadline_ns = Option.map (fun ms -> ms *. 1e6) config.solve_deadline_ms in
  let max_attempts = 1 + Int.max 0 config.retries in
  (* In [Prune] mode a feasible presolve verdict swaps in the reduced
     problem: fixed variables are gone (the compiled kernel's
     nullspace basis shrinks accordingly) and redundant constraints
     are dropped.  The fixed values are re-injected into every
     solution so downstream consumers — certificates, integerization,
     warm starts, journal replays — see a complete assignment;
     {!Formulate.solution_env} would otherwise default them to 1. *)
  let reduced_of i =
    let instance, _, pre = instance_of i in
    match (config.presolve, pre) with
    | ( Analysis.Presolve.Prune,
        Some { Analysis.Presolve.verdict = Analysis.Presolve.Feasible red; _ } )
      ->
      (red.Analysis.Presolve.reduced, red.Analysis.Presolve.fixed)
    | _ -> (instance.Formulate.problem, [])
  in
  (* One guarded solve attempt.  A stall injection forces a zero deadline
     on that attempt, which trips [Deadline_exceeded] deterministically at
     the solver's first check without reading the wall clock.  Retries
     escalate the initial KKT regularization — a solve that crashed or
     stalled was usually fighting a near-singular system. *)
  let solve_pair ?warm_start i =
    let instance, _, _ = instance_of i in
    let prov = instance.Formulate.provenance in
    let problem, fixed = reduced_of i in
    let reinstate (sol : Gp.Solver.solution) =
      if fixed = [] then sol
      else { sol with Gp.Solver.values = sol.Gp.Solver.values @ fixed }
    in
    if fixed <> [] && Gp.Problem.variables problem = [] then
      (* Every variable was pinned by monotonicity: the program is a
         point, already proven feasible, so there is nothing to solve. *)
      {
        s_fate =
          Sweep.Journal.Solved
            {
              Gp.Solver.status = Gp.Solver.Optimal;
              objective =
                Symexpr.Posynomial.eval (fun _ -> 1.0)
                  (Gp.Problem.objective problem);
              values = fixed;
            };
        s_stats = Gp.Solver.fresh_stats ();
        s_retries = 0;
        s_deadline_hits = 0;
      }
    else begin
    let attempt_once attempt =
      let st = Gp.Solver.fresh_stats () in
      let deadline_ns =
        if Robust.Inject.stall config.inject ~site:"solve" ~provenance:prov ~attempt
        then Some 0.0
        else deadline_ns
      in
      let initial_reg = if attempt = 0 then 1e-9 else 1e-5 in
      let result =
        Robust.guard ~inject:config.inject ~attempt ~site:"solve" ~provenance:prov
          (fun () ->
            Obs.Trace.span "solve"
              ~attrs:[ ("provenance", prov) ]
              (fun () ->
                Gp.Solver.solve ~tol:config.gp_tol ~stats:st ~kernel:config.gp_kernel
                  ?deadline_ns ~initial_reg ?warm_start problem))
      in
      (result, st)
    in
    let start = Robust.now_ns () in
    let rec go ~dh attempt =
      let finish s_fate st =
        {
          s_fate;
          s_stats = st;
          s_retries = attempt;
          s_deadline_hits = dh + st.Gp.Solver.deadline_hits;
        }
      in
      match attempt_once attempt with
      | Ok sol, st when sol.Gp.Solver.status = Gp.Solver.Deadline_exceeded ->
        if attempt + 1 < max_attempts then
          go ~dh:(dh + st.Gp.Solver.deadline_hits) (attempt + 1)
        else
          finish
            (Sweep.Journal.Quarantined
               (Robust.deadline_failure ~attempts:(attempt + 1) ~site:"solve"
                  ~provenance:prov
                  ~elapsed_ns:(Robust.now_ns () -. start)
                  ()))
            st
      | Error f, st ->
        if attempt + 1 < max_attempts then
          go ~dh:(dh + st.Gp.Solver.deadline_hits) (attempt + 1)
        else finish (Sweep.Journal.Quarantined f) st
      | Ok sol, st -> finish (Sweep.Journal.Solved (reinstate sol)) st
    in
    go ~dh:0 0
    end
  in
  (* Replaying a cached solve copies the representative's telemetry
     into a fresh stats record, so [solve_totals] keeps counting
     logical solves exactly as an undeduplicated sweep would; physical
     solver work is [solves - cache_hits].  A quarantined representative
     quarantines its replicas too (same program, same fate), with the
     failure relabeled to the replica's own provenance. *)
  let replay i =
    let instance, key, _ = instance_of i in
    let rep = Hashtbl.find key_rep key in
    let r = Option.get results.(rep) in
    let st = Gp.Solver.fresh_stats () in
    Gp.Solver.copy_stats ~into:st r.s_stats;
    let s_fate =
      match r.s_fate with
      | (Sweep.Journal.Solved _ | Sweep.Journal.Pruned _) as fate -> fate
      | Sweep.Journal.Quarantined f ->
        Sweep.Journal.Quarantined
          { f with Robust.provenance = instance.Formulate.provenance }
    in
    incr cache_hits;
    let slot = { r with s_fate; s_stats = st } in
    results.(i) <- Some slot;
    journal_emit i slot
  in
  let is_rep i =
    let _, key, _ = instance_of i in
    if config.dedupe && Hashtbl.mem key_rep key then false
    else begin
      Hashtbl.replace key_rep key i;
      true
    end
  in
  let pinned_idx =
    List.filter (fun i -> Sweep.Partition.is_pinned ~nplac i) shard_idx
  in
  let other_idx =
    List.filter (fun i -> not (Sweep.Partition.is_pinned ~nplac i)) shard_idx
  in
  (* Wave 1: pinned placements, cold.  Journal-resumed pairs still
     register as dedupe representatives (their slot is present, so later
     duplicates replay from it) but are never re-solved. *)
  let wave1 =
    List.filter
      (fun i ->
        let rep = is_rep i in
        rep && results.(i) = None)
      pinned_idx
  in
  let solved1 =
    Exec.Par.map ~jobs
      (fun i ->
        let r = solve_pair i in
        journal_emit i r;
        r)
      wave1
  in
  List.iter2 (fun i r -> results.(i) <- Some r) wave1 solved1;
  List.iter (fun i -> if results.(i) = None then replay i) pinned_idx;
  (* Wave 2: remaining placements, warm-started from the choice's
     pinned solution when it is usable. *)
  let warm_of i =
    if not config.warm_start then None
    else
      let pinned = i / nplac * nplac in
      match results.(pinned) with
      | Some { s_fate = Sweep.Journal.Solved sol; _ }
        when sol.Gp.Solver.status <> Gp.Solver.Infeasible
             && sol.Gp.Solver.values <> [] ->
        Some sol.Gp.Solver.values
      | _ -> None
  in
  let wave2 =
    List.filter_map
      (fun i ->
        let rep = is_rep i in
        if rep && results.(i) = None then Some (i, warm_of i) else None)
      other_idx
  in
  List.iter (fun (_, w) -> if w <> None then incr warm_starts) wave2;
  let solved2 =
    Exec.Par.map ~jobs
      (fun (i, warm_start) ->
        let r = solve_pair ?warm_start i in
        journal_emit i r;
        r)
      wave2
  in
  List.iter2 (fun (i, _) r -> results.(i) <- Some r) wave2 solved2;
  List.iter (fun i -> if results.(i) = None then replay i) other_idx;
  let pairs_solved = List.length wave1 + List.length wave2 in
  (* Stage C: certificate-check every surviving pair against its
     (possibly replayed) solution, again order-preserving and in
     parallel.  Quarantined pairs pass through with their failure. *)
  let attempts =
    Exec.Par.map ~jobs
      (fun i ->
        let instance, _, _ = instance_of i in
        let slot = Option.get results.(i) in
        let usable =
          match slot.s_fate with
          | Sweep.Journal.Quarantined _ | Sweep.Journal.Pruned _ -> None
          | Sweep.Journal.Solved solution ->
            (match solution.Gp.Solver.status with
            | Gp.Solver.Infeasible | Gp.Solver.Deadline_exceeded -> None
            | Gp.Solver.Optimal | Gp.Solver.Iteration_limit ->
              if not (Float.is_finite solution.Gp.Solver.objective) then None
              else begin
                (* Post-solve certificate: a point with non-finite coordinates
                   or constraint evaluations is discarded even when the solver
                   reported a finite objective for it. *)
                let cert =
                  Analysis.Certificate.check ~provenance:instance.Formulate.provenance
                    instance.Formulate.problem
                    (Formulate.solution_env instance solution)
                in
                if Analysis.Certificate.hard_failure cert then begin
                  Log.debug (fun m ->
                      m "%s: certificate rejected solution: %s"
                        instance.Formulate.provenance
                        (Analysis.Diagnostic.summary cert.Analysis.Certificate.diagnostics));
                  None
                end
                else Some (instance, solution)
              end)
        in
        (usable, slot))
      shard_idx
  in
  (* Accumulate telemetry over every solve (feasible, quarantined or
     not), in the deterministic sequential order Exec.Par.map
     preserves. *)
  let solve_totals =
    List.fold_left
      (fun acc (_, slot) -> Gp.Solver.accumulate acc slot.s_stats)
      Gp.Solver.zero_totals attempts
  in
  let solve_failures =
    List.filter_map
      (fun (_, slot) ->
        match slot.s_fate with Sweep.Journal.Quarantined f -> Some f | _ -> None)
      attempts
  in
  (* Pruned pairs, with provenance, in enumeration order — reported like
     quarantined pairs so audits can re-check every proof. *)
  let pruned =
    List.filter_map
      (fun i ->
        match results.(i) with
        | Some { s_fate = Sweep.Journal.Pruned proof; _ } ->
          let instance, _, _ = instance_of i in
          Some (instance.Formulate.provenance, proof)
        | _ -> None)
      shard_idx
  in
  (* Check mode: every pair was solved as formulated; compare the
     solver's findings against the presolve verdicts.  Any disagreement
     is a presolve soundness bug and fails the run — after the counters
     are fed, so [Check] and [Prune] report identical telemetry. *)
  let disagreements =
    if config.presolve <> Analysis.Presolve.Check then []
    else
      List.concat
        (List.map2
           (fun i (usable, _) ->
             let instance, _, pre = instance_of i in
             let prov = instance.Formulate.provenance in
             match (pre, usable) with
             | None, _ | _, None -> []
             | Some t, Some (_, (solution : Gp.Solver.solution)) -> (
               match t.Analysis.Presolve.verdict with
               | Analysis.Presolve.Infeasible proof ->
                 [
                   Printf.sprintf
                     "%s: solved despite an infeasibility proof (culprit %s)" prov
                     proof.Analysis.Presolve.culprit;
                 ]
               | Analysis.Presolve.Feasible red ->
                 let escaped =
                   List.filter_map
                     (fun (x, v) ->
                       match List.assoc_opt x t.Analysis.Presolve.box with
                       | Some iv when not (Analysis.Interval.mem ~slack:1e-4 v iv)
                         ->
                         Some
                           (Format.asprintf
                              "%s: solution %s = %g escapes the presolve box %a"
                              prov x v Analysis.Interval.pp iv)
                       | Some _ | None -> None)
                     solution.Gp.Solver.values
                 in
                 let active =
                   List.filter_map
                     (fun (name, _) ->
                       match
                         List.assoc_opt name
                           (Gp.Problem.ineqs instance.Formulate.problem)
                       with
                       | None -> None
                       | Some p ->
                         let v =
                           Symexpr.Posynomial.eval
                             (Formulate.solution_env instance solution)
                             p
                         in
                         if v >= 1.0 -. 1e-7 then
                           Some
                             (Printf.sprintf
                                "%s: eliminated constraint %s evaluates to %g at \
                                 the optimum"
                                prov name v)
                         else None)
                     red.Analysis.Presolve.dropped
                 in
                 escaped @ active))
           shard_idx attempts)
  in
  feed_solver_metrics solve_totals;
  Obs.Metrics.add m_cache_hits !cache_hits;
  Obs.Metrics.add m_warm_starts !warm_starts;
  Obs.Metrics.add m_journal_hits !journal_hits;
  Obs.Metrics.add m_journal_stale !journal_stale;
  Obs.Metrics.add m_pairs_solved pairs_solved;
  let presolve_pruned = ref 0 in
  let presolve_fixed = ref 0 in
  let presolve_dropped = ref 0 in
  List.iter
    (fun i ->
      let _, _, pre = instance_of i in
      match pre with
      | Some { Analysis.Presolve.verdict = Analysis.Presolve.Infeasible _; _ } ->
        incr presolve_pruned
      | Some { Analysis.Presolve.verdict = Analysis.Presolve.Feasible red; _ } ->
        presolve_fixed :=
          !presolve_fixed + List.length red.Analysis.Presolve.fixed;
        presolve_dropped :=
          !presolve_dropped + List.length red.Analysis.Presolve.dropped
      | None -> ())
    shard_idx;
  Obs.Metrics.add m_presolve_pruned !presolve_pruned;
  Obs.Metrics.add m_presolve_vars_fixed !presolve_fixed;
  Obs.Metrics.add m_presolve_dropped !presolve_dropped;
  let comm_constraints = ref 0 in
  List.iter
    (fun i ->
      let instance, _, _ = instance_of i in
      List.iter
        (fun (name, _) ->
          if List.mem name comm_constraint_names then incr comm_constraints)
        (Gp.Problem.ineqs instance.Formulate.problem))
    shard_idx;
  Obs.Metrics.add m_comm_constraints !comm_constraints;
  Obs.Metrics.add m_quarantined (List.length solve_failures);
  Obs.Metrics.add m_retries
    (List.fold_left (fun acc (_, slot) -> acc + slot.s_retries) 0 attempts);
  Obs.Metrics.add m_deadline_hits
    (List.fold_left (fun acc (_, slot) -> acc + slot.s_deadline_hits) 0 attempts);
  List.iter
    (fun f -> Log.warn (fun m -> m "quarantined: %s" (Robust.describe f)))
    solve_failures;
  match disagreements with
  | first :: _ ->
    List.iter
      (fun d -> Log.err (fun m -> m "presolve check: %s" d))
      disagreements;
    Error
      (Printf.sprintf
         "optimize: presolve check found %d disagreement(s); first: %s"
         (List.length disagreements) first)
  | [] ->
  let solved = List.filter_map fst attempts in
  match solved with
  | [] ->
    Log.info (fun m ->
        m "%s: 0/%d choices solved (raw %d, %d quarantined, %d pruned)"
          (Workload.Nest.name nest)
          (List.length plan.Permutations.choices) plan.Permutations.raw_count
          (List.length solve_failures) (List.length pruned));
    let reasons =
      (if solve_failures = [] then []
       else
         [ Printf.sprintf "%d pair(s) quarantined" (List.length solve_failures) ])
      @
      if pruned = [] then []
      else [ Printf.sprintf "%d pair(s) presolve-pruned" (List.length pruned) ]
    in
    Error
      (match reasons with
      | [] -> "optimize: no permutation choice produced a feasible program"
      | reasons ->
        Printf.sprintf
          "optimize: no permutation choice produced a feasible program (%s)"
          (String.concat ", " reasons))
  | solved ->
    Log.info (fun m ->
        m "%s: %d/%d choices solved (raw %d, %d deduped, %d warm)"
          (Workload.Nest.name nest) (List.length solved)
          (List.length plan.Permutations.choices) plan.Permutations.raw_count
          !cache_hits !warm_starts);
    let ranked =
      (* List.sort is stable, and [solved] arrives in sequential order, so
         ties keep the deterministic enumeration order.  [compare_scores]
         (not [Float.compare], which sorts NaN first) ranks any
         non-finite solver objective last, so a bogus solution can never
         top the shortlist or become [best_continuous] while a finite
         one exists. *)
      List.sort
        (fun (_, a) (_, b) ->
          compare_scores a.Gp.Solver.objective b.Gp.Solver.objective)
        solved
    in
    let rec take k = function
      | x :: rest when k > 0 -> x :: take (k - 1) rest
      | _ -> []
    in
    let shortlisted = take config.top_choices ranked in
    let best_continuous =
      match ranked with (_, s) :: _ -> s.Gp.Solver.objective | [] -> nan
    in
    (* Guarded integerization: a crash in the model-evaluation stage
       quarantines that shortlisted candidate (no retry — the stage is
       deterministic in its inputs, so a second run would crash the same
       way) instead of killing the sweep. *)
    let staged =
      Exec.Par.map ~jobs
        (fun (instance, solution) ->
          let prov = instance.Formulate.provenance in
          match
            Robust.guard ~inject:config.inject ~site:"integerize" ~provenance:prov
              (fun () ->
                Obs.Trace.span "integerize"
                  ~attrs:[ ("provenance", prov) ]
                  (fun () ->
                    Integerize.run ~n_divisors:config.n_divisors
                      ~n_pow2:config.n_pow2
                      ~min_pe_utilization:config.min_pe_utilization
                      ~contention:config.contention tech instance solution))
          with
          | Ok (Ok o) -> (Some o, None)
          | Ok (Error msg) ->
            Log.debug (fun m -> m "integerize failed: %s" msg);
            (None, None)
          | Error f -> (None, Some f))
        shortlisted
    in
    let outcomes = List.filter_map fst staged in
    let integerize_failures = List.filter_map snd staged in
    Obs.Metrics.add m_quarantined (List.length integerize_failures);
    Obs.Metrics.add m_comm_bound
      (List.length
         (List.filter
            (fun o ->
              o.Integerize.metrics.Accmodel.Evaluate.comm <> []
              && o.Integerize.metrics.Accmodel.Evaluate.binding <> "compute")
            outcomes));
    List.iter
      (fun f -> Log.warn (fun m -> m "quarantined: %s" (Robust.describe f)))
      integerize_failures;
    let failures = solve_failures @ integerize_failures in
    (* [select_best] orders non-finite model scores after every finite
       one: the old [<] fold returned false on NaN comparisons, so a
       quarantine-surviving but NaN-scored candidate silently displaced
       a finite best. *)
    let best =
      select_best
        ~score:(fun o -> Integerize.score objective o.Integerize.metrics)
        outcomes
    in
    begin
      match best with
      | None ->
        Error
          (if integerize_failures = [] then
             "optimize: no integer candidate survived model evaluation"
           else
             Printf.sprintf
               "optimize: no integer candidate survived model evaluation (%d \
                pair(s) quarantined)"
               (List.length integerize_failures))
      | Some outcome ->
        Ok
          {
            outcome;
            choices_enumerated = List.length plan.Permutations.choices;
            choices_solved = List.length solved;
            best_continuous;
            solve_totals;
            failures;
            pruned;
          }
    end

let dataflow ?config tech arch objective nest =
  run ?config tech (Formulate.Fixed arch) objective nest

let codesign ?config tech ~area_budget objective nest =
  run ?config tech (Formulate.Codesign { area_budget }) objective nest
