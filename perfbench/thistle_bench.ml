(* The Thistle benchmark.

     thistle_bench --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
     thistle_bench compare BASE.jsonl NEW.jsonl

   One process drives the library's public entry points with at most
   [Exec.Par.default_jobs ()] worker domains.  A run sets up (inputs,
   pool, one warm-up call; set up here and again in fresh child
   processes, and the median reported), passes an untimed
   correctness gate, then measures for [S] seconds.  With [--trace 0] it
   reports the end-to-end metrics; with [--trace 1] it alternates
   untraced runs with a stage-by-stage traced replay ({!Replay}) and
   reports per-layer metrics.  The last stdout line is one JSON object
   with [correct], [attempted], [failed] and [metrics]; the lines before
   it are a human-readable table and a [report] line (stamp and sample
   counts) that [compare] reads back. *)

module O = Thistle.Optimize
module F = Thistle.Formulate
module P = Serve.Protocol

let t_start = Unix.gettimeofday ()
let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Workloads                                                          *)
(* ------------------------------------------------------------------ *)

(* Each batch workload runs a fixed panel of Table II layers; the seed
   draws the order they run in.  The panel is fixed so that every seed
   does the same work and the end-to-end numbers of different seeds are
   comparable; it always includes layers with known model gaps
   (resnet-5/11, yolo-11). *)
type batch_kind = Codesign_energy | Edge_delay | Shard_resume

type workload = Batch of batch_kind | Serve_mixed

let workloads =
  [
    ("codesign-energy", Batch Codesign_energy);
    ("edge-delay", Batch Edge_delay);
    ("shard-resume", Batch Shard_resume);
    ("serve-mixed", Serve_mixed);
  ]

let panel = function
  | Codesign_energy -> [ "resnet-2"; "resnet-5"; "yolo-2"; "yolo-11" ]
  | Edge_delay -> [ "resnet-2"; "resnet-5" ]
  | Shard_resume -> [ "resnet-2"; "resnet-5"; "resnet-11" ]

(* The cheapest panel layer, used for the warm-up call. *)
let warmup_layer = function
  | Codesign_energy -> "yolo-11"
  | Edge_delay | Shard_resume -> "resnet-5"

let config = O.default_config
let jobs = Int.max 1 config.O.jobs
let edge_arch = Archspec.Arch.make ~name:"edge" ~pes:32 ~registers:16 ~sram_words:4096

let setting = function
  | Codesign_energy | Shard_resume ->
    let tech = Archspec.Technology.table3 in
    (tech, F.Codesign { area_budget = Archspec.Arch.eyeriss_area tech }, F.Energy)
  | Edge_delay -> (Archspec.Technology.edge, F.Fixed edge_arch, F.Delay)

let nest_of name = Workload.Conv.to_nest (Workload.Zoo.find name)

(* The library entry point each batch workload exercises. *)
let entry kind ?(config = config) nest =
  let tech, arch_mode, objective = setting kind in
  match arch_mode with
  | F.Codesign { area_budget } -> O.codesign ~config tech ~area_budget objective nest
  | F.Fixed arch -> O.dataflow ~config tech arch objective nest

(* Serve requests: two layers x both objectives x both request kinds, the
   fewest keys that cover every objective and request kind on more than
   one layer.  The two cheapest Table II layers and a small enumeration
   cap keep a store miss to a fraction of a second.  A pass's stream holds
   every key [serve_repeats] times in a seeded order, drawn afresh for
   each pass, so each pass has exactly one miss per key and the rest
   hits, and a run's median averages over the orders; the repeat count puts
   about half of the clients' busy time on hits and half on misses
   (measured as [hit_time_frac]), so both a serve-path and a solver
   change move [wall_s]. *)
let serve_layers = [ "yolo-10"; "yolo-11" ]
let serve_opts = { P.default_opts with P.top_choices = 1; max_choices = 4 }
let serve_repeats = 720

let serve_keys =
  List.concat_map
    (fun layer ->
      List.concat_map
        (fun objective ->
          [
            P.Codesign { layer; objective; area = None; opts = serve_opts };
            P.Optimize { layer; objective; arch = Archspec.Arch.eyeriss; opts = serve_opts };
          ])
        [ F.Energy; F.Delay ])
    serve_layers

(* A request outside the stream, so the warm-up solves without
   populating any key the passes will ask for. *)
let serve_warmup = P.Codesign { layer = "resnet-5"; objective = F.Delay; area = None; opts = serve_opts }

(* What the daemon computes for a request, resolved exactly as
   [Serve.Server] does: the cold rendered body, plus the inputs of the
   underlying optimizer call for the gate and the traced replay. *)
type serve_key = {
  req : P.request;
  label : string;
  kconfig : O.config;
  ktech : Archspec.Technology.t;
  kmode : F.arch_mode;
  kobjective : F.objective;
  knest : Workload.Nest.t;
}

let resolve_key req =
  let layer, objective, opts, kmode, tech_opts =
    match req with
    | P.Codesign { layer; objective; area; opts } ->
      let tech = Archspec.Technology.scale_to_node Archspec.Technology.table3 ~node_nm:opts.P.node_nm in
      let area_budget = match area with Some a -> a | None -> Archspec.Arch.eyeriss_area tech in
      (layer, objective, opts, F.Codesign { area_budget }, tech)
    | P.Optimize { layer; objective; arch; opts } ->
      let tech = Archspec.Technology.scale_to_node Archspec.Technology.table3 ~node_nm:opts.P.node_nm in
      (layer, objective, opts, F.Fixed arch, tech)
    | P.Pipeline _ | P.Metrics -> invalid_arg "resolve_key"
  in
  {
    req;
    label = P.describe req;
    kconfig = { config with O.top_choices = opts.P.top_choices; max_choices = opts.P.max_choices };
    ktech = tech_opts;
    kmode;
    kobjective = objective;
    knest = nest_of layer;
  }

let key_run k = O.run ~config:k.kconfig k.ktech k.kmode k.kobjective k.knest

let render k report =
  match k.kmode with
  | F.Codesign { area_budget } ->
    Serve.Render.area_header area_budget ^ Serve.Render.outcome ~tech:k.ktech report
  | F.Fixed _ -> Serve.Render.outcome ~tech:k.ktech report

(* ------------------------------------------------------------------ *)
(* Scratch files, inside the checkout                                 *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let work_dir =
  lazy
    (let root = ".perfbench_work" in
     (try Sys.mkdir root 0o755 with Sys_error _ -> ());
     let d = Filename.concat root (string_of_int (Unix.getpid ())) in
     rm_rf d;
     Sys.mkdir d 0o755;
     (* A terminated run still removes its files.  The handler exits
        without running [at_exit]: the signal may arrive while a domain
        holds a lock those handlers need. *)
     let clean () =
       rm_rf d;
       try Sys.rmdir root with Sys_error _ -> ()
     in
     List.iter
       (fun sg ->
         Sys.set_signal sg
           (Sys.Signal_handle
              (fun _ ->
                clean ();
                Unix._exit 130)))
       [ Sys.sigint; Sys.sigterm ];
     at_exit clean;
     d)

let work_path name = Filename.concat (Lazy.force work_dir) name

(* ------------------------------------------------------------------ *)
(* Failures of the correctness gate                                   *)
(* ------------------------------------------------------------------ *)

let problems : string list ref = ref []
let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt

(* ------------------------------------------------------------------ *)
(* Set-up                                                             *)
(* ------------------------------------------------------------------ *)

type batch_state = {
  kind : batch_kind;
  layers : string list;  (** the panel in seeded order *)
  nests : (string * Workload.Nest.t) list;
  shards : (string * string list) list;  (** per layer: its two shard journals *)
}

type serve_state = { keys : serve_key array; draw : Draw.t  (** the passes' request orders *) }

(* The next pass's request stream: indices into [keys]. *)
let next_stream st =
  Array.of_list
    (Draw.shuffle st.draw
       (List.concat_map (fun k -> List.init serve_repeats (fun _ -> k)) (List.init (Array.length st.keys) Fun.id)))

type state = Batch_state of batch_state | Serve_state of serve_state

let shard_files layer = List.map (fun k -> work_path (Printf.sprintf "%s.shard%d.jsonl" layer k)) [ 1; 2 ]
let merged_file layer = work_path (layer ^ ".merged.jsonl")

let resume_config layer = { config with O.journal = Some (merged_file layer); resume = true }

(* [f ()], with its wall time added to [acc]. *)
let timed_into acc f =
  let t0 = now () in
  Fun.protect ~finally:(fun () -> acc := !acc +. (now () -. t0)) f

(* The shard-resume operation: merge the shard journals, write the merged
   journal, resume from it.  [run_wall] accumulates the time of the
   resumed optimizer run. *)
let resume_op ?(run_wall = ref 0.0) layer nest files =
  match Sweep.Merge.load_files files with
  | Error m -> Error m
  | Ok entries ->
    Sweep.Journal.write_file (merged_file layer) entries;
    timed_into run_wall (fun () -> entry Shard_resume ~config:(resume_config layer) nest)

let start_server store_dir =
  match
    Serve.Server.start
      { (Serve.Server.default (Serve.Server.Tcp 0)) with Serve.Server.store_dir = Some store_dir; base = config }
  with
  | Error m -> failwith ("serve: " ^ m)
  | Ok server -> (
    match Serve.Server.address server with
    | Unix.ADDR_INET (_, port) -> (server, port)
    | Unix.ADDR_UNIX _ -> failwith "serve: unexpected address")

let with_client port f =
  match Serve.Client.connect (Serve.Client.tcp_addr port) with
  | Error m -> failwith ("serve: connect: " ^ m)
  | Ok c -> Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () -> f c)

let setup workload seed =
  let g = Draw.make seed in
  ignore (Exec.Par.shared_pool ~jobs);
  match workload with
  | Batch kind ->
    let layers = Draw.shuffle g (panel kind) in
    let nests = List.map (fun l -> (l, nest_of l)) layers in
    let shards =
      match kind with
      | Codesign_energy | Edge_delay -> []
      | Shard_resume ->
        List.map
          (fun (layer, nest) ->
            let files = shard_files layer in
            List.iteri
              (fun k file ->
                rm_rf file;
                let shard = Result.get_ok (Sweep.Partition.parse (Printf.sprintf "%d/2" (k + 1))) in
                match entry kind ~config:{ config with O.shard; journal = Some file } nest with
                | Ok _ -> ()
                | Error m -> problem "shard %d/2 of %s failed: %s" (k + 1) layer m)
              files;
            (layer, files))
          nests
    in
    let st = { kind; layers; nests; shards } in
    (* Warm-up: one untimed call of the workload's own operation. *)
    let w = warmup_layer kind in
    (match kind with
    | Shard_resume -> ignore (resume_op w (List.assoc w nests) (List.assoc w shards))
    | Codesign_energy | Edge_delay -> ignore (entry kind (nest_of w)));
    Batch_state st
  | Serve_mixed ->
    let keys = Array.of_list (List.map resolve_key serve_keys) in
    let store = work_path "store-setup" in
    let server, port = start_server store in
    Fun.protect
      ~finally:(fun () -> Serve.Server.stop server)
      (fun () -> with_client port (fun c -> ignore (Serve.Client.request c serve_warmup)));
    rm_rf store;
    Serve_state { keys; draw = g }

(* ------------------------------------------------------------------ *)
(* Results                                                            *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; unit_ : string; value : float; samples : int }

let m name unit_ ?(samples = 1) value = { name; unit_; value; samples }

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

let print_table title rows =
  Printf.printf "%s\n" title;
  List.iter
    (fun r ->
      Printf.printf "  %-32s %18.6g %-8s n=%d\n" r.name r.value r.unit_ r.samples)
    rows

(* ------------------------------------------------------------------ *)
(* Correctness gate (untimed, before any timing)                      *)
(* ------------------------------------------------------------------ *)

let bits = Int64.bits_of_float

let occupancies_equal (a : Archspec.Link.occupancy list) (b : Archspec.Link.occupancy list) =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Archspec.Link.occupancy) (y : Archspec.Link.occupancy) ->
         x.Archspec.Link.chan = y.Archspec.Link.chan
         && bits x.Archspec.Link.words = bits y.Archspec.Link.words
         && bits x.Archspec.Link.bursts = bits y.Archspec.Link.bursts
         && bits x.Archspec.Link.busy = bits y.Archspec.Link.busy)
       a b

(* Re-score a winner with the accelerator model and replay its copy
   schedule in the timed reference simulator: cycles and every channel's
   occupancy must agree bit for bit. *)
let check_winner kind layer nest (o : Thistle.Integerize.outcome) =
  let tech, _, _ = setting kind in
  let ev =
    Accmodel.Evaluate.evaluate ~comm:config.O.comm ~contention:config.O.contention tech
      o.Thistle.Integerize.arch nest o.Thistle.Integerize.mapping
  in
  let sim = Refsim.Simulate.timed ~contention:config.O.contention tech nest o.Thistle.Integerize.mapping in
  match (ev, sim) with
  | Error m, _ -> Some (Printf.sprintf "%s: re-scoring failed: %s" layer m)
  | _, Error m -> Some (Printf.sprintf "%s: refsim failed: %s" layer m)
  | Ok ev, Ok sim ->
    let w = o.Thistle.Integerize.metrics in
    if bits ev.Accmodel.Evaluate.energy_pj <> bits w.Accmodel.Evaluate.energy_pj
       || bits ev.Accmodel.Evaluate.cycles <> bits w.Accmodel.Evaluate.cycles
    then Some (layer ^ ": re-scored winner differs from the reported metrics")
    else if bits sim.Refsim.Simulate.cycles <> bits ev.Accmodel.Evaluate.cycles then
      Some
        (Printf.sprintf "%s: refsim cycles %h vs model %h" layer sim.Refsim.Simulate.cycles
           ev.Accmodel.Evaluate.cycles)
    else if not (occupancies_equal sim.Refsim.Simulate.channels ev.Accmodel.Evaluate.comm) then
      Some (layer ^ ": refsim channel occupancies differ from the model")
    else None

(* One layer of a batch workload; [run_wall] accumulates the time spent
   in [Optimize.run]. *)
let batch_op ?(run_wall = ref 0.0) st layer =
  let nest = List.assoc layer st.nests in
  match st.kind with
  | Shard_resume -> resume_op ~run_wall layer nest (List.assoc layer st.shards)
  | Codesign_energy | Edge_delay -> timed_into run_wall (fun () -> entry st.kind nest)

let op_failed = function Error _ -> true | Ok r -> r.O.failures <> []

(* One untimed pass of every panel layer: the reference winners every
   timed pass must reproduce, each checked against the model and refsim. *)
let batch_gate st =
  let _, _, objective = setting st.kind in
  let refs =
    List.map
      (fun layer ->
        match batch_op st layer with
        | Ok r when r.O.failures = [] -> (layer, r)
        | Ok _ -> failwith (layer ^ ": reference run quarantined pairs")
        | Error m -> failwith (layer ^ ": reference run failed: " ^ m))
      st.layers
  in
  List.iter
    (function Some p -> problem "%s" p | None -> ())
    (Exec.Par.map ~jobs
       (fun (layer, r) -> check_winner st.kind layer (List.assoc layer st.nests) r.O.outcome)
       refs);
  List.map (fun (layer, r) -> (layer, (r, bits (Thistle.Integerize.score objective r.O.outcome.Thistle.Integerize.metrics)))) refs

let serve_gate st =
  Array.map
    (fun k ->
      match key_run k with
      | Ok r -> (render k r, r)
      | Error m -> failwith (k.label ^ ": cold run failed: " ^ m))
    st.keys

(* ------------------------------------------------------------------ *)
(* Timed passes                                                       *)
(* ------------------------------------------------------------------ *)

type counts = { mutable attempted : int; mutable failed : int }

let counts = { attempted = 0; failed = 0 }

(* [f ()] repeatedly, at least once, until [seconds] have elapsed. *)
let run_for seconds f =
  let t0 = now () in
  let rec loop acc =
    let acc = f () :: acc in
    if now () -. t0 < seconds then loop acc else List.rev acc
  in
  loop []

type sample = { latency : float; hit : bool; matches : bool }

(* One pass of the request stream against a fresh daemon and store: two
   closed-loop clients split the stream.  Every served body must equal
   the key's cold rendering, and a client that stops early makes the run
   fail.  With [traced], every request gets a span.  Returns the pass's
   wall time and its samples. *)
let serve_pass ?(traced = false) st cold pass_no =
  let store = work_path (Printf.sprintf "store-%d" pass_no) in
  let server, port = start_server store in
  let send conn key =
    let request () = Serve.Client.request conn st.keys.(key).req in
    let t0 = now () in
    let resp =
      if traced then Spans.with_span ~layer:st.keys.(key).label "client.request" (fun _ -> request ())
      else request ()
    in
    let latency = now () -. t0 in
    match resp with
    | Ok (P.Payload { body; cached }) -> Some { latency; hit = cached; matches = String.equal body (fst cold.(key)) }
    | Ok (P.Refused _) | Error _ -> None
  in
  let t0 = now () in
  let stream = next_stream st in
  let r = Closed_loop.run ~clients:2 ~session:(with_client port) ~send stream in
  let wall = now () -. t0 in
  Serve.Server.stop server;
  rm_rf store;
  counts.attempted <- counts.attempted + Array.length stream;
  counts.failed <- counts.failed + r.Closed_loop.failed;
  List.iter (problem "serve: %s") r.Closed_loop.lost;
  let mismatched = List.length (List.filter (fun s -> not s.matches) r.Closed_loop.samples) in
  if mismatched > 0 then problem "serve: %d served bodies differ from the cold rendering" mismatched;
  (wall, r.Closed_loop.samples)

(* Latencies of the hits or the misses, as an unboxed array, so what the
   harness keeps adds little to the process's heap. *)
let latencies ~hit samples =
  Array.of_list (List.filter_map (fun s -> if s.hit = hit then Some s.latency else None) samples)

(* ------------------------------------------------------------------ *)
(* End-to-end run (--trace 0)                                         *)
(* ------------------------------------------------------------------ *)

let percentile_rows prefix samples ps =
  List.filter_map
    (fun p ->
      Option.map
        (fun (q : Stats.percentile) ->
          m (Printf.sprintf "%s_p%g_ms" prefix p) "ms" ~samples:q.Stats.count (q.Stats.value *. 1e3))
        (Stats.percentile ~p samples))
    ps

(* Set-ups besides the run's own.  A set-up of a few tenths of a second
   varies by a fifth from one process to the next, so [setup_s] is the
   median of five; one of several seconds (the shard journals) varies
   less and would take most of the run, so it is the median of three. *)
let setup_children ~own_setup = if own_setup < 2.0 then 4 else 2

(* Set-up time of a fresh process, measured by a child that only sets
   up; the one-time cost of a process's first library call is part of
   it. *)
let child_setup workload_name seed =
  let args =
    [| Sys.executable_name; "--workload"; workload_name; "--seed"; string_of_int seed; "--setup-only" |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let out = In_channel.input_all ic in
  match (Unix.close_process_in ic, String.split_on_char ' ' (String.trim out)) with
  | Unix.WEXITED 0, [ "setup_s"; v ] -> float_of_string_opt v
  | _ -> None

(* Timed passes until [seconds] have elapsed.  Every operation's output
   is checked against the gate's reference. *)
let timed_passes st ~seconds ~check_layer ~cold =
  let t0 = now () in
  let walls = ref [] and hits = ref [] and misses = ref [] in
  let pass_no = ref 0 in
  while !walls = [] || now () -. t0 < seconds do
    incr pass_no;
    let wall =
      match st with
      | Batch_state st ->
        let p0 = now () in
        List.iter
          (fun layer ->
            let r = batch_op st layer in
            counts.attempted <- counts.attempted + 1;
            if op_failed r then counts.failed <- counts.failed + 1;
            Result.iter (check_layer layer) r)
          st.layers;
        now () -. p0
      | Serve_state st ->
        let wall, samples = serve_pass st (Option.get cold) !pass_no in
        hits := latencies ~hit:true samples :: !hits;
        misses := latencies ~hit:false samples :: !misses;
        wall
    in
    walls := wall :: !walls
  done;
  (List.rev !walls, Array.concat !hits, Array.concat !misses, now () -. t0)

let end_to_end workload_name seed st ~own_setup ~seconds =
  let children = setup_children ~own_setup in
  let setups = own_setup :: List.filter_map (fun _ -> child_setup workload_name seed) (List.init children Fun.id) in
  if List.length setups < 1 + children then problem "a set-up child process failed";
  let check_layer, cold, scores =
    match st with
    | Batch_state b ->
      let refs = batch_gate b in
      let _, _, objective = setting b.kind in
      ( (fun layer (r : O.report) ->
          if bits (Thistle.Integerize.score objective r.O.outcome.Thistle.Integerize.metrics)
             <> snd (List.assoc layer refs)
          then problem "%s: timed run chose a different design than the reference" layer),
        None,
        List.map
          (fun l -> Thistle.Integerize.score objective (fst (List.assoc l refs)).O.outcome.Thistle.Integerize.metrics)
          b.layers )
    | Serve_state s ->
      let cold = serve_gate s in
      ( (fun _ _ -> ()),
        Some cold,
        Array.to_list
          (Array.mapi
             (fun i (_, r) -> Thistle.Integerize.score s.keys.(i).kobjective r.O.outcome.Thistle.Integerize.metrics)
             cold) )
  in
  if !problems <> [] then ([], [])
  else
    let walls, hits, misses, timed = timed_passes st ~seconds ~check_layer ~cold in
    let ok_frac = 1.0 -. Stats.ratio (float_of_int counts.failed) (float_of_int counts.attempted) in
    ( [
        m "setup_s" "s" ~samples:(List.length setups) (Stats.median setups);
        m "wall_s" "s" ~samples:(List.length walls) (Stats.median walls);
        m "ok_frac" "ratio" ~samples:counts.attempted ok_frac;
        m "heap_peak_mb" "MB" (heap_peak_mb ());
        m "design_score_geomean" "score" ~samples:(List.length scores)
          (Option.value (Stats.geomean scores) ~default:nan);
      ],
      (m "fail_frac" "ratio" ~samples:counts.attempted (1.0 -. ok_frac)
       :: m
            (match st with Batch_state _ -> "layers_per_s" | Serve_state _ -> "req_per_s")
            "1/s" ~samples:counts.attempted
            (float_of_int counts.attempted /. timed)
       :: percentile_rows "hit" (Array.to_list hits) [ 50.0; 99.0 ])
      @ percentile_rows "miss" (Array.to_list misses) [ 50.0 ]
      @
      match st with
      | Batch_state _ -> []
      | Serve_state _ ->
        (* The share of the clients' busy time spent waiting on hits. *)
        let busy a = Array.fold_left ( +. ) 0.0 a in
        [
          m "hit_time_frac" "ratio" ~samples:(Array.length hits + Array.length misses)
            (Stats.ratio (busy hits) (busy hits +. busy misses));
        ] )

(* ------------------------------------------------------------------ *)
(* Traced run (--trace 1)                                             *)
(* ------------------------------------------------------------------ *)

(* An untraced pass of the traced run: the library's own entry points,
   with the metrics registry on so the executor's counters are its own. *)
type untraced_pass = {
  u_wall : float;  (** the pass, timed as in the end-to-end run *)
  run_wall : float;  (** time in [Optimize.run] over the same layers *)
  exec_tasks : int;
  queue_wait_s : float;
}

type traced_pass = {
  wall : float;  (** of the part comparable to one untraced pass *)
  spans : Spans.span list;
  replays : Replay.t list;
  extra : (string * float) list;  (** directly timed calls, per call *)
  hit_rate : float;
}

let exec_snapshot () =
  let snap = Obs.Metrics.snapshot () in
  let tasks = match List.assoc_opt "exec.tasks" snap with Some (Obs.Metrics.Counter n) -> n | _ -> 0 in
  let wait =
    match List.assoc_opt "exec.queue_wait_ns" snap with
    | Some (Obs.Metrics.Histogram { sum; _ }) -> sum /. 1e9
    | _ -> 0.0
  in
  (tasks, wait)

(* [f ()] with the metrics registry freshly reset, and the executor's
   task count and summed queue wait over it. *)
let with_exec f =
  Obs.Metrics.reset ();
  let r = f () in
  let tasks, wait = exec_snapshot () in
  (r, tasks, wait)

(* Run [f] with spans freshly reset; [f] returns the wall time of its
   traced counterpart of an untraced pass. *)
let traced f =
  Spans.reset ();
  let wall, replays, extra, hit_rate = f () in
  { wall; spans = Spans.all (); replays; extra; hit_rate }

(* Mean wall time of [f] per call over [reps] calls. *)
let per_call reps f =
  let t0 = now () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (f ()))
  done;
  (now () -. t0) /. float_of_int reps

let check_replay label objective replay report =
  List.iter (fun p -> problem "%s replay: %s" label p) (Replay.mismatches objective replay report)

let batch_traced_pass st reports =
  let tech, arch_mode, objective = setting st.kind in
  traced (fun () ->
      let t0 = now () in
      let replays =
        List.map
          (fun layer ->
            let nest = List.assoc layer st.nests in
            let rconfig =
              match st.kind with
              | Shard_resume ->
                let files = List.assoc layer st.shards in
                let loaded =
                  Spans.with_span ~layer "journal.load" (fun _ ->
                      List.map (fun f -> Result.get_ok (Sweep.Journal.load f)) files)
                in
                let merged =
                  Spans.with_span ~layer "merge.combine" (fun _ -> Result.get_ok (Sweep.Merge.combine loaded))
                in
                Spans.with_span ~layer "journal.write" (fun _ ->
                    Sweep.Journal.write_file (merged_file layer) merged);
                resume_config layer
              | Codesign_energy | Edge_delay -> config
            in
            let r = Replay.run ~layer ~config:rconfig tech arch_mode objective nest in
            check_replay layer objective r (List.assoc layer reports);
            r)
          st.layers
      in
      (now () -. t0, replays, [], 0.0))

let serve_traced_pass st cold pass_no =
  traced (fun () ->
      let wall, samples = serve_pass ~traced:true st cold pass_no in
      let hits = List.length (List.filter (fun s -> s.hit) samples) in
      let reps = 200 in
      let store =
        match Serve.Store.open_ (work_path "store-probe") with
        | Ok s -> s
        | Error m -> failwith ("serve: " ^ m)
      in
      let keyed =
        Array.map
          (fun k ->
            let fp = O.config_fingerprint k.kconfig in
            let rk = O.request_key ~config:k.kconfig k.ktech k.kmode k.kobjective k.knest in
            (fp, rk))
          st.keys
      in
      let nkeys = Array.length st.keys in
      let each f = per_call reps (fun () -> Array.iteri f st.keys) /. float_of_int nkeys in
      let put_us =
        each (fun i _ -> Serve.Store.put store ~config:(fst keyed.(i)) ~request_key:(snd keyed.(i)) (fst cold.(i)))
      in
      let get_us =
        each (fun i _ -> ignore (Serve.Store.get store ~config:(fst keyed.(i)) ~request_key:(snd keyed.(i))))
      in
      rm_rf (work_path "store-probe");
      let codec_us =
        each (fun i k ->
            ignore (P.decode_request (P.encode_request k.req));
            ignore
              (P.decode_response (P.encode_response (P.Payload { body = fst cold.(i); cached = true }))))
      in
      let key_us =
        each (fun _ k -> ignore (O.request_key ~config:k.kconfig k.ktech k.kmode k.kobjective k.knest))
      in
      (* The misses' optimizer runs, replayed stage by stage. *)
      let replays =
        Array.to_list
          (Array.mapi
             (fun i k ->
               let r = Replay.run ~layer:k.label ~config:k.kconfig k.ktech k.kmode k.kobjective k.knest in
               check_replay k.label k.kobjective r (Ok (snd cold.(i)));
               r)
             st.keys)
      in
      ( wall,
        replays,
        [
          ("serve.store_get_us", get_us *. 1e6);
          ("serve.store_put_us", put_us *. 1e6);
          ("serve.codec_us", codec_us *. 1e6);
          ("serve.request_key_us", key_us *. 1e6);
        ],
        Stats.ratio (float_of_int hits) (float_of_int (List.length samples)) ))

(* Per-layer metrics of one traced pass, in the order printed. *)
let layer_metrics (p : traced_pass) ~untraced:(u : untraced_pass) =
  let aggs = Spans.aggregate p.spans in
  let total name = (Spans.find_agg aggs name).Spans.total in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 p.replays in
  let fsum f = float_of_int (sum f) in
  let solves = fsum (fun r -> r.Replay.physical_solves) in
  let newton = fsum (fun r -> r.Replay.physical_newton) in
  let tried = fsum (fun r -> r.Replay.candidates_tried) in
  let pairs = fsum (fun r -> r.Replay.pairs) in
  let stage_metrics =
    List.map
      (fun s -> (s ^ "_s", "s", total s))
      [
        "permutations.enumerate";
        "formulate.build";
        "lint.check";
        "presolve.analyze";
        "optimize.problem_key";
        "gp.solve";
        "certificate.check";
        "integerize.run";
        "select.best";
      ]
  in
  let request = Spans.find_agg aggs "client.request" in
  stage_metrics
  @ [
      ("presolve.pruned_frac", "ratio", Stats.ratio (fsum (fun r -> r.Replay.pruned)) pairs);
      ("gp.solves", "count", solves);
      ("gp.newton_per_solve", "ratio", Stats.ratio newton solves);
      ("gp.backtracks_per_newton", "ratio", Stats.ratio (fsum (fun r -> r.Replay.physical_backtracks)) newton);
      ("gp.us_per_newton", "us", Stats.ratio (total "gp.solve.call" *. 1e6) newton);
      ("gp.infeasible_frac", "ratio", Stats.ratio (fsum (fun r -> r.Replay.physical_infeasible)) solves);
      ("integerize.candidates_tried", "count", tried);
      ("integerize.valid_frac", "ratio", Stats.ratio (fsum (fun r -> r.Replay.candidates_valid)) tried);
      ("integerize.us_per_candidate", "us", Stats.ratio (total "integerize.run.call" *. 1e6) tried);
      ("exec.queue_wait_s", "s", u.queue_wait_s);
      ("exec.tasks", "count", float_of_int u.exec_tasks);
      ("journal.load_s", "s", total "journal.load");
      ("merge.combine_s", "s", total "merge.combine");
      ("journal.write_s", "s", total "journal.write");
      ("journal.replay_frac", "ratio", Stats.ratio (fsum (fun r -> r.Replay.resumed)) pairs);
      ("client.request_ms", "ms", Stats.ratio (request.Spans.total *. 1e3) (float_of_int request.Spans.count));
    ]
  @ List.map (fun (n, v) -> (n, "us", v)) p.extra
  @ [
      ("serve.hit_rate", "ratio", p.hit_rate);
      ("optimize.unattributed_frac", "ratio", Spans.unattributed_frac p.spans ~root:"layer" ~wall:u.run_wall);
      ("trace.overhead_frac", "ratio", (p.wall /. u.u_wall) -. 1.0);
    ]

(* The per-layer metrics reported on the result line: those measured on
   every workload.  The rest (journal, serve and per-Newton timings that
   a workload can bypass entirely) are printed in the table only. *)
let per_layer_keys =
  [
    "permutations.enumerate_s";
    "formulate.build_s";
    "lint.check_s";
    "presolve.analyze_s";
    "presolve.pruned_frac";
    "optimize.problem_key_s";
    "gp.solve_s";
    "gp.solves";
    "gp.newton_per_solve";
    "gp.backtracks_per_newton";
    "gp.infeasible_frac";
    "certificate.check_s";
    "integerize.run_s";
    "integerize.candidates_tried";
    "integerize.valid_frac";
    "integerize.us_per_candidate";
    "select.best_s";
    "exec.queue_wait_s";
    "exec.tasks";
    "journal.replay_frac";
    "serve.hit_rate";
    "optimize.unattributed_frac";
    "trace.overhead_frac";
  ]

let per_layer st ~seconds =
  (* Pair an untraced pass (the library's own entry points) with a traced
     replay pass, alternating which runs first so neither always runs on
     the heap the other left behind.  The replay must reproduce the
     reference reports of the gate.  The metrics registry stays on for
     both, so they do the same bookkeeping. *)
  Obs.Metrics.enable ();
  let alternate untraced traced =
    let it = ref 0 in
    run_for seconds (fun () ->
        incr it;
        if !it mod 2 = 1 then
          let u = untraced () in
          (u, traced ())
        else
          let t = traced () in
          (untraced (), t))
  in
  let pairs =
    match st with
    | Batch_state st ->
      let refs = batch_gate st in
      if !problems <> [] then []
      else
        let _, _, objective = setting st.kind in
        alternate
          (fun () ->
            let run_wall = ref 0.0 in
            let (reports, u_wall), exec_tasks, queue_wait_s =
              with_exec (fun () ->
                  let t0 = now () in
                  let reports = List.map (fun l -> (l, batch_op ~run_wall st l)) st.layers in
                  (reports, now () -. t0))
            in
            List.iter
              (fun (layer, r) ->
                counts.attempted <- counts.attempted + 1;
                if op_failed r then counts.failed <- counts.failed + 1;
                match r with
                | Ok r
                  when bits (Thistle.Integerize.score objective r.O.outcome.Thistle.Integerize.metrics)
                       <> snd (List.assoc layer refs) ->
                  problem "%s: untraced run chose a different design than the reference" layer
                | _ -> ())
              reports;
            { u_wall; run_wall = !run_wall; exec_tasks; queue_wait_s })
          (fun () -> batch_traced_pass st (List.map (fun (l, (r, _)) -> (l, Ok r)) refs))
    | Serve_state st ->
      let cold = serve_gate st in
      if !problems <> [] then []
      else
        let pass_no = ref 0 in
        alternate
          (fun () ->
            incr pass_no;
            let (u_wall, _), exec_tasks, queue_wait_s = with_exec (fun () -> serve_pass st cold !pass_no) in
            (* The daemon's optimizer runs cannot be timed from here, so
               the same runs are timed directly, outside the pass. *)
            let t0 = now () in
            Array.iter (fun k -> ignore (key_run k)) st.keys;
            { u_wall; run_wall = now () -. t0; exec_tasks; queue_wait_s })
          (fun () ->
            incr pass_no;
            serve_traced_pass st cold !pass_no)
  in
  match pairs with
  | [] -> []
  | _ ->
    let per_pass = List.map (fun (u, p) -> layer_metrics p ~untraced:u) pairs in
    let n = List.length per_pass in
    List.map
      (fun (name, unit_, _) ->
        let values = List.map (fun rows -> List.find (fun (n', _, _) -> n' = name) rows) per_pass in
        m name unit_ ~samples:n (Stats.median (List.map (fun (_, _, v) -> v) values)))
      (List.hd per_pass)

(* ------------------------------------------------------------------ *)
(* Output                                                             *)
(* ------------------------------------------------------------------ *)

let json_number v = if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v else Printf.sprintf "%.17g" v

let result_line ~correct metrics =
  let fields =
    List.map
      (fun r -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" r.name (json_number r.value) r.unit_)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    (Int.max 1 counts.attempted) counts.failed (String.concat ", " fields)

(* The full record, in the subset [Obs.Json.parse] reads back: floats as
   strings. *)
let report_json ~workload ~seed ~trace stamp metrics =
  let b = Buffer.create 1024 in
  let open Obs.Json in
  obj b
    [
      (fun b -> field b "workload" (fun b -> str b workload));
      (fun b -> field b "seed" (fun b -> int b seed));
      (fun b -> field b "trace" (fun b -> int b trace));
      (fun b -> field b "stamp" (fun b -> obj b (Stamp.to_json_fields stamp)));
      (fun b ->
        field b "metrics" (fun b ->
            obj b
              (List.map
                 (fun r ->
                   fun b ->
                    field b r.name (fun b ->
                        obj b
                          [
                            (fun b -> field b "value" (fun b -> str b (Printf.sprintf "%.17g" r.value)));
                            (fun b -> field b "unit" (fun b -> str b r.unit_));
                            (fun b -> field b "samples" (fun b -> int b r.samples));
                          ]))
                 metrics)));
    ];
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* compare                                                            *)
(* ------------------------------------------------------------------ *)

let load_reports path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun l ->
         match Obs.Json.parse l with
         | Ok (Obs.Json.Obj f) -> f
         | Ok _ | Error _ -> failwith (path ^ ": not a report line"))

let compare_cmd base_path new_path =
  let base = load_reports base_path and next = load_reports new_path in
  let stamp f =
    match List.assoc_opt "stamp" f with
    | Some v -> (match Stamp.of_json v with Ok s -> s | Error e -> failwith e)
    | None -> failwith "report without a stamp"
  in
  let stamps = List.map stamp (base @ next) in
  let first = List.hd stamps in
  match List.find_map (fun s -> match Stamp.compatible first s with Ok () -> None | Error e -> Some e) stamps with
  | Some reason ->
    Printf.eprintf "refusing to compare: %s\n" reason;
    exit 3
  | None ->
    let values reports =
      List.concat_map
        (fun f ->
          match List.assoc_opt "metrics" f with
          | Some (Obs.Json.Obj ms) ->
            List.filter_map
              (fun (name, v) ->
                match v with
                | Obs.Json.Obj mf -> (
                  match List.assoc_opt "value" mf with
                  | Some (Obs.Json.Str s) -> Option.map (fun x -> (name, x)) (float_of_string_opt s)
                  | _ -> None)
                | _ -> None)
              ms
          | _ -> [])
        reports
    in
    let bv = values base and nv = values next in
    let names = List.sort_uniq compare (List.map fst bv) in
    (* Each side's median with its spread (quartile distance over the
       median): a difference smaller than the spread is not resolved. *)
    let summary l =
      let med = Stats.median l in
      match Stats.quartiles l with
      | Some (q1, _, q3) -> Printf.sprintf "%12.6g %7.3f" med (Stats.ratio (q3 -. q1) med)
      | None -> Printf.sprintf "%12.6g %7s" med "-"
    in
    Printf.printf "%-28s %12s %7s %12s %7s %7s\n" "metric" "base" "spread" "new" "spread" "ratio";
    List.iter
      (fun name ->
        let of_ l = List.filter_map (fun (n, v) -> if n = name then Some v else None) l in
        let b = of_ bv and n = of_ nv in
        Printf.printf "%-28s %s %s %7.3f\n" name (summary b) (summary n)
          (Stats.ratio (Stats.median n) (Stats.median b)))
      names

(* ------------------------------------------------------------------ *)
(* Main                                                               *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: thistle_bench --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]\n\
    \       thistle_bench compare BASE.jsonl NEW.jsonl\n\
     workloads: codesign-energy edge-delay shard-resume serve-mixed";
  exit 2

let () =
  let argv = Array.to_list Sys.argv in
  match List.tl argv with
  | [ "compare"; a; b ] -> compare_cmd a b
  | args ->
    let workload = ref None and seed = ref None and seconds = ref None and trace = ref 0 in
    let out = ref None and setup_only = ref false in
    let rec parse = function
      | "--workload" :: v :: rest -> workload := Some v; parse rest
      | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
      | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; parse rest
      | "--trace" :: v :: rest ->
        (trace := match v with "0" -> 0 | "1" -> 1 | _ -> usage ());
        parse rest
      | "--out" :: v :: rest -> out := Some v; parse rest
      | "--setup-only" :: rest -> setup_only := true; parse rest
      | [] -> ()
      | _ -> usage ()
    in
    parse args;
    let name, workload =
      match !workload with
      | Some n -> (match List.assoc_opt n workloads with Some w -> (n, w) | None -> usage ())
      | None -> usage ()
    in
    let seed = match !seed with Some s -> s | None -> usage () in
    Logs.set_level (Some Logs.Error);
    if !setup_only then begin
      (* a set-up child of a --trace 0 run *)
      ignore (setup workload seed);
      Printf.printf "setup_s %.9f\n" (now () -. t_start)
    end
    else
      let seconds = match !seconds with Some s when s > 0.0 -> s | _ -> usage () in
      let st = setup workload seed in
      let own_setup = now () -. t_start in
      (match st with
      | Batch_state b -> Printf.printf "workload %s seed %d layers %s\n%!" name seed (String.concat "," b.layers)
      | Serve_state s ->
        Printf.printf "workload %s seed %d keys %d stream %d (each key %d times, reshuffled every pass)\n%!" name
          seed (Array.length s.keys) (Array.length s.keys * serve_repeats) serve_repeats);
      let stamp = Stamp.take () in
      Printf.printf "stamp cpus=%d ocaml=%s commit=%s calibration_s=%.6f\n%!" stamp.Stamp.cpus stamp.Stamp.ocaml
        stamp.Stamp.commit stamp.Stamp.calibration_s;
      let metrics, extra =
        if !trace = 0 then end_to_end name seed st ~own_setup ~seconds
        else
          let rows = per_layer st ~seconds in
          ( List.filter (fun r -> List.mem r.name per_layer_keys) rows,
            List.filter (fun r -> not (List.mem r.name per_layer_keys)) rows )
      in
      let correct = !problems = [] && metrics <> [] in
      List.iter (fun p -> Printf.eprintf "FAIL: %s\n" p) (List.rev !problems);
      print_table "metrics" metrics;
      print_table "also measured" extra;
      let report = report_json ~workload:name ~seed ~trace:!trace stamp (metrics @ extra) in
      Printf.printf "report %s\n" report;
      Option.iter
        (fun path ->
          Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644 path (fun oc ->
              output_string oc (report ^ "\n")))
        !out;
      print_endline (result_line ~correct metrics);
      exit (if correct then 0 else 1)
