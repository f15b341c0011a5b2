(* Tests of the benchmark's own helpers: the percentile rule, the
   geomean, quartiles, span self-time and the layer accounting, seeded
   draws, the closed-loop clients' failure counting, and the result
   stamp. *)

let floats = Alcotest.(list (float 0.0))

let span ?parent id name t0 t1 = { Spans.id; parent; name; layer = "l"; t0; t1 }

let test_percentile_rule () =
  let xs n = List.init n (fun i -> float_of_int (n - i)) in
  (match Stats.percentile ~p:50.0 (xs 20) with
  | Some q ->
    Alcotest.(check int) "count is the sample count" 20 q.Stats.count;
    Alcotest.(check (float 0.0)) "nearest rank" 10.0 q.Stats.value
  | None -> Alcotest.fail "p50 of 20 samples has 10 beyond it");
  Alcotest.(check bool) "p50 of 19 samples has only 9 beyond" true
    (Stats.percentile ~p:50.0 (xs 19) = None);
  (match Stats.percentile ~p:99.0 (xs 1000) with
  | Some q -> Alcotest.(check (float 0.0)) "p99 of 1..1000" 990.0 q.Stats.value
  | None -> Alcotest.fail "p99 of 1000 samples has 10 beyond it");
  Alcotest.(check bool) "p99 of 999 samples is refused" true (Stats.percentile ~p:99.0 (xs 999) = None);
  Alcotest.(check bool) "empty" true (Stats.percentile ~p:50.0 [] = None)

let test_geomean () =
  (match Stats.geomean [ 1.0; 100.0 ] with
  | Some g -> Alcotest.(check (float 1e-12)) "geomean 1,100" 10.0 g
  | None -> Alcotest.fail "defined");
  let xs = [ 3.7e9; 1.25e8; 4.4e6; 912.5 ] in
  Alcotest.(check bool) "bit-identical on repeat" true
    (Option.map Int64.bits_of_float (Stats.geomean xs)
    = Option.map Int64.bits_of_float (Stats.geomean (List.map Fun.id xs)));
  Alcotest.(check bool) "empty" true (Stats.geomean [] = None);
  Alcotest.(check bool) "zero" true (Stats.geomean [ 1.0; 0.0 ] = None);
  Alcotest.(check bool) "nan" true (Stats.geomean [ 1.0; nan ] = None)

let test_quartiles () =
  let q xs = match Stats.quartiles xs with Some (a, b, c) -> [ a; b; c ] | None -> [] in
  (* Values from Python's statistics.quantiles(xs, n=4). *)
  Alcotest.check floats "1..10" [ 2.75; 5.5; 8.25 ] (q (List.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check floats "two" [ 0.5; 2.0; 3.5 ] (q [ 3.0; 1.0 ]);
  Alcotest.check floats "three" [ 1.0; 4.0; 5.0 ] (q [ 5.0; 1.0; 4.0 ]);
  Alcotest.check floats "median even" [ 2.5 ] [ Stats.median [ 4.0; 1.0; 3.0; 2.0 ] ]

let test_self_time () =
  let parent = span 1 "p" 0.0 10.0 in
  let spans =
    [
      parent;
      (* two overlapping children, as from two domains *)
      span ~parent:1 2 "c" 1.0 3.0;
      span ~parent:1 3 "c" 2.0 5.0;
      (* a child running past its parent's end is clipped *)
      span ~parent:1 4 "c" 8.0 12.0;
      (* a grandchild does not count against the parent *)
      span ~parent:2 5 "g" 1.0 2.0;
    ]
  in
  Alcotest.(check (float 1e-12)) "10 - |[1,5] u [8,10]|" 4.0 (Spans.self_time spans parent);
  Alcotest.(check (float 1e-12)) "leaf self time is its duration" 3.0
    (Spans.self_time spans (span ~parent:1 3 "c" 2.0 5.0))

let test_layer_accounting () =
  let spans =
    [
      span 1 "layer" 0.0 10.0;
      span ~parent:1 2 "formulate.build" 0.0 4.0;
      span ~parent:2 3 "formulate.build.call" 0.5 3.5;
      span ~parent:1 4 "gp.solve" 4.0 9.0;
      span ~parent:4 5 "gp.solve.call" 4.0 9.0;
      span ~parent:4 6 "gp.solve.call" 4.0 8.0;
      span 7 "layer" 20.0 30.0;
      span ~parent:7 8 "gp.solve" 20.0 30.0;
    ]
  in
  let aggs = Spans.aggregate spans in
  let a name = Spans.find_agg aggs name in
  Alcotest.(check int) "two layers" 2 (a "layer").Spans.count;
  Alcotest.(check (float 1e-12)) "stage wall summed over layers" 15.0 (a "gp.solve").Spans.total;
  Alcotest.(check (float 1e-12)) "busy time of concurrent calls" 9.0 (a "gp.solve.call").Spans.total;
  Alcotest.(check (float 1e-12)) "layer self time is what no stage covers" 1.0 (a "layer").Spans.self;
  (* stage totals plus the layer's own time account for the layer span *)
  Alcotest.(check (float 1e-12)) "accounting" (a "layer").Spans.total
    ((a "formulate.build").Spans.total +. (a "gp.solve").Spans.total +. (a "layer").Spans.self);
  (* the stages cover 19 of the replayed runs' 20 or 38 seconds *)
  Alcotest.(check (float 1e-12)) "unattributed share" (1.0 /. 20.0)
    (Spans.unattributed_frac spans ~root:"layer" ~wall:20.0);
  Alcotest.(check (float 1e-12)) "optimizer time outside the stages" 0.5
    (Spans.unattributed_frac spans ~root:"layer" ~wall:38.0);
  Alcotest.(check (float 1e-12)) "absent name" 0.0 (a "missing").Spans.total

let test_recorder () =
  Spans.reset ();
  let r =
    Spans.with_span ~layer:"x" "outer" (fun id ->
        Spans.with_span ~parent:id ~layer:"x" "inner" (fun _ -> 42))
  in
  Alcotest.(check int) "result passes through" 42 r;
  (match Spans.all () with
  | [ inner; outer ] ->
    Alcotest.(check string) "inner first (ends first)" "inner" inner.Spans.name;
    Alcotest.(check bool) "parent link" true (inner.Spans.parent = Some outer.Spans.id);
    Alcotest.(check bool) "nested interval" true
      (outer.Spans.t0 <= inner.Spans.t0 && inner.Spans.t1 <= outer.Spans.t1)
  | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l));
  (try Spans.with_span ~layer:"x" "raises" (fun _ -> failwith "boom") with Failure _ -> ());
  Alcotest.(check int) "a raising span is still recorded" 3 (List.length (Spans.all ()));
  Spans.reset ()

let test_draw () =
  let names = List.init 23 (fun i -> Printf.sprintf "layer-%d" i) in
  let a = Draw.shuffle (Draw.make 7) names and b = Draw.shuffle (Draw.make 7) names in
  Alcotest.(check (list string)) "same seed, same draw" a b;
  Alcotest.(check (list string)) "a permutation" (List.sort compare names) (List.sort compare a);
  Alcotest.(check bool) "another seed, another draw" true (a <> Draw.shuffle (Draw.make 8) names);
  let stream s = Draw.shuffle (Draw.make s) (List.concat_map (fun k -> [ k; k; k ]) [ 0; 1; 2; 3 ]) in
  Alcotest.(check (list int)) "request stream is seeded" (stream 3) (stream 3);
  Alcotest.(check (list int)) "every key as often" [ 0; 0; 0; 1; 1; 1; 2; 2; 2; 3; 3; 3 ]
    (List.sort compare (stream 3));
  let g = Draw.make 1 in
  Alcotest.(check bool) "floats in [0, 1)" true
    (List.for_all (fun x -> x >= 0.0 && x < 1.0) (List.init 1000 (fun _ -> Draw.float g)))

(* A port on which nothing listens. *)
let closed_port () =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port = match Unix.getsockname sock with Unix.ADDR_INET (_, p) -> p | _ -> assert false in
  Unix.close sock;
  port

let test_closed_loop () =
  let items = Array.init 10 Fun.id in
  let fake f = f () in
  let all = Closed_loop.run ~clients:2 ~session:fake ~send:(fun () i -> Some i) items in
  Alcotest.(check (list int)) "each client's share, in order" [ 0; 2; 4; 6; 8; 1; 3; 5; 7; 9 ]
    all.Closed_loop.samples;
  Alcotest.(check int) "none failed" 0 all.Closed_loop.failed;
  let refused = Closed_loop.run ~clients:2 ~session:fake ~send:(fun () i -> if i = 4 then None else Some i) items in
  Alcotest.(check int) "a refused request fails" 1 refused.Closed_loop.failed;
  Alcotest.(check (list string)) "and loses no client" [] refused.Closed_loop.lost;
  (* client 1 sends 1 and 3, then its connection drops at 5 *)
  let dropped =
    Closed_loop.run ~clients:2 ~session:fake ~send:(fun () i -> if i = 5 then failwith "reset" else Some i) items
  in
  Alcotest.(check int) "a dropped client's unsent share fails" 3 dropped.Closed_loop.failed;
  Alcotest.(check int) "one client lost" 1 (List.length dropped.Closed_loop.lost);
  let port = closed_port () in
  let session f =
    match Serve.Client.connect (Serve.Client.tcp_addr port) with
    | Error m -> failwith m
    | Ok c -> Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () -> f c)
  in
  let unreachable =
    Closed_loop.run ~clients:2 ~session ~send:(fun c _ -> Result.to_option (Serve.Client.request c Serve.Protocol.Metrics)) items
  in
  Alcotest.(check int) "nothing served on a closed port" 0 (List.length unreachable.Closed_loop.samples);
  Alcotest.(check int) "every request failed" 10 unreachable.Closed_loop.failed;
  Alcotest.(check int) "both clients lost" 2 (List.length unreachable.Closed_loop.lost)

let test_stamp () =
  let s = { Stamp.cpus = 2; ocaml = "5.1.1"; commit = "abc"; calibration_s = 0.020 } in
  Alcotest.(check bool) "same machine" true (Stamp.compatible s { s with Stamp.commit = "def" } = Ok ());
  Alcotest.(check bool) "cpus differ" true (Result.is_error (Stamp.compatible s { s with Stamp.cpus = 4 }));
  Alcotest.(check bool) "ocaml differs" true
    (Result.is_error (Stamp.compatible s { s with Stamp.ocaml = "5.2.0" }));
  Alcotest.(check bool) "small calibration drift" true
    (Stamp.compatible s { s with Stamp.calibration_s = 0.021 } = Ok ());
  Alcotest.(check bool) "machine change" true
    (Result.is_error (Stamp.compatible s { s with Stamp.calibration_s = 0.029 }));
  let b = Buffer.create 64 in
  Obs.Json.obj b (Stamp.to_json_fields s);
  match Obs.Json.parse (Buffer.contents b) with
  | Error e -> Alcotest.fail e
  | Ok v -> Alcotest.(check bool) "round trip" true (Stamp.of_json v = Ok s)

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "percentile rule" `Quick test_percentile_rule;
          Alcotest.test_case "geomean" `Quick test_geomean;
          Alcotest.test_case "quartiles" `Quick test_quartiles;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "layer accounting" `Quick test_layer_accounting;
          Alcotest.test_case "recorder" `Quick test_recorder;
        ] );
      ("draw", [ Alcotest.test_case "seeded" `Quick test_draw ]);
      ("closed loop", [ Alcotest.test_case "failures counted" `Quick test_closed_loop ]);
      ("stamp", [ Alcotest.test_case "compatibility" `Quick test_stamp ]);
    ]
