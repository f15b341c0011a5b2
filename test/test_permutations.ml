(* Tests for permutation enumeration and the paper's pruning rules. *)

module Perm = Thistle.Permutations
module Nest = Workload.Nest

let test_stencil_detection () =
  let conv = Workload.Conv.to_nest (Workload.Conv.make ~name:"c" ~k:8 ~c:8 ~hw:16 ~rs:3 ()) in
  Alcotest.(check (list string)) "conv windows" [ "r"; "s" ] (Perm.stencil_dims conv);
  let mm = Workload.Matmul.nest ~ni:8 ~nj:8 ~nk:8 () in
  Alcotest.(check (list string)) "matmul has none" [] (Perm.stencil_dims mm)

let test_symmetry_detection () =
  let conv = Workload.Conv.to_nest (Workload.Conv.make ~name:"c" ~k:8 ~c:8 ~hw:16 ~rs:3 ()) in
  let syms = Perm.default_symmetries conv in
  Alcotest.(check bool)
    "h<->w with r<->s detected" true
    (List.exists
       (fun swaps -> List.sort compare swaps = [ ("h", "w"); ("r", "s") ])
       syms);
  (* k and c have equal extents here, but swapping them changes the nest. *)
  Alcotest.(check bool)
    "no spurious c<->k" true
    (not (List.exists (fun swaps -> List.mem ("c", "k") swaps) syms))

let test_pinning () =
  let conv = Workload.Conv.to_nest (Workload.Conv.make ~name:"c" ~k:8 ~c:8 ~hw:16 ~rs:3 ()) in
  let plan = Perm.enumerate conv in
  Alcotest.(check (list string)) "tileable" [ "k"; "c"; "h"; "w" ] plan.Perm.tileable;
  (* Window dims pinned to the register level in full. *)
  Alcotest.(check (option (float 0.0))) "t0.r = 3" (Some 3.0) (Perm.pinned_env plan "t0.r");
  Alcotest.(check (option (float 0.0))) "t1.r = 1" (Some 1.0) (Perm.pinned_env plan "t1.r");
  Alcotest.(check (option (float 0.0))) "t3.s = 1" (Some 1.0) (Perm.pinned_env plan "t3.s");
  (* Batch dim n has extent 1: pinned everywhere. *)
  Alcotest.(check (option (float 0.0))) "t0.n = 1" (Some 1.0) (Perm.pinned_env plan "t0.n");
  Alcotest.(check (option (float 0.0))) "free vars absent" None (Perm.pinned_env plan "t0.k")

let test_pruning_counts () =
  let conv = Workload.Conv.to_nest (Workload.Conv.make ~name:"c" ~k:8 ~c:8 ~hw:16 ~rs:3 ()) in
  let plan = Perm.enumerate conv in
  let kept = List.length plan.Perm.choices in
  Alcotest.(check int) "raw = (4!)^2" 576 plan.Perm.raw_count;
  Alcotest.(check bool)
    (Printf.sprintf "pruning is substantial (kept %d)" kept)
    true
    (kept > 0 && kept < 100);
  (* Choices are unique by fingerprint. *)
  let fingerprints =
    List.map (fun (_, v) -> Thistle.Volume.fingerprint v) plan.Perm.choices
  in
  Alcotest.(check int)
    "unique fingerprints" kept
    (List.length (List.sort_uniq String.compare fingerprints))

let test_untiled_override () =
  let conv = Workload.Conv.to_nest (Workload.Conv.make ~name:"c" ~k:8 ~c:8 ~hw:16 ~rs:3 ()) in
  let plan = Perm.enumerate ~untiled:[ "r"; "s"; "c" ] conv in
  Alcotest.(check (list string)) "tileable" [ "k"; "h"; "w" ] plan.Perm.tileable;
  (* Overridden untiled dim also lives at the register level. *)
  Alcotest.(check (option (float 0.0))) "t0.c = 8" (Some 8.0) (Perm.pinned_env plan "t0.c")

let test_max_choices () =
  let conv = Workload.Conv.to_nest (Workload.Conv.make ~name:"c" ~k:8 ~c:8 ~hw:16 ~rs:3 ()) in
  let plan = Perm.enumerate ~max_choices:5 conv in
  Alcotest.(check int) "capped" 5 (List.length plan.Perm.choices)

let test_matmul_enumeration () =
  let mm = Workload.Matmul.nest ~ni:16 ~nj:16 ~nk:16 () in
  let plan = Perm.enumerate mm in
  Alcotest.(check int) "raw = (3!)^2" 36 plan.Perm.raw_count;
  Alcotest.(check bool)
    "choices dedup" true
    (List.length plan.Perm.choices < 36 && List.length plan.Perm.choices > 0);
  (* All perms mention exactly the tileable dims. *)
  List.iter
    (fun (c, _) ->
      Alcotest.(check (list string))
        "pe perm dims" [ "i"; "j"; "k" ]
        (List.sort String.compare c.Perm.pe_perm))
    plan.Perm.choices

(* Reference for [Perm.enumerate]'s choice loop without its per-[pe_perm]
   memo: [Volume.analyze] and [Volume.fingerprint] on every pair and
   every symmetric twin. *)
let reference_choices ?(max_choices = max_int) nest tileable =
  let rec permutations = function
    | [] -> [ [] ]
    | xs ->
      List.concat_map
        (fun x -> List.map (fun p -> x :: p) (permutations (List.filter (( <> ) x) xs)))
        xs
  in
  let swap swaps d =
    match List.find_opt (fun (a, b) -> a = d || b = d) swaps with
    | Some (a, b) -> if a = d then b else a
    | None -> d
  in
  let analyze pe_perm dram_perm = Thistle.Volume.analyze nest ~pe_perm ~dram_perm in
  let perms = permutations tileable in
  let seen = Hashtbl.create 1024 in
  let choices = ref [] in
  List.iter
    (fun pe_perm ->
      List.iter
        (fun dram_perm ->
          if List.length !choices < max_choices then begin
            let vol = analyze pe_perm dram_perm in
            let fp = Thistle.Volume.fingerprint vol in
            if not (Hashtbl.mem seen fp) then begin
              Hashtbl.replace seen fp ();
              List.iter
                (fun swaps ->
                  let twin =
                    analyze (List.map (swap swaps) pe_perm) (List.map (swap swaps) dram_perm)
                  in
                  Hashtbl.replace seen (Thistle.Volume.fingerprint twin) ())
                (Perm.default_symmetries nest);
              choices := ((pe_perm, dram_perm), vol, fp) :: !choices
            end
          end)
        perms)
    perms;
  (List.length perms * List.length perms, List.rev !choices)

let test_memo_matches_reference () =
  List.iter
    (fun layer ->
      let nest = Workload.Conv.to_nest layer in
      List.iter
        (fun max_choices ->
          let what =
            Printf.sprintf "%s max_choices %s" layer.Workload.Conv.layer_name
              (match max_choices with Some m -> string_of_int m | None -> "none")
          in
          let plan = Perm.enumerate ?max_choices nest in
          let raw, expected = reference_choices ?max_choices nest plan.Perm.tileable in
          Alcotest.(check int) (what ^ ": raw count") raw plan.Perm.raw_count;
          Alcotest.(check int)
            (what ^ ": choice count") (List.length expected)
            (List.length plan.Perm.choices);
          List.iter2
            (fun ((pe_perm, dram_perm), vol, fp) (c, v) ->
              Alcotest.(check (list string)) (what ^ ": pe perm") pe_perm c.Perm.pe_perm;
              Alcotest.(check (list string)) (what ^ ": dram perm") dram_perm c.Perm.dram_perm;
              Alcotest.(check bool) (what ^ ": volumes") true (vol = v);
              Alcotest.(check string) (what ^ ": fingerprint") fp (Thistle.Volume.fingerprint v))
            expected plan.Perm.choices)
        [ None; Some 5 ])
    Workload.Zoo.all_layers

let () =
  Alcotest.run "permutations"
    [
      ( "pruning",
        [
          Alcotest.test_case "stencil detection" `Quick test_stencil_detection;
          Alcotest.test_case "symmetry detection" `Quick test_symmetry_detection;
          Alcotest.test_case "pinning" `Quick test_pinning;
          Alcotest.test_case "pruned counts" `Quick test_pruning_counts;
          Alcotest.test_case "untiled override" `Quick test_untiled_override;
          Alcotest.test_case "max choices" `Quick test_max_choices;
          Alcotest.test_case "matmul enumeration" `Quick test_matmul_enumeration;
          Alcotest.test_case "memo matches reference" `Quick test_memo_matches_reference;
        ] );
    ]
