module Nest = Workload.Nest
module Level = Mapspace.Level

type choice = { pe_perm : string list; dram_perm : string list }

type plan = {
  nest : Nest.t;
  tileable : string list;
  pinned : (string * float) list;
  placements : (string * float) list list;
  choices : (choice * Volume.t) list;
  raw_count : int;
}

let stencil_dims nest =
  let window_of_projection proj =
    match proj with
    | [ _ ] | [] -> None
    | _ ->
      (* The window dim of a halo projection is the one with the smallest
         extent (ties keep the later iterator, matching r/s of conv). *)
      let smallest =
        List.fold_left
          (fun acc { Nest.iter; _ } ->
            match acc with
            | None -> Some iter
            | Some best ->
              if Nest.extent nest iter <= Nest.extent nest best then Some iter else acc)
          None proj
      in
      smallest
  in
  List.concat_map
    (fun t -> List.filter_map window_of_projection t.Nest.projections)
    (Nest.tensors nest)
  |> List.sort_uniq String.compare

(* Apply a simultaneous dim renaming to the nest's structure and check it
   is invariant (up to reordering of terms inside projections). *)
let default_symmetries nest =
  let dims = Nest.dim_names nest in
  let swap_name swaps d =
    let rec find = function
      | [] -> d
      | (a, b) :: rest ->
        if String.equal d a then b else if String.equal d b then a else find rest
    in
    find swaps
  in
  let canonical_tensor swaps t =
    let proj_key proj =
      List.sort compare
        (List.map (fun { Nest.stride; iter } -> (stride, swap_name swaps iter)) proj)
    in
    (* Projection order does not affect footprints or volumes, so compare
       projections as a multiset. *)
    (t.Nest.tensor_name, t.Nest.read_write, List.sort compare (List.map proj_key t.Nest.projections))
  in
  let nest_key swaps =
    ( List.sort compare
        (List.map (fun d -> (swap_name swaps d.Nest.dim_name, d.Nest.extent)) (Nest.dims nest)),
      List.map (canonical_tensor swaps) (Nest.tensors nest) )
  in
  let identity = nest_key [] in
  let invariant swaps = nest_key swaps = identity in
  (* Candidate swap sets: single same-extent pairs and unions of two
     disjoint same-extent pairs — enough for the conv h/w-r/s symmetry. *)
  let pairs =
    List.concat_map
      (fun a ->
        List.filter_map
          (fun b ->
            if String.compare a b < 0 && Nest.extent nest a = Nest.extent nest b then
              Some (a, b)
            else None)
          dims)
      dims
  in
  let singles = List.map (fun p -> [ p ]) pairs in
  let doubles =
    List.concat_map
      (fun ((a1, b1) as p1) ->
        List.filter_map
          (fun ((a2, b2) as p2) ->
            if
              compare p1 p2 < 0
              && List.length (List.sort_uniq String.compare [ a1; b1; a2; b2 ]) = 4
            then Some [ p1; p2 ]
            else None)
          pairs)
      pairs
  in
  List.filter invariant (singles @ doubles)

let rec permutations = function
  | [] -> [ [] ]
  | xs ->
    List.concat_map
      (fun x ->
        let rest = List.filter (fun y -> not (String.equal x y)) xs in
        List.map (fun p -> x :: p) (permutations rest))
      xs

let enumerate ?untiled ?symmetries ?(max_choices = max_int) nest =
  let untiled =
    match untiled with Some u -> u | None -> stencil_dims nest
  in
  let symmetries =
    match symmetries with Some s -> s | None -> default_symmetries nest
  in
  let dims = Nest.dim_names nest in
  let tileable =
    List.filter
      (fun d -> Nest.extent nest d > 1 && not (List.mem d untiled))
      dims
  in
  let window_dims =
    List.filter (fun d -> List.mem d untiled && Nest.extent nest d > 1) dims
  in
  (* A pinned assignment for one non-tileable dim: its full extent at
     [home], 1 everywhere else. *)
  let pin_dim d home =
    List.map
      (fun level ->
        let v = if level = home then float_of_int (Nest.extent nest d) else 1.0 in
        (Level.trip_var ~level ~dim:d, v))
      [ 0; 1; 2; 3 ]
  in
  let unit_pinned =
    List.concat_map
      (fun d ->
        if List.mem d tileable || List.mem d window_dims then []
        else pin_dim d Level.register_level)
      dims
  in
  (* Window dims are never split, but their whole extent can sit either
     in the register file (temporal, e.g. a weight row per PE) or across
     the PE array (spatial, as in Eyeriss's row-stationary dataflow). *)
  let placements =
    List.fold_left
      (fun acc d ->
        List.concat_map
          (fun assignment ->
            List.map
              (fun home -> assignment @ pin_dim d home)
              [ Level.register_level; Level.spatial_level ])
          acc)
      [ unit_pinned ] window_dims
  in
  let pinned = List.hd placements in
  let perms = permutations tileable in
  let swap_choice swaps c =
    let swap_name d =
      let rec find = function
        | [] -> d
        | (a, b) :: rest ->
          if String.equal d a then b else if String.equal d b then a else find rest
      in
      find swaps
    in
    {
      pe_perm = List.map swap_name c.pe_perm;
      dram_perm = List.map swap_name c.dram_perm;
    }
  in
  (* The PE half of the analysis, and its part of the fingerprint, depend
     only on [pe_perm]: compute them once per permutation, for the pairs
     and their symmetric twins alike. *)
  let pe_halves = Hashtbl.create 64 in
  let analyze c =
    let pe, keys =
      match Hashtbl.find_opt pe_halves c.pe_perm with
      | Some half -> half
      | None ->
        let pe = Volume.analyze_pe nest ~pe_perm:c.pe_perm in
        let half = (pe, Volume.sram_to_reg_keys pe) in
        Hashtbl.replace pe_halves c.pe_perm half;
        half
    in
    let vol = Volume.analyze_dram pe ~dram_perm:c.dram_perm in
    (vol, Volume.fingerprint_with ~sram_to_reg_keys:keys vol)
  in
  let seen = Hashtbl.create 1024 in
  let raw_count = List.length perms * List.length perms in
  let choices = ref [] in
  let kept = ref 0 in
  List.iter
    (fun pe_perm ->
      List.iter
        (fun dram_perm ->
          if !kept < max_choices then begin
            let c = { pe_perm; dram_perm } in
            let vol, fp = analyze c in
            if not (Hashtbl.mem seen fp) then begin
              Hashtbl.replace seen fp ();
              (* Mark every symmetric twin as seen so it is pruned when
                 the enumeration reaches it. *)
              List.iter
                (fun swaps -> Hashtbl.replace seen (snd (analyze (swap_choice swaps c))) ())
                symmetries;
              choices := (c, vol) :: !choices;
              incr kept
            end
          end)
        perms)
    perms;
  { nest; tileable; pinned; placements; choices = List.rev !choices; raw_count }

let pinned_env plan var = List.assoc_opt var plan.pinned
