module Nest = Workload.Nest
module Level = Mapspace.Level
module M = Symexpr.Monomial
module P = Symexpr.Posynomial
module FP = Symexpr.Footprint
module AD = Symexpr.Affine_dim

type volume = { prefix : M.t; body : FP.t }

let volume_posynomial v = P.mul_monomial v.prefix (FP.to_posynomial v.body)

let volume_eval_exact env v = M.eval env v.prefix *. FP.eval_exact env v.body

type tensor_volumes = {
  tensor : string;
  read_write : bool;
  register_footprint : FP.t;
  sram_footprint : FP.t;
  sram_to_reg : volume;
  dram_to_sram : volume;
}

type t = {
  nest : Nest.t;
  pe_perm : string list;
  dram_perm : string list;
  per_tensor : tensor_volumes list;
}

let base_var dim = M.var (Level.trip_var ~level:Level.register_level ~dim)

let register_tile_footprint tensor =
  let dim_of_projection proj =
    let terms = List.map (fun { Nest.stride; iter } -> (stride, base_var iter)) proj in
    let strides = List.fold_left (fun a { Nest.stride; _ } -> a + stride) 0 proj in
    AD.make terms (1 - strides)
  in
  FP.make (List.map dim_of_projection tensor.Nest.projections)

(* [replace c -> c_level * c] for one dim: every extent monomial of the
   dim is a product of that dim's per-level trip variables, so extending
   through the always-present level-0 variable extends the whole extent. *)
let extend_dim ~level dim fp =
  let t0 = Level.trip_var ~level:Level.register_level ~dim in
  let tl = Level.trip_var ~level ~dim in
  FP.subst t0 (M.mul (M.var t0) (M.var tl)) fp

let construct ~level ~perm ~tensor df_lower =
  let present dim = Nest.tensor_mentions tensor dim in
  let step (df, dv_body, dv_prefix, can_hoist) it =
    let trip = M.var (Level.trip_var ~level ~dim:it) in
    if can_hoist then
      if present it then
        (* Innermost present iterator: fold the sliding-window union into
           both footprint and volume; hoisting stops here. *)
        (extend_dim ~level it df, extend_dim ~level it dv_body, dv_prefix, false)
      else (df, dv_body, dv_prefix, true)
    else if present it then
      (extend_dim ~level it df, dv_body, M.mul dv_prefix trip, false)
    else (df, dv_body, M.mul dv_prefix trip, false)
  in
  let df, body, prefix, _ =
    List.fold_left step (df_lower, df_lower, M.one, true) (List.rev perm)
  in
  (df, { prefix; body })

let check_perm nest what perm =
  let dims = Nest.dim_names nest in
  let rec distinct = function
    | [] -> true
    | d :: rest -> (not (List.mem d rest)) && distinct rest
  in
  if not (distinct perm) then
    invalid_arg (Printf.sprintf "Volume.analyze: duplicate dim in %s" what);
  List.iter
    (fun d ->
      if not (List.mem d dims) then
        invalid_arg (Printf.sprintf "Volume.analyze: %s mentions undeclared dim %S" what d))
    perm

(* Per tensor, everything [analyze] derives before the DRAM level:
   [(tensor, df0, df2, sram_to_reg)]. *)
type pe_half = {
  h_nest : Nest.t;
  h_perm : string list;
  h_tensors : (Nest.tensor * FP.t * FP.t * volume) list;
}

let analyze_pe nest ~pe_perm =
  check_perm nest "pe_perm" pe_perm;
  let all_dims = Nest.dim_names nest in
  let analyze_tensor tensor =
    let df0 = register_tile_footprint tensor in
    let df1, fill1 =
      construct ~level:Level.pe_temporal_level ~perm:pe_perm ~tensor df0
    in
    (* Spatial level: every dim may be parallelized; present dims extend
       the SRAM-resident footprint. *)
    let df2 =
      List.fold_left
        (fun fp dim -> extend_dim ~level:Level.spatial_level dim fp)
        df1 all_dims
    in
    (* SRAM->register fills replay for present spatial dims (absent dims
       multicast) and for every DRAM-level trip count. *)
    let sram_to_reg =
      let spatial_mult =
        List.fold_left
          (fun acc dim ->
            if Nest.tensor_mentions tensor dim then
              M.mul acc (M.var (Level.trip_var ~level:Level.spatial_level ~dim))
            else acc)
          M.one all_dims
      in
      let dram_mult =
        List.fold_left
          (fun acc dim ->
            M.mul acc (M.var (Level.trip_var ~level:Level.dram_temporal_level ~dim)))
          M.one all_dims
      in
      { fill1 with prefix = M.mul fill1.prefix (M.mul spatial_mult dram_mult) }
    in
    (tensor, df0, df2, sram_to_reg)
  in
  { h_nest = nest; h_perm = pe_perm; h_tensors = List.map analyze_tensor (Nest.tensors nest) }

let analyze_dram pe ~dram_perm =
  check_perm pe.h_nest "dram_perm" dram_perm;
  let analyze_tensor (tensor, df0, df2, sram_to_reg) =
    let _df3, dram_to_sram =
      construct ~level:Level.dram_temporal_level ~perm:dram_perm ~tensor df2
    in
    {
      tensor = tensor.Nest.tensor_name;
      read_write = tensor.Nest.read_write;
      register_footprint = df0;
      sram_footprint = df2;
      sram_to_reg;
      dram_to_sram;
    }
  in
  {
    nest = pe.h_nest;
    pe_perm = pe.h_perm;
    dram_perm;
    per_tensor = List.map analyze_tensor pe.h_tensors;
  }

let analyze nest ~pe_perm ~dram_perm = analyze_dram (analyze_pe nest ~pe_perm) ~dram_perm

(* ------------------------------------------------------------------ *)
(* Arbitrary level structures                                         *)
(* ------------------------------------------------------------------ *)

type level_spec = Temporal of string list | Spatial

type boundary = { level : int; footprint : FP.t; fill : volume }

type general = {
  g_nest : Nest.t;
  g_levels : level_spec list;
  g_tensors : (string * bool * boundary list) list;
}

let analyze_general nest ~levels =
  (match levels with
  | Temporal _ :: _ -> ()
  | Spatial :: _ | [] ->
    invalid_arg "Volume.analyze_general: level 0 must be temporal");
  List.iteri
    (fun i spec ->
      match spec with
      | Temporal perm -> check_perm nest (Printf.sprintf "level %d" i) perm
      | Spatial -> ())
    levels;
  let all_dims = Nest.dim_names nest in
  let specs = Array.of_list levels in
  let nlevels = Array.length specs in
  (* Trip counts of every level outer than [l] multiply a fill volume;
     spatial levels only through dims present in the tensor. *)
  let outer_multiplier tensor ~level =
    let acc = ref M.one in
    for l = level + 1 to nlevels - 1 do
      let dims =
        match specs.(l) with
        | Temporal _ -> all_dims
        | Spatial -> List.filter (Nest.tensor_mentions tensor) all_dims
      in
      List.iter
        (fun dim -> acc := M.mul !acc (M.var (Level.trip_var ~level:l ~dim)))
        dims
    done;
    !acc
  in
  let analyze_tensor tensor =
    let df = ref (register_tile_footprint tensor) in
    let boundaries = ref [] in
    for l = 1 to nlevels - 1 do
      match specs.(l) with
      | Spatial ->
        df := List.fold_left (fun fp dim -> extend_dim ~level:l dim fp) !df all_dims
      | Temporal perm ->
        let footprint = !df in
        let df_l, fill0 = construct ~level:l ~perm ~tensor !df in
        df := df_l;
        let fill =
          { fill0 with prefix = M.mul fill0.prefix (outer_multiplier tensor ~level:l) }
        in
        boundaries := { level = l; footprint; fill } :: !boundaries
    done;
    (tensor.Nest.tensor_name, tensor.Nest.read_write, List.rev !boundaries)
  in
  { g_nest = nest; g_levels = levels; g_tensors = List.map analyze_tensor (Nest.tensors nest) }

let volume_string v = P.to_string (volume_posynomial v)

let tensor_key name sram_to_reg = name ^ ":" ^ volume_string sram_to_reg

let sram_to_reg_keys pe =
  List.map
    (fun (tensor, _, _, sram_to_reg) -> tensor_key tensor.Nest.tensor_name sram_to_reg)
    pe.h_tensors

let fingerprint_with ~sram_to_reg_keys t =
  String.concat "|"
    (List.map2
       (fun key tv -> key ^ ";" ^ volume_string tv.dram_to_sram)
       sram_to_reg_keys t.per_tensor)

let fingerprint t =
  fingerprint_with
    ~sram_to_reg_keys:
      (List.map (fun tv -> tensor_key tv.tensor tv.sram_to_reg) t.per_tensor)
    t
