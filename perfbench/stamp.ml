(* Provenance stamp attached to every result: two results are comparable
   only when they were measured on the same kind of machine with the same
   toolchain.  The commit is recorded for the reader; it is expected to
   differ between the two sides of a comparison. *)

type t = {
  cpus : int;
  ocaml : string;
  commit : string;
  calibration_s : float;  (** median time of a fixed compute loop *)
}

(* The commit of the enclosing git checkout, read from [.git] directly
   (no subprocess); "none" outside a git checkout. *)
let commit () =
  let read path =
    match open_in path with
    | exception Sys_error _ -> None
    | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> try Some (String.trim (input_line ic)) with End_of_file -> None)
  in
  match read ".git/HEAD" with
  | None -> "none"
  | Some head ->
    let prefix = "ref: " in
    let pl = String.length prefix in
    if String.length head > pl && String.sub head 0 pl = prefix then
      let r = String.sub head pl (String.length head - pl) in
      match read (Filename.concat ".git" r) with
      | Some c -> c
      | None -> (
        match open_in ".git/packed-refs" with
        | exception Sys_error _ -> "none"
        | ic ->
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () ->
              let rec scan () =
                match input_line ic with
                | exception End_of_file -> "none"
                | line -> (
                  match String.split_on_char ' ' line with
                  | [ c; name ] when name = r -> c
                  | _ -> scan ())
              in
              scan ()))
    else head

(* A fixed floating-point and allocation loop, timed nine times; the
   fastest run is the least disturbed by anything else on the machine. *)
let calibrate () =
  let once () =
    let t0 = Unix.gettimeofday () in
    let acc = ref 0.0 in
    let l = ref [] in
    for i = 1 to 2_000_000 do
      acc := !acc +. Float.sqrt (float_of_int i);
      if i land 15 = 0 then l := i :: !l
    done;
    ignore (Sys.opaque_identity (!acc, List.length !l));
    Unix.gettimeofday () -. t0
  in
  List.fold_left Float.min infinity (List.init 9 (fun _ -> once ()))

let take () =
  {
    cpus = Domain.recommended_domain_count ();
    ocaml = Sys.ocaml_version;
    commit = commit ();
    calibration_s = calibrate ();
  }

(* Largest calibration drift still treated as the same machine: a shared
   host drifts by up to ~10% between runs; a machine change moved a
   recorded baseline by 44%. *)
let calibration_tolerance = 0.2

let compatible a b =
  if a.cpus <> b.cpus then Error (Printf.sprintf "cpus differ: %d vs %d" a.cpus b.cpus)
  else if a.ocaml <> b.ocaml then
    Error (Printf.sprintf "OCaml versions differ: %s vs %s" a.ocaml b.ocaml)
  else
    let drift = Float.abs (a.calibration_s -. b.calibration_s) /. Float.min a.calibration_s b.calibration_s in
    if not (drift <= calibration_tolerance) then
      Error
        (Printf.sprintf "calibration loops differ by %.0f%% (%.4f s vs %.4f s)" (100.0 *. drift)
           a.calibration_s b.calibration_s)
    else Ok ()

let to_json_fields t =
  [
    (fun b -> Obs.Json.field b "cpus" (fun b -> Obs.Json.int b t.cpus));
    (fun b -> Obs.Json.field b "ocaml" (fun b -> Obs.Json.str b t.ocaml));
    (fun b -> Obs.Json.field b "commit" (fun b -> Obs.Json.str b t.commit));
    (* Floats travel as strings: the shared JSON parser reads no numbers
       but integers. *)
    (fun b ->
      Obs.Json.field b "calibration_s" (fun b ->
          Obs.Json.str b (Printf.sprintf "%.17g" t.calibration_s)));
  ]

let of_json (v : Obs.Json.value) =
  let open Obs.Json in
  match v with
  | Obj fields -> (
    let get k = List.assoc_opt k fields in
    match (get "cpus", get "ocaml", get "commit", get "calibration_s") with
    | Some (Int cpus), Some (Str ocaml), Some (Str commit), Some cal ->
      let calibration_s = match cal with Str s -> float_of_string_opt s | _ -> None in
      Option.to_result ~none:"stamp: bad calibration_s"
        (Option.map (fun calibration_s -> { cpus; ocaml; commit; calibration_s }) calibration_s)
    | _ -> Error "stamp: missing field")
  | _ -> Error "stamp: not an object"
