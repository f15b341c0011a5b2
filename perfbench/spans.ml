(* In-memory span recorder for the traced run.

   Spans are recorded around calls into the library from the benchmark's
   own code.  Each span has an explicit parent (work fanned out to pool
   domains names its stage span as parent, since a domain-local stack
   cannot see across domains) and a layer id shared by every span of one
   layer's replay.  Nothing is written until the run ends. *)

type span = {
  id : int;
  parent : int option;
  name : string;
  layer : string;
  t0 : float;  (** seconds, wall clock *)
  t1 : float;
}

let dur s = s.t1 -. s.t0

let lock = Mutex.create ()
let next_id = Atomic.make 1
let recorded : span list ref = ref []

let reset () =
  Mutex.lock lock;
  recorded := [];
  Mutex.unlock lock

let record s =
  Mutex.lock lock;
  recorded := s :: !recorded;
  Mutex.unlock lock

let all () =
  Mutex.lock lock;
  let l = List.rev !recorded in
  Mutex.unlock lock;
  l

let fresh_id () = Atomic.fetch_and_add next_id 1

(* [with_span ?parent ~layer name f] runs [f id] where [id] is the new
   span's id (to pass as the parent of its children), recording the span
   even when [f] raises. *)
let with_span ?parent ~layer name f =
  let id = fresh_id () in
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      record { id; parent; name; layer; t0; t1 = Unix.gettimeofday () })
    (fun () -> f id)

(* Total length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort (fun (a, _) (b, _) -> Float.compare a b) clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
          if a <= cb then (total, Some (ca, Float.max cb b))
          else (total +. (cb -. ca), Some (a, b)))
      (0.0, None) sorted
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Children of every span, indexed by parent id. *)
let index spans =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun c ->
      match c.parent with
      | Some p -> Hashtbl.replace tbl p (c :: Option.value (Hashtbl.find_opt tbl p) ~default:[])
      | None -> ())
    spans;
  tbl

(* Self time: the span's duration minus the part of its interval that its
   children cover.  Children running concurrently on other domains
   overlap each other; the union is what counts. *)
let self_time_in idx s =
  let kids = Option.value (Hashtbl.find_opt idx s.id) ~default:[] in
  dur s -. covered ~lo:s.t0 ~hi:s.t1 (List.map (fun c -> (c.t0, c.t1)) kids)

let self_time spans s = self_time_in (index spans) s

type agg = { count : int; total : float; self : float }

(* Per-name count, summed duration and summed self time, sorted by name. *)
let aggregate spans =
  let idx = index spans in
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let a =
        Option.value (Hashtbl.find_opt tbl s.name)
          ~default:{ count = 0; total = 0.0; self = 0.0 }
      in
      Hashtbl.replace tbl s.name
        { count = a.count + 1; total = a.total +. dur s; self = a.self +. self_time_in idx s })
    spans;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let find_agg aggs name =
  Option.value (List.assoc_opt name aggs) ~default:{ count = 0; total = 0.0; self = 0.0 }

(* Share of [wall] that the direct children of the [root]-named spans do
   not account for.  With the layer spans of a replay and the wall time
   of the optimizer runs it replays, this is the optimizer's time outside
   every replayed stage. *)
let unattributed_frac spans ~root ~wall =
  let roots = Hashtbl.create 16 in
  List.iter (fun s -> if s.name = root then Hashtbl.replace roots s.id ()) spans;
  let staged =
    List.fold_left
      (fun acc s ->
        match s.parent with Some p when Hashtbl.mem roots p -> acc +. dur s | _ -> acc)
      0.0 spans
  in
  1.0 -. Stats.ratio staged wall
