(* Closed-loop clients: [clients] threads split a request stream round
   robin, each sending its next request only after the reply to the
   previous one.

   [session f] opens a connection, runs [f conn] and closes it; [send conn
   item] returns [Some sample] for a served request and [None] for a
   refused or failed one.  A client whose session raises (a failed
   connect, a dropped connection) stops, and every request it did not
   complete counts as failed, so a lost client can never pass for a fast
   one. *)

type 'r t = {
  samples : 'r list;  (** one per completed request, client 0's first *)
  failed : int;  (** requests in the stream without a sample *)
  lost : string list;  (** why each client that stopped early stopped *)
}

let run ~clients ~session ~send items =
  if clients < 1 then invalid_arg "Closed_loop.run";
  let per = Array.make clients ([], None) in
  let client c =
    let acc = ref [] in
    let lost =
      match
        session (fun conn ->
            Array.iteri
              (fun i item ->
                if i mod clients = c then Option.iter (fun s -> acc := s :: !acc) (send conn item))
              items)
      with
      | () -> None
      | exception e -> Some (Printf.sprintf "client %d: %s" c (Printexc.to_string e))
    in
    per.(c) <- (List.rev !acc, lost)
  in
  List.iter Thread.join (List.init clients (Thread.create client));
  let per = Array.to_list per in
  let samples = List.concat_map fst per in
  { samples; failed = Array.length items - List.length samples; lost = List.filter_map snd per }
