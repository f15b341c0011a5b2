(** Twice-differentiable convex functions of a vector variable, as used by
    the barrier solver.  Evaluation returns value, gradient and Hessian in
    one pass because the three share most of the work for log-sum-exp. *)

type t = {
  dim : int;
  eval : Linalg.Vec.t -> float * Linalg.Vec.t * Linalg.Mat.t;
  value : Linalg.Vec.t -> float;  (** value only, cheaper than [eval] *)
}

val linear : int -> Linalg.Vec.t -> float -> t
(** [linear n a b] is [fun y -> a . y + b].  Every [eval] returns a
    fresh gradient and (zero) Hessian, safe for the caller to mutate. *)

val log_sum_exp : int -> (Linalg.Vec.t * float) list -> t
(** [log_sum_exp n terms] with terms [(a_k, b_k)] is
    [fun y -> log (sum_k exp (a_k . y + b_k))] — the log-space image of a
    posynomial.  Raises [Invalid_argument] on an empty term list. *)

val extend : t -> int -> t
(** [extend f extra] views [f] as a function of [dim + extra] variables
    that ignores the trailing [extra] coordinates (zero-padded gradient and
    Hessian). *)

val add : t -> t -> t
(** [add f g] is [fun y -> f y + g y]; raises [Invalid_argument] when the
    dimensions differ. *)
