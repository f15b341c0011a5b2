(** One geometric program compiled for the solver's flat kernel.

    {!compile} lowers a {!Problem.t} once per solve into log space:
    every posynomial becomes a log-sum-exp {!fn} over contiguous sparse
    exponent rows (most monomial rows of a Thistle formulation touch a
    handful of the ~12 problem variables), every monomial equality an
    affine row [a . y = -log c].  The evaluation primitives then run
    tight unchecked loops over flat buffers.

    {b Bit-identity contract.}  For finite arguments, {!value} and
    {!eval_into} execute the same floating-point operations in the same
    order as {!Smooth.log_sum_exp} on the equivalent dense term list,
    skipping only operations whose operand is an exact zero and whose
    result is provably bit-identical to not performing them (adding
    [+0.0]/[-0.0] to partial sums that start at [+0.0] and can never
    become [-0.0]).  Values, gradients and Hessians are therefore
    bit-for-bit equal to the list path — locked in by QCheck properties
    in [test/test_compiled.ml]. *)

module Vec = Linalg.Vec

(** One compiled convex function

      F(y) = log sum_k exp(row_k . y + b_k)  +  lin . y + lin_const

    (the log-sum-exp part absent when [f_nterms = 0]).  Term [k]'s
    nonzero exponent entries are [f_idx]/[f_coef] positions
    [f_starts.(k) .. f_starts.(k+1) - 1], ascending by variable index.
    The dimension is implicit: callers size buffers. *)
type fn = {
  f_nterms : int;
  f_starts : int array;
  f_idx : int array;
  f_coef : float array;
  f_b : float array;  (** per-term log coefficients [b_k] *)
  f_support : int array;  (** sorted distinct variable indices touched *)
  f_lin_idx : int array;
  f_lin_coef : float array;
  f_lin_const : float;
}

(** A compiled program.  Equality rows whose exponents are all zero
    carry no direction; they survive only as the {!consistent} flag. *)
type t = {
  vars : string list;  (** sorted, as [Problem.variables] *)
  n : int;
  index : (string, int) Hashtbl.t;  (** variable name -> coordinate *)
  objective : fn;
  ineqs : fn array;  (** in [Problem.ineqs] order *)
  rows : Vec.t array;  (** nonzero equality rows, source order *)
  rhs : float array;  (** [-log c] per row of [rows] *)
  consistent : bool;
      (** every all-zero equality row has [|-log c| <= 1e-9]; otherwise
          the program is infeasible as stated *)
  max_terms : int;  (** scratch sizing for {!value} / {!eval_into} *)
}

val compile : Problem.t -> t

val of_sparse_terms : ((int * float) list * float) list -> fn
(** [of_sparse_terms terms] with terms [(entries, b_k)]; entries are
    [(variable index, exponent)] and must be strictly ascending by
    index.  Raises [Invalid_argument] on an empty list, a negative index
    or descending entries. *)

val affine : (int * float) list -> float -> fn
(** [affine entries c] is [fun y -> sum (i, a) in entries. a * y_i + c]
    (zero Hessian), like {!Smooth.linear}. *)

val minus_slack : int -> fn -> fn
(** [minus_slack s f] is [fun y -> f y - y_s], the phase-I image of an
    inequality over one extra (slack) coordinate [s]. *)

(** {1 Flat evaluation}

    [es] is caller scratch of length at least [f_nterms]; [hess] is a
    flat row-major buffer with stride [hn].  No bounds checks: the
    solver owns the invariants. *)

val value : fn -> es:float array -> float array -> float

val eval_into :
  fn -> es:float array -> grad:float array -> hess:float array -> hn:int -> float array -> float
(** [eval_into f ~es ~grad ~hess ~hn y] returns [f y] and writes the
    gradient and Hessian.  Only the {!fn.f_support} entries of [grad] and
    the support-square block of [hess] are written (overwritten, not
    accumulated); everything else is left untouched, so one pair of
    buffers serves functions with different supports. *)
