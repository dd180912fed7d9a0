(** Launch-parametric symbolic verifier.

    Verifies race-freedom, array bounds, and barrier uniformity for a
    kernel {e once}, producing a verdict parametric in the launch
    configuration instead of one verdict per [(kernel, launch)] pair.
    The abstraction tracks two symbolic threads [s <> t] of the same
    block with symbolic block dims [(bx, by)]; races are refuted by
    affine disequality over the thread-index difference, bounds by
    interval/guard reasoning. Accesses, guards, loop frames, barrier
    intervals and barrier divergence come from the {!Walk} the concrete
    verifier reads too; this module lowers them to launch-parametric
    forms.

    Soundness contract (directional): whenever {!decide} answers
    [`Clean] for a launch, the concrete {!Verify.check} reports no
    error-severity diagnostic for that launch. Anything the symbolic
    tier cannot prove degrades to [`Unknown], and callers fall back to
    the concrete verifier — precision can regress, soundness cannot.
    Certain violations (guard-free races, divergent barriers) are
    additionally reported as {!type:violation}s, so {!decide} can name
    the rule that provably fires at a launch. *)

(** Conjunctions of linear inequalities over the launch dimensions. *)
module Constraint : sig
  type dim = Bx | By | Gx | Gy

  (** A monomial is a sorted product of launch dimensions; [[]] is 1. *)
  type mono = dim list

  type atom = { a_mono : mono; a_cmp : [ `Le | `Ge ]; a_k : int }

  (** A conjunction of atoms. [[]] is the trivial constraint. *)
  type t = atom list

  val to_string : t -> string
end

type violation = {
  v_when : Constraint.t;  (** fires at launches satisfying this *)
  v_rule : string;  (** a {!Verify} rule id, e.g. [race-shared] *)
  v_path : string;
  v_message : string;
}

type verdict =
  | Proved  (** clean at every launch configuration *)
  | Proved_when of Constraint.t  (** clean where the constraint holds *)
  | Unknown of string  (** could not prove; fall back to {!Verify.check} *)

type result = {
  res_kernel : string;
  verdict : verdict;
  violations : violation list;
}

(** Analyse a kernel once, for all launches. Never raises: internal
    failures collapse to [Unknown]. *)
val check : Gpcc_ast.Ast.kernel -> result

(** Decide a concrete launch against a parametric result. [`Errors]
    carries error-severity diagnostics for violations that provably
    fire at this launch; [`Unknown] means the caller must run the
    concrete verifier. *)
val decide :
  result ->
  Gpcc_ast.Ast.launch ->
  [ `Clean | `Errors of Verify.diagnostic list | `Unknown of string ]

val verdict_to_string : verdict -> string
