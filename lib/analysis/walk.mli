(** The kernel walk shared by both verifier tiers.

    One pass over a kernel body numbers its barrier intervals, records
    every shared and global array access with the guards, loop frames
    and scalar bindings in force at it, and classifies every barrier
    that may diverge. {!Verify} evaluates the records concretely at one
    launch; {!Symverify} lowers them to launch-parametric forms. Only
    the value domains differ, so the soundness contract between the
    tiers rests on one walk.

    A loop whose body contains a barrier is {e frozen}: its iteration is
    shared by the whole block. The walk visits the body of a frozen loop
    twice (at most two frozen levels deep), for iteration [k] and
    [k+1], so the accesses of the second pass land in the interval
    opened by the last barrier of the first: the wrap-around interval. *)

type binding =
  | Bexpr of Gpcc_ast.Ast.expr
      (** defined by this expression, evaluated in the binding-list
          suffix after it (rebindings resolve lexically) *)
  | Bval of int  (** a concrete value (bound by enumeration, not the walk) *)
  | Bunknown  (** declared without a value, or reassigned in a branch *)

type binds = (string * binding) list
(** Innermost (most recent) binding first. *)

val assoc_split : string -> binds -> (binding * binds) option
(** The latest binding of a name and the suffix it is evaluated in. *)

type frame = {
  fr_id : int;
      (** one per loop visit, in walk order; both passes of a frozen
          loop share it *)
  fr_var : string;
  fr_init : Gpcc_ast.Ast.expr;
  fr_limit : Gpcc_ast.Ast.expr;
  fr_step : Gpcc_ast.Ast.expr;
  fr_frozen : bool;  (** the loop body contains a barrier *)
  fr_tdep : bool;  (** a loop bound depends on the thread position *)
  fr_offset : int;  (** 0, or 1 for the wrap-around pass *)
  fr_binds : binds;  (** scalar bindings at loop entry *)
}

type guard = {
  g_cond : Gpcc_ast.Ast.expr;  (** must be true for the access to run *)
  g_binds : binds;
  g_frames : frame list;  (** enclosing loops, outermost first *)
}

(** One array access. ['c] is the caller's scope context at the access
    (see {!scope}). *)
type 'c acc = {
  a_arr : string;
  a_space : [ `Shared | `Global ];
  a_kind :
    [ `Sc of Gpcc_ast.Ast.expr list | `Vec of int * Gpcc_ast.Ast.expr ];
  a_store : bool;
  a_interval : int;  (** barrier interval *)
  a_frames : frame list;  (** outermost first; frozen frames form a prefix *)
  a_guards : guard list;  (** innermost first *)
  a_binds : binds;
  a_ctx : 'c;
  a_path : string;  (** statement path, e.g. ["for(i)/if(tidx < 16)"] *)
}

val acc_expr : 'c acc -> string
(** The access as printed source, e.g. ["s[tidx][i]"]. *)

(** A barrier that may diverge. Each barrier statement is recorded
    once: the wrap-around pass does not repeat it. *)
type barrier = {
  b_path : string;
  b_message : string;
  b_hard : bool;
      (** divergent at every launch: under a thread-dependent branch, or
          a [__global_sync()] below the kernel's top level *)
  b_soft : frame list;
      (** otherwise: the enclosing frozen loops with thread-dependent
          bounds; the barrier diverges unless each has a block-uniform
          trip count, which depends on the launch *)
}

(** A context threaded through scalar bindings and loop entries, e.g.
    {!Affine.ctx}. [let_ c v None] forgets [v]. *)
type 'c scope = {
  let_ : 'c -> string -> Gpcc_ast.Ast.expr option -> 'c;
  loop : 'c -> Gpcc_ast.Ast.loop -> 'c;
}

val no_scope : unit scope

type 'c t = {
  accs : 'c acc list;  (** walk order *)
  barriers : barrier list;  (** walk order *)
}

val walk : 'c scope -> 'c -> Gpcc_ast.Ast.kernel -> 'c t
(** Walk a kernel body from the initial context. *)

val races : 'c acc list -> (string * 'c acc list) list list
(** The race-check groups: one list per barrier interval, ascending;
    within it, one entry per array with at least one store, carrying
    the array's accesses of that interval in walk order. *)

val sites : 'c acc list -> 'c acc list
(** The first access of each distinct syntactic site (path, array,
    direction, printed access): the wrap-around pass records duplicates. *)
