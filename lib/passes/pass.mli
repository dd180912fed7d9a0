(** First-class optimization passes: each Figure-1 pipeline stage as a
    record — name, paper section, [applies]/[transform] — consumed
    generically by the {!Gpcc_core.Pipeline} driver. The analyses a
    pass consults are plain calls on the kernel. *)

(** Per-compilation context a pass sees. *)
type ctx = {
  cfg : Gpcc_sim.Config.t;  (** target machine description *)
  target_block_threads : int;  (** 128 / 256 / 512 (Section 4.1) *)
  merge_degree : int;  (** threads merged into one: 4 / 8 / 16 / 32 *)
}

(** Outcome of [applies]: run the transform, or skip with a recorded
    reason. *)
type decision =
  | Applies
  | Declined of string

(** Provided by the pipeline driver: [emit label k l f] runs [f k l] as
    one recorded sub-step (timed, kept for blaming a
    translation-validation failure when it fires) and returns its
    outcome. *)
type emit =
  string ->
  Gpcc_ast.Ast.kernel ->
  Gpcc_ast.Ast.launch ->
  (Gpcc_ast.Ast.kernel -> Gpcc_ast.Ast.launch -> Pass_util.outcome) ->
  Pass_util.outcome

type t = {
  name : string;  (** stable registry id, e.g. ["merge"] *)
  label : string;  (** default human step label *)
  section : string;  (** paper section implemented *)
  summary : string;  (** one line for [--print-pipeline] *)
  applies : ctx -> Gpcc_ast.Ast.kernel -> Gpcc_ast.Ast.launch -> decision;
  transform :
    ctx ->
    emit ->
    Gpcc_ast.Ast.kernel ->
    Gpcc_ast.Ast.launch ->
    Gpcc_ast.Ast.kernel * Gpcc_ast.Ast.launch;
}

(** The individual passes (see each one's [summary]). *)

val vectorize_wide : t
val vectorize : t
val coalesce : t
val merge : t
val licm : t
val partition_camp : t
val prefetch : t

val registry : t list
(** The Figure-1 pipeline in execution order. The [merge] record
    implements both of Section 3.5's transforms (thread-block merge and
    thread merge). *)

val find : string -> t option
val names : unit -> string list
