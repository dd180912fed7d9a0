(** Type and shape checker for kernels: declaration-before-use, array
    ranks, operand types (with C-style int-to-float promotion), vector
    fields, pragma validity, and structural rules such as
    [__global_sync] only at top level. *)

exception Type_error of string

(** Check a whole kernel; raises {!Type_error} on the first violation
    (including a parameter name declared twice). *)
val check : Ast.kernel -> unit

val check_result : Ast.kernel -> (unit, string) result
