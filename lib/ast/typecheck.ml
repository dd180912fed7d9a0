(** Type and shape checker for kernels.

    Checks performed:
    - every variable is declared before use (params, decls, loop vars,
      builtins), and no name is declared twice (parameters included);
    - array accesses have exactly the declared rank and [int] indices;
    - operand types of arithmetic/logic agree ([int] promotes to [float]
      in mixed arithmetic, as in C);
    - vector fields ([.x] ...) only on vector values of sufficient width;
    - assignments are type-compatible; shared arrays are not initialized
      inline; [__global_sync] appears only at kernel top level;
    - intrinsic calls match their signatures. *)

open Ast

exception Type_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Type_error s)) fmt

(* Names in scope. Redeclaration and shadowing are type errors, so a
   name is bound at most once and a map gives the same answers as the
   source's scoping. *)
module Env = Map.Make (String)

type env = ty Env.t

let intrinsics : (string * (scalar list * scalar)) list =
  [
    ("sqrtf", ([ Float ], Float));
    ("fabsf", ([ Float ], Float));
    ("expf", ([ Float ], Float));
    ("logf", ([ Float ], Float));
    ("sinf", ([ Float ], Float));
    ("cosf", ([ Float ], Float));
    ("fmaxf", ([ Float; Float ], Float));
    ("fminf", ([ Float; Float ], Float));
    ("min", ([ Int; Int ], Int));
    ("max", ([ Int; Int ], Int));
    ("make_float2", ([ Float; Float ], Float2));
    ("make_float4", ([ Float; Float; Float; Float ], Float4));
  ]

let is_numeric = function Int | Float -> true | Float2 | Float4 | Bool -> false

let join_arith a b =
  match (a, b) with
  | Int, Int -> Int
  | (Float | Int), (Float | Int) -> Float
  | Float2, Float2 -> Float2
  | Float4, Float4 -> Float4
  | _ -> err "incompatible operand types %s / %s" (show_scalar a) (show_scalar b)

let rec type_of_expr (env : env) (e : expr) : scalar =
  match e with
  | Int_lit _ -> Int
  | Float_lit _ -> Float
  | Builtin _ -> Int
  | Var v -> (
      match Env.find_opt v env with
      | Some (Scalar s) -> s
      | Some (Array _) -> err "array %s used as a scalar" v
      | None -> err "undeclared variable %s" v)
  | Unop (Neg, a) ->
      let t = type_of_expr env a in
      if is_numeric t || t = Float2 || t = Float4 then t
      else err "negation of non-numeric value"
  | Unop (Not, a) ->
      let t = type_of_expr env a in
      if t = Bool || t = Int then Bool else err "! applied to non-boolean"
  | Binop (op, a, b) -> (
      let ta = type_of_expr env a and tb = type_of_expr env b in
      match op with
      | Add | Sub | Mul | Div -> join_arith ta tb
      | Mod ->
          if ta = Int && tb = Int then Int else err "%% requires int operands"
      | Lt | Le | Gt | Ge | Eq | Ne ->
          if is_numeric ta && is_numeric tb then Bool
          else err "comparison of non-numeric values"
      | And | Or ->
          if (ta = Bool || ta = Int) && (tb = Bool || tb = Int) then Bool
          else err "&&/|| require boolean operands")
  | Index (a, es) -> (
      match Env.find_opt a env with
      | Some (Array { elt; dims; _ }) ->
          if List.length es <> List.length dims then
            err "array %s has rank %d but is accessed with %d indices" a
              (List.length dims) (List.length es);
          List.iter
            (fun e ->
              if type_of_expr env e <> Int then
                err "non-integer index into array %s" a)
            es;
          elt
      | Some (Scalar _) -> err "scalar %s indexed as an array" a
      | None -> err "undeclared array %s" a)
  | Vload { v_arr; v_width; v_index } -> (
      match Env.find_opt v_arr env with
      | Some (Array { elt = Float; _ }) ->
          if type_of_expr env v_index <> Int then
            err "non-integer vector index into %s" v_arr;
          if v_width = 2 then Float2
          else if v_width = 4 then Float4
          else err "vector width must be 2 or 4"
      | Some _ -> err "vector load from non-float array %s" v_arr
      | None -> err "undeclared array %s" v_arr)
  | Field (e, f) -> (
      let t = type_of_expr env e in
      match (t, f) with
      | Float2, (FX | FY) -> Float
      | Float4, _ -> Float
      | _ -> err "field .%s on value of type %s" (field_name f) (show_scalar t))
  | Call (name, args) -> (
      match List.assoc_opt name intrinsics with
      | None -> err "unknown function %s" name
      | Some (params, ret) ->
          if List.length params <> List.length args then
            err "%s expects %d arguments" name (List.length params);
          List.iter2
            (fun want arg ->
              let got = type_of_expr env arg in
              match (want, got) with
              | Float, (Float | Int) | Int, Int -> ()
              | _ when want = got -> ()
              | _ ->
                  err "argument of %s has type %s, expected %s" name
                    (show_scalar got) (show_scalar want))
            params args;
          ret)
  | Select (c, a, b) ->
      let tc = type_of_expr env c in
      if tc <> Bool && tc <> Int then err "condition of ?: must be boolean";
      join_arith (type_of_expr env a) (type_of_expr env b)

let type_of_lvalue (env : env) (lv : lvalue) : scalar =
  let rec go = function
    | Lvar v -> (
        match Env.find_opt v env with
        | Some (Scalar s) -> s
        | Some (Array _) -> err "cannot assign to whole array %s" v
        | None -> err "undeclared variable %s" v)
    | Lindex (a, es) -> type_of_expr env (Index (a, es))
    | Lfield (lv, f) -> (
        match (go lv, f) with
        | Float2, (FX | FY) -> Float
        | Float4, _ -> Float
        | t, _ -> err "field .%s on lvalue of type %s" (field_name f) (show_scalar t))
    | Lvec vl -> type_of_expr env (Vload vl)
  in
  go lv

let assignable ~(dst : scalar) ~(src : scalar) =
  match (dst, src) with
  | Float, Int -> true
  | Int, Int | Float, Float -> true
  | a, b -> a = b

let rec check_block (env : env) ~(top : bool) (b : block) : unit =
  let _ : env =
    List.fold_left
      (fun env s ->
        check_stmt env ~top s;
        match s with
        | Decl d ->
            if Env.mem d.d_name env then err "redeclaration of %s" d.d_name;
            Env.add d.d_name d.d_ty env
        | _ -> env)
      env b
  in
  ()

and check_stmt (env : env) ~(top : bool) (s : stmt) : unit =
  match s with
  | Comment _ | Sync -> ()
  | Global_sync ->
      if not top then err "__global_sync() only allowed at kernel top level"
  | Decl d -> (
      match (d.d_ty, d.d_init) with
      | Array { space = Shared; _ }, Some _ ->
          err "shared array %s cannot have an initializer" d.d_name
      | Array _, Some _ -> err "array %s cannot have an initializer" d.d_name
      | Scalar dst, Some e ->
          let src = type_of_expr env e in
          if not (assignable ~dst ~src) then
            err "initializer of %s has type %s, expected %s" d.d_name
              (show_scalar src) (show_scalar dst)
      | _, None -> ())
  | Assign (lv, e) ->
      let dst = type_of_lvalue env lv in
      let src = type_of_expr env e in
      if not (assignable ~dst ~src) then
        err "assignment to %s of type %s, expected %s"
          (Pp.lvalue_to_string lv) (show_scalar src) (show_scalar dst)
  | If (c, t, e) ->
      let tc = type_of_expr env c in
      if tc <> Bool && tc <> Int then err "if condition must be boolean";
      check_block env ~top:false t;
      check_block env ~top:false e
  | For l ->
      if Env.mem l.l_var env then
        err "loop variable %s shadows an existing declaration" l.l_var;
      if type_of_expr env l.l_init <> Int then err "loop start must be int";
      let env' = Env.add l.l_var (Scalar Int) env in
      if type_of_expr env' l.l_limit <> Int then err "loop limit must be int";
      if type_of_expr env' l.l_step <> Int then err "loop step must be int";
      check_block env' ~top:false l.l_body

(** Check a whole kernel; raises {!Type_error} on failure. *)
let check (k : kernel) : unit =
  let env =
    List.fold_left
      (fun env p ->
        if Env.mem p.p_name env then err "duplicate parameter %s" p.p_name;
        Env.add p.p_name p.p_ty env)
      Env.empty k.k_params
  in
  List.iter
    (fun (n, _) ->
      (* names starting with __ are compiler directives (e.g. __threads_x),
         not parameter bindings *)
      if not (String.length n >= 2 && String.sub n 0 2 = "__") then
        match Env.find_opt n env with
        | Some (Scalar Int) -> ()
        | Some _ -> err "#pragma gpcc dim %s: parameter is not an int" n
        | None -> err "#pragma gpcc dim %s: no such parameter" n)
    k.k_sizes;
  List.iter
    (fun n ->
      match Env.find_opt n env with
      | Some (Array { space = Global; _ }) -> ()
      | Some _ -> err "#pragma gpcc output %s: not a global array" n
      | None -> err "#pragma gpcc output %s: no such parameter" n)
    k.k_output;
  check_block env ~top:true k.k_body

let check_result (k : kernel) : (unit, string) result =
  match check k with () -> Ok () | exception Type_error m -> Error m
