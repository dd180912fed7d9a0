(** Loop-invariant code motion for thread-position arithmetic.

    Thread merge replicates statements with substituted positions
    ([idy*16 + r]), so the merged kernels re-evaluate the same integer
    expressions in every loop iteration — address and guard arithmetic
    that nvcc's PTX optimizer would hoist. To keep the simulator's
    instruction counts honest about what would actually run, this pass
    hoists, per loop:

    - maximal integer subexpressions built only from thread-position
      builtins and constants (invariant everywhere by construction), into
      an [int] register declared just before the loop;
    - declarations created that way by an inner loop's pass, further
      outward when the enclosing loop re-executes them.

    The cost is one register per hoisted value — the classic
    registers-versus-occupancy tension of Section 4.1, which the
    design-space exploration arbitrates. *)

open Gpcc_ast
open Ast

(** Maximal non-trivial subexpressions whose leaves are integer literals
    and builtins (guaranteed [int], invariant to every loop). *)
let hoistable_subexprs (b : Ast.block) : Ast.expr list =
  let rec pure = function
    | Int_lit _ | Builtin _ -> true
    | Binop ((Add | Sub | Mul | Div | Mod), a, b) -> pure a && pure b
    | Unop (Neg, a) -> pure a
    | _ -> false
  in
  let has_builtin e = Rewrite.exists_expr (function Builtin _ -> true | _ -> false) e in
  let nontrivial = function Int_lit _ | Builtin _ -> false | _ -> true in
  let acc = ref [] in
  let rec scan_expr e =
    if pure e && has_builtin e && nontrivial e then begin
      if not (List.exists (Ast.equal_expr e) !acc) then acc := e :: !acc
    end
    else
      match e with
      | Int_lit _ | Float_lit _ | Var _ | Builtin _ -> ()
      | Unop (_, a) | Field (a, _) -> scan_expr a
      | Binop (_, a, b) ->
          scan_expr a;
          scan_expr b
      | Index (_, es) | Call (_, es) -> List.iter scan_expr es
      | Vload v -> scan_expr v.v_index
      | Select (c, a, b) ->
          scan_expr c;
          scan_expr a;
          scan_expr b
  in
  (* shallow scan: nested loops were already processed (bottom-up) and own
     their hoists *)
  let rec scan_block b = List.iter scan_stmt b
  and scan_stmt = function
    | Decl { d_init = Some e; _ } -> scan_expr e
    | Decl _ | Sync | Global_sync | Comment _ -> ()
    | Assign (lv, e) ->
        Rewrite.fold_exprs_lvalue (fun () e -> scan_expr e) () lv;
        scan_expr e
    | If (c, t, f) ->
        scan_expr c;
        scan_block t;
        scan_block f
    | For l ->
        scan_expr l.l_limit;
        scan_expr l.l_step;
        scan_expr l.l_init;
        scan_block l.l_body
  in
  scan_block b;
  List.rev !acc

let apply (k : Ast.kernel) (launch : Ast.launch) : Pass_util.outcome =
  let names = Pass_util.kernel_names k in
  let fresh () = Pass_util.fresh_name names "inv" in
  let hoisted = ref 0 in
  let is_pure_decl = function
    | Decl { d_ty = Scalar Int; d_init = Some e; _ } ->
        let rec pure = function
          | Int_lit _ | Builtin _ -> true
          | Var _ -> false
          | Binop ((Add | Sub | Mul | Div | Mod), a, b) -> pure a && pure b
          | Unop (Neg, a) -> pure a
          | _ -> false
        in
        pure e
    | _ -> false
  in
  (* expressions are hoisted only out of *nested* loops (the hot paths
     where re-evaluation costs every iteration); registers spent on
     rarely-executed top-level loop bodies would only hurt occupancy.
     Declarations that are already pure float outward at any depth. *)
  let rec go_block ~depth (b : Ast.block) : Ast.block =
    List.concat_map
      (fun s ->
        match s with
        | For l ->
            let body = go_block ~depth:(depth + 1) l.l_body in
            let floats, stays = List.partition is_pure_decl body in
            let bindings =
              if depth >= 1 then
                List.map (fun e -> (fresh (), e)) (hoistable_subexprs stays)
              else []
            in
            hoisted := !hoisted + List.length floats + List.length bindings;
            let stays =
              List.fold_left
                (fun b (nm, e) -> Pass_util.replace_expr e (Var nm) b)
                stays bindings
            in
            floats
            @ List.map (fun (nm, e) -> Ast.decl_i nm ~init:e) bindings
            @ [ For { l with l_body = stays } ]
        | If (c, t, f) ->
            [ If (c, go_block ~depth t, go_block ~depth f) ]
        | s -> [ s ])
      b
  in
  let body = go_block ~depth:0 k.k_body in
  if !hoisted = 0 then
    Pass_util.unchanged ~notes:[ "no loop-invariant thread arithmetic" ] k
      launch
  else
    Pass_util.changed
      ~notes:
        [
          Printf.sprintf
            "hoisted %d loop-invariant thread-position expression(s) into \
             registers"
            !hoisted;
        ]
      { k with k_body = body }
      launch
