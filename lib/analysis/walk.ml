(** The kernel walk shared by both verifier tiers (see the interface). *)

open Gpcc_ast

type binding =
  | Bexpr of Ast.expr
  | Bval of int
  | Bunknown

type binds = (string * binding) list

let rec assoc_split name = function
  | [] -> None
  | (n, b) :: rest ->
      if String.equal n name then Some (b, rest) else assoc_split name rest

type frame = {
  fr_id : int;
  fr_var : string;
  fr_init : Ast.expr;
  fr_limit : Ast.expr;
  fr_step : Ast.expr;
  fr_frozen : bool;
  fr_tdep : bool;
  fr_offset : int;
  fr_binds : binds;
}

type guard = {
  g_cond : Ast.expr;
  g_binds : binds;
  g_frames : frame list;
}

type 'c acc = {
  a_arr : string;
  a_space : [ `Shared | `Global ];
  a_kind : [ `Sc of Ast.expr list | `Vec of int * Ast.expr ];
  a_store : bool;
  a_interval : int;
  a_frames : frame list;
  a_guards : guard list;
  a_binds : binds;
  a_ctx : 'c;
  a_path : string;
}

let acc_expr a =
  match a.a_kind with
  | `Sc idxs -> Pp.expr_to_string (Index (a.a_arr, idxs))
  | `Vec (w, ie) ->
      Pp.expr_to_string (Vload { v_arr = a.a_arr; v_width = w; v_index = ie })

type barrier = {
  b_path : string;
  b_message : string;
  b_hard : bool;
  b_soft : frame list;
}

type 'c scope = {
  let_ : 'c -> string -> Ast.expr option -> 'c;
  loop : 'c -> Ast.loop -> 'c;
}

let no_scope = { let_ = (fun () _ _ -> ()); loop = (fun () _ -> ()) }

type 'c t = {
  accs : 'c acc list;
  barriers : barrier list;
}

(* --- syntactic helpers --- *)

let truncate_str n s = if String.length s <= n then s else String.sub s 0 n ^ "…"

let rec thread_dep (binds : binds) (frames : frame list) (e : Ast.expr) : bool =
  match e with
  | Builtin (Idx | Idy | Tidx | Tidy) -> true
  | Builtin _ | Int_lit _ | Float_lit _ -> false
  | Var v -> (
      match assoc_split v binds with
      | Some (Bexpr e', rest) -> thread_dep rest frames e'
      | Some (Bval _, _) -> false
      | Some (Bunknown, _) -> true
      | None -> (
          match List.find_opt (fun f -> String.equal f.fr_var v) frames with
          | Some f -> f.fr_tdep
          | None -> false))
  | Index _ | Vload _ -> true
  | Unop (_, a) | Field (a, _) -> thread_dep binds frames a
  | Binop (_, a, b) -> thread_dep binds frames a || thread_dep binds frames b
  | Call (_, args) -> List.exists (thread_dep binds frames) args
  | Select (a, b, c) ->
      thread_dep binds frames a || thread_dep binds frames b
      || thread_dep binds frames c

let rec block_has_sync b = List.exists stmt_has_sync b

and stmt_has_sync = function
  | Ast.Sync | Global_sync -> true
  | If (_, t, f) -> block_has_sync t || block_has_sync f
  | For l -> block_has_sync l.l_body
  | Decl _ | Assign _ | Comment _ -> false

(** Scalar names (re)assigned or declared anywhere in a block — after a
    branch or loop their walk-time binding is no longer reliable. *)
let rec assigned_vars b = List.concat_map assigned_vars_stmt b

and assigned_vars_stmt = function
  | Ast.Decl d -> [ d.d_name ]
  | Assign (Lvar v, _) | Assign (Lfield (Lvar v, _), _) -> [ v ]
  | Assign ((Lindex _ | Lvec _ | Lfield _), _) -> []
  | If (_, t, f) -> assigned_vars t @ assigned_vars f
  | For l -> l.l_var :: assigned_vars l.l_body
  | Sync | Global_sync | Comment _ -> []

let spaces_of (k : Ast.kernel) : (string * [ `Shared | `Global ]) list =
  let from_params =
    List.filter_map
      (fun (p : Ast.param) ->
        match p.p_ty with
        | Array { space = Global; _ } -> Some (p.p_name, `Global)
        | Array { space = Shared; _ } -> Some (p.p_name, `Shared)
        | _ -> None)
      k.k_params
  in
  let from_decls =
    Rewrite.declared_vars k.k_body
    |> List.filter_map (fun (name, ty) ->
           match ty with
           | Ast.Array { space = Shared; _ } -> Some (name, `Shared)
           | _ -> None)
  in
  from_params @ from_decls

(* --- the walk --- *)

type 'c env = {
  binds : binds;
  frames : frame list;  (** innermost first *)
  guards : guard list;
  ctx : 'c;
  hard : bool;  (** under control flow thread-dependent at every launch *)
  path : string list;  (** reversed segments *)
  frozen_depth : int;
}

type 'c state = {
  scope : 'c scope;
  spaces : (string * [ `Shared | `Global ]) list;
  mutable interval : int;
  mutable next_id : int;
  mutable accs : 'c acc list;
  mutable barriers : barrier list;
}

let path_of env = String.concat "/" (List.rev env.path)

let forget st env vars =
  {
    env with
    binds = List.map (fun v -> (v, Bunknown)) vars @ env.binds;
    ctx = List.fold_left (fun c v -> st.scope.let_ c v None) env.ctx vars;
  }

let record st env arr kind ~store =
  match List.assoc_opt arr st.spaces with
  | None -> ()
  | Some space ->
      st.accs <-
        {
          a_arr = arr;
          a_space = space;
          a_kind = kind;
          a_store = store;
          a_interval = st.interval;
          a_frames = List.rev env.frames;
          a_guards = env.guards;
          a_binds = env.binds;
          a_ctx = env.ctx;
          a_path = path_of env;
        }
        :: st.accs

let rec collect st env (e : Ast.expr) : unit =
  match e with
  | Index (arr, idxs) ->
      record st env arr (`Sc idxs) ~store:false;
      List.iter (collect st env) idxs
  | Vload { v_arr; v_width; v_index } ->
      record st env v_arr (`Vec (v_width, v_index)) ~store:false;
      collect st env v_index
  | Unop (_, a) | Field (a, _) -> collect st env a
  | Binop (_, a, b) ->
      collect st env a;
      collect st env b
  | Call (_, args) -> List.iter (collect st env) args
  | Select (a, b, c) ->
      collect st env a;
      collect st env b;
      collect st env c
  | Int_lit _ | Float_lit _ | Var _ | Builtin _ -> ()

let barrier st env seg ~hard ~soft message =
  (* the wrap-around pass of a frozen loop revisits the same barrier
     under the same classification: record each barrier once *)
  let first_visit = List.for_all (fun f -> f.fr_offset = 0) env.frames in
  if (hard || soft <> []) && first_visit then
    st.barriers <-
      {
        b_path = path_of { env with path = seg :: env.path };
        b_message = message;
        b_hard = hard;
        b_soft = soft;
      }
      :: st.barriers;
  (* a guarded barrier may not execute: splitting the interval there
     would hide races between the code around it, so only an
     unconditional barrier starts a new interval *)
  if env.guards = [] then st.interval <- st.interval + 1

let bind st env v e =
  {
    env with
    binds = (v, match e with Some e -> Bexpr e | None -> Bunknown) :: env.binds;
    ctx = st.scope.let_ env.ctx v e;
  }

let rec walk_block st env (b : Ast.block) =
  List.fold_left (fun e s -> walk_stmt st e s) env b

and walk_stmt st env (s : Ast.stmt) =
  match s with
  | Comment _ -> env
  | Decl { d_name; d_ty = Scalar _; d_init } ->
      Option.iter (collect st env) d_init;
      bind st env d_name d_init
  | Decl _ -> env (* shared arrays: the layout table covers them *)
  | Assign (lv, e) -> (
      collect st env e;
      match lv with
      | Lvar v -> bind st env v (Some e)
      | Lfield (Lvar v, _) -> forget st env [ v ]
      | Lindex (arr, idxs) | Lfield (Lindex (arr, idxs), _) ->
          record st env arr (`Sc idxs) ~store:true;
          List.iter (collect st env) idxs;
          env
      | Lvec { v_arr; v_width; v_index } ->
          record st env v_arr (`Vec (v_width, v_index)) ~store:true;
          collect st env v_index;
          env
      | Lfield _ -> env)
  | Sync ->
      barrier st env "__syncthreads()" ~hard:env.hard
        ~soft:(List.filter (fun f -> f.fr_frozen && f.fr_tdep) env.frames)
        "__syncthreads() under thread-dependent control flow: threads that \
         skip the barrier deadlock or desynchronize the block";
      env
  | Global_sync ->
      barrier st env "__global_sync()"
        ~hard:(env.frames <> [] || env.guards <> [])
        ~soft:[] "__global_sync() must appear at kernel top level";
      env
  | If (cond, t, f) ->
      collect st env cond;
      let d = thread_dep env.binds env.frames cond in
      let seg =
        Printf.sprintf "if(%s)" (truncate_str 28 (Pp.expr_to_string cond))
      in
      let g_frames = List.rev env.frames in
      let branch g_cond =
        {
          env with
          guards = { g_cond; g_binds = env.binds; g_frames } :: env.guards;
          hard = env.hard || d;
          path = seg :: env.path;
        }
      in
      ignore (walk_block st (branch cond) t);
      ignore (walk_block st (branch (Unop (Not, cond))) f);
      forget st env (assigned_vars t @ assigned_vars f)
  | For ({ l_var; l_init; l_limit; l_step; l_body } as lp) ->
      let bounds = [ l_init; l_limit; l_step ] in
      List.iter (collect st env) bounds;
      let frozen = block_has_sync l_body in
      let tdep = List.exists (thread_dep env.binds env.frames) bounds in
      let fr_id = st.next_id in
      st.next_id <- fr_id + 1;
      let ctx = st.scope.loop env.ctx lp in
      let pass fr_offset =
        let fr =
          {
            fr_id;
            fr_var = l_var;
            fr_init = l_init;
            fr_limit = l_limit;
            fr_step = l_step;
            fr_frozen = frozen;
            fr_tdep = tdep;
            fr_offset;
            fr_binds = env.binds;
          }
        in
        ignore
          (walk_block st
             {
               env with
               frames = fr :: env.frames;
               ctx;
               (* a barrier under a lane-dependent frozen loop is a soft
                  divergence (see [barrier]); a loop without a barrier
                  cannot hold one, so its dependence only matters to
                  nested branches *)
               hard = env.hard || (tdep && not frozen);
               path = Printf.sprintf "for(%s)" l_var :: env.path;
               frozen_depth = (env.frozen_depth + if frozen then 1 else 0);
             }
             l_body)
      in
      pass 0;
      if frozen && env.frozen_depth < 2 then pass 1;
      forget st env (l_var :: assigned_vars l_body)

let walk scope ctx (k : Ast.kernel) =
  let st =
    {
      scope;
      spaces = spaces_of k;
      interval = 0;
      next_id = 0;
      accs = [];
      barriers = [];
    }
  in
  let env0 =
    {
      binds = [];
      frames = [];
      guards = [];
      ctx;
      hard = false;
      path = [];
      frozen_depth = 0;
    }
  in
  ignore (walk_block st env0 k.k_body);
  { accs = List.rev st.accs; barriers = List.rev st.barriers }

(* --- grouping --- *)

(* group by key, each group in input order; groups come in hash-table
   iteration order, which is deterministic for a given input *)
let group_by key xs =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun x ->
      let k = key x in
      Hashtbl.replace tbl k
        (x :: Option.value (Hashtbl.find_opt tbl k) ~default:[]))
    xs;
  let out = ref [] in
  Hashtbl.iter (fun k g -> out := (k, List.rev g) :: !out) tbl;
  List.rev !out

let races accs =
  group_by (fun a -> a.a_interval) accs
  |> List.sort (fun (i, _) (j, _) -> compare i j)
  |> List.map (fun (_, group) ->
         group_by (fun a -> a.a_arr) group
         |> List.filter (fun (_, g) -> List.exists (fun a -> a.a_store) g))

let sites accs =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun a ->
      let key = (a.a_path, a.a_arr, a.a_store, acc_expr a) in
      (not (Hashtbl.mem seen key))
      && begin
           Hashtbl.replace seen key ();
           true
         end)
    accs
