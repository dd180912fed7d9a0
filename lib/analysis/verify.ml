(** Static kernel verifier (see the interface for the rule catalogue).

    The implementation has four moving parts:

    1. the {!Walk} over the kernel body, shared with {!Symverify}, which
       numbers barrier intervals, snapshots every memory access with its
       guards, enclosing loops, scalar bindings and {!Affine} context,
       and classifies barriers that may diverge;
    2. a {e concrete evaluator} for integer expressions under one
       thread's coordinates plus loop-iteration bindings — this is what
       lets the race check intersect per-thread access sets exactly,
       including the mod/div index rotations the passes introduce;
    3. a {e strided-interval} range analysis (value range plus a
       congruence stride) with affine guard refinement, used to prove
       indices in-bounds;
    4. enumeration drivers that combine 1+2 to build per-interval
       address tables (races, bank conflicts) and to hunt concrete
       out-of-bounds witnesses when 3 cannot prove safety. *)

open Gpcc_ast
open Walk

type severity =
  | Error
  | Warning

type diagnostic = {
  severity : severity;
  rule : string;
  kernel : string;
  path : string;
  message : string;
}

let rule_race_shared = "race-shared"
let rule_race_global = "race-global"
let rule_barrier_divergence = "barrier-divergence"
let rule_oob_shared = "oob-shared"
let rule_oob_global = "oob-global"
let rule_oob_unproven = "oob-unproven"
let rule_bank_conflict = "bank-conflict"
let rule_noncoalesced = "noncoalesced"
let rule_verify_incomplete = "verify-incomplete"
let severity_to_string = function Error -> "error" | Warning -> "warning"

let to_string d =
  Printf.sprintf "%s[%s] %s%s: %s"
    (severity_to_string d.severity)
    d.rule d.kernel
    (if d.path = "" then "" else " at " ^ d.path)
    d.message

let errors = List.filter (fun d -> d.severity = Error)
let warnings = List.filter (fun d -> d.severity = Warning)
let is_clean ds = errors ds = []

(* --- JSON emission (hand-rolled; bin and CI consume it) --- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_of_diagnostic d =
  Printf.sprintf
    {|{"severity":"%s","rule":"%s","kernel":"%s","path":"%s","message":"%s"}|}
    (severity_to_string d.severity)
    (json_escape d.rule) (json_escape d.kernel) (json_escape d.path)
    (json_escape d.message)

let json_of_diagnostics ds =
  "[" ^ String.concat "," (List.map json_of_diagnostic ds) ^ "]"

(* --- concrete integer evaluation under one thread --- *)

type cenv = {
  c_launch : Ast.launch;
  c_sizes : (string * int) list;
  c_tidx : int;
  c_tidy : int;
  c_bidx : int;
  c_bidy : int;
  c_binds : binds;
}

exception Unknown

let rec eval_int (env : cenv) (e : Ast.expr) : int =
  match e with
  | Int_lit n -> n
  | Float_lit _ -> raise Unknown
  | Builtin b -> (
      let l = env.c_launch in
      match b with
      | Tidx -> env.c_tidx
      | Tidy -> env.c_tidy
      | Bidx -> env.c_bidx
      | Bidy -> env.c_bidy
      | Bdimx -> l.block_x
      | Bdimy -> l.block_y
      | Gdimx -> l.grid_x
      | Gdimy -> l.grid_y
      | Idx -> (env.c_bidx * l.block_x) + env.c_tidx
      | Idy -> (env.c_bidy * l.block_y) + env.c_tidy)
  | Var v -> (
      match assoc_split v env.c_binds with
      | Some (Bval n, _) -> n
      | Some (Bexpr e', rest) -> eval_int { env with c_binds = rest } e'
      | Some (Bunknown, _) -> raise Unknown
      | None -> (
          match List.assoc_opt v env.c_sizes with
          | Some n -> n
          | None -> raise Unknown))
  | Unop (Neg, a) -> -eval_int env a
  | Unop (Not, a) -> if eval_int env a = 0 then 1 else 0
  | Binop (And, a, b) ->
      if eval_int env a = 0 then 0 else if eval_int env b <> 0 then 1 else 0
  | Binop (Or, a, b) ->
      if eval_int env a <> 0 then 1 else if eval_int env b <> 0 then 1 else 0
  | Binop (op, a, b) -> (
      let x = eval_int env a and y = eval_int env b in
      match op with
      | Add -> x + y
      | Sub -> x - y
      | Mul -> x * y
      | Div -> if y = 0 then raise Unknown else x / y
      (* mathematical mod, matching the simulator *)
      | Mod -> if y = 0 then raise Unknown else ((x mod y) + y) mod y
      | Lt -> if x < y then 1 else 0
      | Le -> if x <= y then 1 else 0
      | Gt -> if x > y then 1 else 0
      | Ge -> if x >= y then 1 else 0
      | Eq -> if x = y then 1 else 0
      | Ne -> if x <> y then 1 else 0
      | And | Or -> assert false)
  | Call ("min", [ a; b ]) -> min (eval_int env a) (eval_int env b)
  | Call ("max", [ a; b ]) -> max (eval_int env a) (eval_int env b)
  | Select (c, a, b) ->
      if eval_int env c <> 0 then eval_int env a else eval_int env b
  | Index _ | Vload _ | Field _ | Call _ -> raise Unknown

let eval_opt env e = try Some (eval_int env e) with Unknown -> None
let eval_bool_opt env e = try Some (eval_int env e <> 0) with Unknown -> None

(* --- strided intervals: value range plus congruence stride --- *)

(** Values of [s] lie in [[s.lo, s.hi]] and are all congruent to [s.lo]
    modulo [s.st]; a singleton ([lo = hi]) has [st = 0], meaning every
    stride divides it (so [gcd] combines it for free), otherwise
    [st >= 1] and [hi ≡ lo (mod st)]. The stride is what lets a guard
    like [i + 16 < w] on a step-16 loop round down to the last
    actually-reachable iterate. *)
type si = { lo : int; hi : int; st : int }

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)
let si_const n = { lo = n; hi = n; st = 0 }

let si_norm s =
  if s.hi <= s.lo then { s with hi = s.lo; st = 0 }
  else { s with hi = s.lo + ((s.hi - s.lo) / s.st * s.st) }

let si_add a b =
  si_norm { lo = a.lo + b.lo; hi = a.hi + b.hi; st = gcd a.st b.st }

let si_neg a = si_norm { lo = -a.hi; hi = -a.lo; st = a.st }
let si_sub a b = si_add a (si_neg b)

let si_scale k a =
  if k = 0 then si_const 0
  else if k > 0 then { lo = k * a.lo; hi = k * a.hi; st = k * a.st }
  else { lo = k * a.hi; hi = k * a.lo; st = -k * a.st }

let si_mul a b =
  if a.lo = a.hi then si_scale a.lo b
  else if b.lo = b.hi then si_scale b.lo a
  else
    let cs = [ a.lo * b.lo; a.lo * b.hi; a.hi * b.lo; a.hi * b.hi ] in
    si_norm
      {
        lo = List.fold_left min max_int cs;
        hi = List.fold_left max min_int cs;
        st = 1;
      }

(* for two-alternative combinations (hull / min / max) the stride must
   also divide the offset between the two residue classes *)
let si_hull a b =
  let st = gcd (gcd a.st b.st) (a.lo - b.lo) in
  si_norm { lo = min a.lo b.lo; hi = max a.hi b.hi; st }

let si_min a b =
  let st = gcd (gcd a.st b.st) (a.lo - b.lo) in
  si_norm { lo = min a.lo b.lo; hi = min a.hi b.hi; st }

let si_max a b =
  let st = gcd (gcd a.st b.st) (a.lo - b.lo) in
  si_norm { lo = max a.lo b.lo; hi = max a.hi b.hi; st }

(** [a mod c] under mathematical mod, for a constant [c > 0]. *)
let si_mod a c =
  if a.lo >= 0 && a.hi < c then a
  else
    let g = max 1 (gcd a.st c) in
    let lo = ((a.lo mod g) + g) mod g in
    si_norm { lo; hi = lo + ((c - 1 - lo) / g * g); st = g }

(** [a / c] (truncating division is monotone), for a constant [c > 0]. *)
let si_div a c = si_norm { lo = a.lo / c; hi = a.hi / c; st = 1 }

(** Clamp [b] into [[lo, hi]] respecting [b]'s residue class. [None]
    when the intersection is empty (the governing guards are
    unsatisfiable, so the access never executes). *)
let si_clamp b ~lo ~hi =
  if b.lo = b.hi then if b.lo >= lo && b.lo <= hi then Some b else None
  else
    let lo' =
      if b.lo >= lo then b.lo else b.lo + ((lo - b.lo + b.st - 1) / b.st * b.st)
    and hi' =
      if b.hi <= hi then b.hi
      else if hi < b.lo then b.lo - b.st (* below the whole range: empty *)
      else b.lo + ((hi - b.lo) / b.st * b.st)
    in
    if hi' < lo' then None else Some (si_norm { lo = lo'; hi = hi'; st = b.st })

(* --- walk scope and diagnostics --- *)

(* an rhs no affine analysis can see through, used to clear a ctx let *)
let opaque_rhs = Ast.Float_lit 0.0

(* the concrete tier's walk context: affine bindings and loops at the
   launch *)
let scope =
  {
    let_ =
      (fun c v e -> Affine.enter_let c v (Option.value e ~default:opaque_rhs));
    loop = (fun c lp -> Option.value (Affine.enter_loop c lp) ~default:c);
  }

type state = {
  kernel : string;
  mutable diags : diagnostic list;
}

let diag st ?(severity = Error) ~rule ~path message =
  st.diags <- { severity; rule; kernel = st.kernel; path; message } :: st.diags

type acc = Affine.ctx Walk.acc

(* --- enumeration: windows of loop-iteration values per thread --- *)

let race_window = 6
let witness_window = 8

let mk_cenv (launch : Ast.launch) sizes ~bidx ~bidy ~lane base dyn =
  {
    c_launch = launch;
    c_sizes = sizes;
    c_tidx = lane mod launch.block_x;
    c_tidy = lane / launch.block_x;
    c_bidx = bidx;
    c_bidy = bidy;
    c_binds = base @ dyn;
  }

(** First [w] iteration values plus the last; [Some []] when the loop
    does not execute for this thread, [None] when the bounds cannot be
    evaluated. Returns the values paired with the evaluated limit. *)
let frame_window (launch : Ast.launch) sizes ~bidx ~bidy ~lane ~dyn ~w
    (fr : frame) :
    (int list * int) option =
  let env = mk_cenv launch sizes ~bidx ~bidy ~lane fr.fr_binds dyn in
  match (eval_opt env fr.fr_init, eval_opt env fr.fr_step) with
  | Some v0, Some step when step > 0 -> (
      match eval_opt env fr.fr_limit with
      | Some lim when lim > v0 ->
          let trips = (lim - v0 + step - 1) / step in
          let wn = min w trips in
          let first = List.init wn (fun i -> v0 + (i * step)) in
          let last = v0 + ((trips - 1) * step) in
          Some ((if trips > wn then first @ [ last ] else first), lim)
      | Some lim -> Some ([], lim)
      | None -> None)
  | _ -> None

let sample_axis n cap =
  if n <= cap then List.init n Fun.id
  else List.sort_uniq compare (List.init cap (fun i -> i * (n - 1) / (cap - 1)))

(** Can every thread of any one block be shown to run the loop the same
    number of times? (Grid-strided loops like
    [for (i = idx; i < len; i += nt)] may then contain barriers.)
    Concretely evaluates the trip count per (block, lane); large grids
    are sampled per axis (corners plus a strided interior), so
    acceptance is empirical beyond the cap — in keeping with the
    verifier's lint-grade charter — while rejection (returning [false])
    reports the barrier as divergent. *)
let uniform_trip_count (launch : Ast.launch) sizes (fr : frame) : bool =
  let lanes = launch.block_x * launch.block_y in
  lanes <= 512
  &&
  let trip ~bidx ~bidy lane =
    let env = mk_cenv launch sizes ~bidx ~bidy ~lane fr.fr_binds [] in
    match
      ( eval_opt env fr.fr_init,
        eval_opt env fr.fr_limit,
        eval_opt env fr.fr_step )
    with
    | Some v0, Some lim, Some step when step > 0 ->
        Some (if lim <= v0 then 0 else (lim - v0 + step - 1) / step)
    | _ -> None
  in
  try
    List.iter
      (fun bidx ->
        List.iter
          (fun bidy ->
            match trip ~bidx ~bidy 0 with
            | None -> raise Exit
            | Some t0 ->
                for lane = 1 to lanes - 1 do
                  if trip ~bidx ~bidy lane <> Some t0 then raise Exit
                done)
          (sample_axis launch.grid_y 64))
      (sample_axis launch.grid_x 64);
    true
  with Exit -> false

(** Run [f] on every concrete environment of [acc]'s free (non-frozen)
    loop frames, with frozen frames pre-bound via [frozen]: a map from
    loop variable to [(base, step, limit)] computed at lane 0; the
    frame's [fr_offset] advances the base by one step, skipping
    iterations past the limit. When the loop's bounds evaluate per lane
    (grid-strided loops), the binding is rebased to this lane's own
    init so lane-dependent uniform-trip loops are modeled faithfully.
    Guards are checked; an unevaluable guard passes when [lenient]. *)
let enum_access (launch : Ast.launch) sizes ~bidx ~bidy ~lane ~lenient ~w
    ~(frozen : (string * (int * int * int)) list) (acc : acc)
    (f : cenv -> unit) : unit =
  let ok_frozen = ref true in
  let frozen_dyn =
    List.fold_left
      (fun dyn fr ->
        if not fr.fr_frozen then dyn
        else
          match List.assoc_opt fr.fr_var frozen with
          | None ->
              ok_frozen := false;
              dyn
          | Some (base, step, lim) ->
              let d = List.rev dyn in
              let env0 =
                mk_cenv launch sizes ~bidx ~bidy ~lane:0 fr.fr_binds d
              in
              let envl =
                mk_cenv launch sizes ~bidx ~bidy ~lane fr.fr_binds d
              in
              let v, vlim =
                match
                  ( eval_opt env0 fr.fr_init,
                    eval_opt envl fr.fr_init,
                    eval_opt envl fr.fr_limit )
                with
                | Some i0, Some il, Some ll ->
                    (base - i0 + il + (fr.fr_offset * step), ll)
                | _ -> (base + (fr.fr_offset * step), lim)
              in
              if v >= vlim then begin
                ok_frozen := false;
                dyn
              end
              else (fr.fr_var, Bval v) :: dyn)
      [] acc.a_frames
    |> List.rev
  in
  if !ok_frozen then begin
    let free = List.filter (fun fr -> not fr.fr_frozen) acc.a_frames in
    let rec go dyn = function
      | [] ->
          let guards_ok =
            List.for_all
              (fun g ->
                let genv =
                  mk_cenv launch sizes ~bidx ~bidy ~lane g.g_binds dyn
                in
                match eval_bool_opt genv g.g_cond with
                | Some b -> b
                | None -> lenient)
              acc.a_guards
          in
          if guards_ok then
            f (mk_cenv launch sizes ~bidx ~bidy ~lane acc.a_binds dyn)
      | fr :: rest -> (
          match frame_window launch sizes ~bidx ~bidy ~lane ~dyn ~w fr with
          | Some (vs, _) ->
              List.iter (fun v -> go ((fr.fr_var, Bval v) :: dyn) rest) vs
          | None -> ())
    in
    go frozen_dyn free
  end

(** Flattened element offsets touched by one access instance, or [None]
    when an index cannot be evaluated. *)
let acc_offsets (lay : Layout.t) (acc : acc) (env : cenv) : int list option =
  match acc.a_kind with
  | `Sc idxs ->
      let strides = Layout.strides lay in
      if List.length idxs <> List.length strides then None
      else begin
        try
          Some
            [
              List.fold_left2
                (fun off e st -> off + (eval_int env e * st))
                0 idxs strides;
            ]
        with Unknown -> None
      end
  | `Vec (w, ie) -> (
      match eval_opt env ie with
      | Some v -> Some (List.init w (fun q -> (v * w) + q))
      | None -> None)

(* --- race detection per barrier interval --- *)

(** Joint assignments of the frozen loop variables of an interval:
    windows are computed with lane 0 of the sampled block; lanes of a
    lane-dependent (uniform-trip) loop are rebased in {!enum_access}.
    Each assignment maps variable -> (base, step, limit). *)
let frozen_assignments (launch : Ast.launch) sizes ~bidx ~bidy
    (group : acc list) :
    (string * (int * int * int)) list list =
  let frames =
    List.fold_left
      (fun seen a ->
        List.fold_left
          (fun seen fr ->
            if
              fr.fr_frozen && fr.fr_offset = 0
              && not (List.exists (fun f -> String.equal f.fr_var fr.fr_var) seen)
            then seen @ [ fr ]
            else seen)
          seen a.a_frames)
      [] group
  in
  List.fold_left
    (fun asns fr ->
      List.concat_map
        (fun asn ->
          let dyn = List.map (fun (v, (b, _, _)) -> (v, Bval b)) asn in
          match
            frame_window launch sizes ~bidx ~bidy ~lane:0 ~dyn ~w:race_window
              fr
          with
          | Some (vs, lim) -> (
              match eval_opt
                      (mk_cenv launch sizes ~bidx ~bidy ~lane:0 fr.fr_binds dyn)
                      fr.fr_step
              with
              | Some step ->
                  List.map (fun v -> asn @ [ (fr.fr_var, (v, step, lim)) ]) vs
              | None -> [ asn ])
          | None -> [ asn ])
        asns)
    [ [] ] frames

let check_races st (launch : Ast.launch) sizes layouts ~lanes ~dedup_pairs
    ((arr, accs) : string * acc list) : unit =
  match Layout.find layouts arr with
  | None -> ()
  | Some lay -> (
      let blocks =
        List.sort_uniq compare
          [ (0, 0); (launch.grid_x - 1, launch.grid_y - 1) ]
      in
      let space = (List.hd accs).a_space in
      let report lane1 st1 p1 lane2 st2 p2 ~bidx ~bidy off =
        let key = (arr, min p1 p2, max p1 p2) in
        if not (Hashtbl.mem dedup_pairs key) then begin
          Hashtbl.replace dedup_pairs key ();
          let rule =
            if space = `Shared then rule_race_shared else rule_race_global
          in
          let rw s = if s then "write" else "read" in
          diag st ~rule ~path:p1
            (Printf.sprintf
               "threads %d and %d of block (%d,%d) touch %s element %d in \
                the same barrier interval (%s at %s, %s at %s): insert \
                __syncthreads() between the accesses"
               lane1 lane2 bidx bidy arr off (rw st1)
               (if p1 = "" then "top level" else p1)
               (rw st2)
               (if p2 = "" then "top level" else p2))
        end
      in
      let exception Found in
      try
        List.iter
          (fun (bidx, bidy) ->
            List.iter
              (fun frozen ->
                (* element -> one write and one read seen, if any *)
                let writes = Hashtbl.create 64
                and reads = Hashtbl.create 64 in
                let conflict = ref None in
                List.iter
                  (fun acc ->
                    for lane = 0 to lanes - 1 do
                      enum_access launch sizes ~bidx ~bidy ~lane ~lenient:true
                        ~w:race_window ~frozen acc (fun env ->
                          match acc_offsets lay acc env with
                          | None -> ()
                          | Some offs ->
                              List.iter
                                (fun off ->
                                  if !conflict = None then begin
                                    (match Hashtbl.find_opt writes off with
                                    | Some (l2, p2) when l2 <> lane ->
                                        conflict :=
                                          Some
                                            ( lane, acc.a_store, acc.a_path,
                                              l2, true, p2, off )
                                    | _ -> ());
                                    if acc.a_store then begin
                                      (match Hashtbl.find_opt reads off with
                                      | Some (l2, p2) when l2 <> lane ->
                                          conflict :=
                                            Some
                                              ( lane, true, acc.a_path, l2,
                                                false, p2, off )
                                      | _ -> ());
                                      Hashtbl.replace writes off
                                        (lane, acc.a_path)
                                    end
                                    else
                                      Hashtbl.replace reads off
                                        (lane, acc.a_path)
                                  end)
                                offs)
                    done)
                  accs;
                match !conflict with
                | Some (l1, s1, p1, l2, s2, p2, off) ->
                    report l1 s1 p1 l2 s2 p2 ~bidx ~bidy off;
                    raise Found
                | None -> ())
              (frozen_assignments launch sizes ~bidx ~bidy accs))
          blocks
      with Found -> ())

(* --- bounds checking: strided intervals + affine guard refinement --- *)

type renv = {
  r_launch : Ast.launch;
  r_sizes : (string * int) list;
  r_binds : binds;
  r_iters : (string * si) list;  (** loop var -> range of its value *)
  r_trips : (string * si) list;  (** loop var -> range of [Affine.Iter] *)
  r_ctx : Affine.ctx;
  r_over : (Affine.var * (int option * int option)) list;
      (** guard-derived bounds per affine variable *)
}

let fdiv a b = if a >= 0 then a / b else -(((-a) + b - 1) / b)
let cdiv a b = if a >= 0 then (a + b - 1) / b else -((-a) / b)

let rec var_si (env : renv) (v : Affine.var) : si option =
  let dim n = Some (si_norm { lo = 0; hi = n - 1; st = 1 }) in
  let base =
    match v with
    | Affine.Tidx -> dim env.r_launch.block_x
    | Tidy -> dim env.r_launch.block_y
    | Bidx -> dim env.r_launch.grid_x
    | Bidy -> dim env.r_launch.grid_y
    | Iter name -> List.assoc_opt name env.r_trips
    | Param _ -> None
    | Mod_of (v', c) when c > 0 -> Option.map (fun s -> si_mod s c) (var_si env v')
    | Div_of (v', c) when c > 0 -> Option.map (fun s -> si_div s c) (var_si env v')
    | Mod_of _ | Div_of _ -> None
  in
  match (List.assoc_opt v env.r_over, base) with
  | None, b -> b
  | Some _, None -> None
  | Some (lo, hi), Some b ->
      si_clamp b
        ~lo:(Option.value lo ~default:b.lo)
        ~hi:(Option.value hi ~default:b.hi)

let si_of_affine (env : renv) (f : Affine.t) : si option =
  List.fold_left
    (fun acc (v, c) ->
      match (acc, var_si env v) with
      | Some a, Some s -> Some (si_add a (si_scale c s))
      | _ -> None)
    (Some (si_const f.const))
    f.terms

let rec range_expr (env : renv) (e : Ast.expr) : si option =
  let affine =
    match Affine.of_expr env.r_ctx e with
    | Some f -> si_of_affine env f
    | None -> None
  in
  (* the affine form is exact on correlations (e.g. [idx - tidx]) but
     decomposes a loop variable as init + step·iter, losing the limit
     clamp; the structural walk has the clamp but no correlations — so
     intersect the two *)
  match (affine, structural_range env e) with
  | Some a, Some s ->
      Some (Option.value (si_clamp a ~lo:s.lo ~hi:s.hi) ~default:a)
  | (Some _ as r), None | None, r -> r

and structural_range (env : renv) (e : Ast.expr) : si option =
  let ( let* ) = Option.bind in
  match e with
  | Int_lit n -> Some (si_const n)
  | Float_lit _ -> None
  | Builtin b ->
      let l = env.r_launch in
      let dim n = Some (si_norm { lo = 0; hi = n - 1; st = 1 }) in
      (match b with
      | Tidx -> dim l.block_x
      | Tidy -> dim l.block_y
      | Bidx -> dim l.grid_x
      | Bidy -> dim l.grid_y
      | Idx -> dim (l.grid_x * l.block_x)
      | Idy -> dim (l.grid_y * l.block_y)
      | Bdimx -> Some (si_const l.block_x)
      | Bdimy -> Some (si_const l.block_y)
      | Gdimx -> Some (si_const l.grid_x)
      | Gdimy -> Some (si_const l.grid_y))
  | Var v -> (
      match List.assoc_opt v env.r_iters with
      | Some s -> Some s
      | None -> (
          match assoc_split v env.r_binds with
          | Some (Bval n, _) -> Some (si_const n)
          | Some (Bexpr e', rest) ->
              range_expr { env with r_binds = rest } e'
          | Some (Bunknown, _) -> None
          | None -> Option.map si_const (List.assoc_opt v env.r_sizes)))
  | Unop (Neg, a) -> Option.map si_neg (range_expr env a)
  | Unop (Not, _) -> Some { lo = 0; hi = 1; st = 1 }
  | Binop (Add, a, b) ->
      let* x = range_expr env a in
      let* y = range_expr env b in
      Some (si_add x y)
  | Binop (Sub, a, b) ->
      let* x = range_expr env a in
      let* y = range_expr env b in
      Some (si_sub x y)
  | Binop (Mul, a, b) ->
      let* x = range_expr env a in
      let* y = range_expr env b in
      Some (si_mul x y)
  | Binop (Div, a, b) -> (
      let* y = range_expr env b in
      if y.lo = y.hi && y.lo > 0 then
        let* x = range_expr env a in
        Some (si_div x y.lo)
      else None)
  | Binop (Mod, a, b) -> (
      let* y = range_expr env b in
      if y.lo = y.hi && y.lo > 0 then
        let* x = range_expr env a in
        Some (si_mod x y.lo)
      else None)
  | Binop ((Lt | Le | Gt | Ge | Eq | Ne | And | Or), _, _) ->
      Some { lo = 0; hi = 1; st = 1 }
  | Call ("min", [ a; b ]) ->
      let* x = range_expr env a in
      let* y = range_expr env b in
      Some (si_min x y)
  | Call ("max", [ a; b ]) ->
      let* x = range_expr env a in
      let* y = range_expr env b in
      Some (si_max x y)
  | Select (_, a, b) ->
      let* x = range_expr env a in
      let* y = range_expr env b in
      Some (si_hull x y)
  | Index _ | Vload _ | Field _ | Call _ -> None

(** Refine per-variable bounds from one guard condition: a constraint
    whose affine difference has a single variable pins that variable. *)
let rec refine_guard (env : renv) (cond : Ast.expr) : renv =
  let add_le f bound env =
    (* constraint: f <= bound *)
    match f.Affine.terms with
    | [ (v, c) ] when c <> 0 ->
        let limit = bound - f.Affine.const in
        let lo0, hi0 =
          match List.assoc_opt v env.r_over with
          | Some b -> b
          | None -> (None, None)
        in
        let bnds =
          if c > 0 then
            let u = fdiv limit c in
            (lo0, Some (match hi0 with Some h -> min h u | None -> u))
          else
            let l = cdiv (-limit) (-c) in
            ((Some (match lo0 with Some l0 -> max l0 l | None -> l)), hi0)
        in
        { env with r_over = (v, bnds) :: List.remove_assoc v env.r_over }
    | _ -> env
  in
  match cond with
  | Binop (And, a, b) -> refine_guard (refine_guard env a) b
  | Unop (Not, Binop (Lt, a, b)) -> refine_guard env (Binop (Ge, a, b))
  | Unop (Not, Binop (Le, a, b)) -> refine_guard env (Binop (Gt, a, b))
  | Unop (Not, Binop (Gt, a, b)) -> refine_guard env (Binop (Le, a, b))
  | Unop (Not, Binop (Ge, a, b)) -> refine_guard env (Binop (Lt, a, b))
  | Binop (((Lt | Le | Gt | Ge | Eq) as op), a, b) -> (
      match (Affine.of_expr env.r_ctx a, Affine.of_expr env.r_ctx b) with
      | Some fa, Some fb -> (
          let d = Affine.sub fa fb in
          match op with
          | Lt -> add_le d (-1) env
          | Le -> add_le d 0 env
          | Gt -> add_le (Affine.scale (-1) d) (-1) env
          | Ge -> add_le (Affine.scale (-1) d) 0 env
          | Eq -> add_le (Affine.scale (-1) d) 0 (add_le d 0 env)
          | _ -> env)
      | _ -> env)
  | _ -> env

(** Build the range environment of one access: loop-variable ranges
    outer-to-inner, then guard refinement (two rounds, so a bound on one
    side of a comparison can tighten the other). *)
let renv_of_acc launch sizes (acc : acc) : renv =
  let base =
    {
      r_launch = launch;
      r_sizes = sizes;
      r_binds = acc.a_binds;
      r_iters = [];
      r_trips = [];
      r_ctx = acc.a_ctx;
      r_over = [];
    }
  in
  let env =
    List.fold_left
      (fun env fr ->
        let init = range_expr env fr.fr_init
        and limit = range_expr env fr.fr_limit
        and step = range_expr env fr.fr_step in
        match (init, limit, step) with
        | Some i, Some lim, Some st when st.lo = st.hi && st.lo > 0 ->
            let stv = max 1 (gcd i.st st.lo) in
            let hi_raw = lim.hi - 1 in
            let value =
              si_norm { lo = i.lo; hi = max i.lo hi_raw; st = stv }
            in
            let trips_hi = max 0 ((lim.hi - 1 - i.lo) / st.lo) in
            {
              env with
              r_iters = (fr.fr_var, value) :: env.r_iters;
              r_trips =
                (fr.fr_var, si_norm { lo = 0; hi = trips_hi; st = 1 })
                :: env.r_trips;
            }
        | _ -> env)
      base acc.a_frames
  in
  let refine env =
    List.fold_left (fun e g -> refine_guard e g.g_cond) env acc.a_guards
  in
  refine (refine env)

(** Hunt a concrete out-of-bounds witness by enumerating corner blocks,
    sampled lanes and iteration windows with guards evaluated strictly
    (an unevaluable guard skips the instance, so a hit is a real
    executable state). Returns [(dim, value, bound, lane, block)]. *)
let find_oob_witness (launch : Ast.launch) sizes lay (acc : acc) :
    (int * int * int * int * (int * int)) option =
  let gx = launch.grid_x and gy = launch.grid_y in
  let blocks =
    List.sort_uniq compare
      [
        (0, 0);
        (gx - 1, 0);
        (0, gy - 1);
        (gx - 1, gy - 1);
        ((gx - 1) / 2, (gy - 1) / 2);
      ]
  in
  let n = launch.block_x * launch.block_y in
  let lanes =
    if n <= 64 then List.init n (fun i -> i)
    else
      List.sort_uniq compare
        (List.concat
           [
             [ 0; 1; launch.block_x - 1; launch.block_x; n - 2; n - 1; n / 2 ];
             List.init 16 (fun i -> i * (n - 1) / 15);
           ])
      |> List.filter (fun l -> l >= 0 && l < n)
  in
  let found = ref None in
  let bounds =
    match acc.a_kind with
    | `Sc _ -> lay.Layout.pitches
    | `Vec _ -> [ Layout.size_elems lay ]
  in
  List.iter
    (fun (bidx, bidy) ->
      List.iter
        (fun lane ->
          if !found = None then
            enum_access launch sizes ~bidx ~bidy ~lane ~lenient:false
              ~w:witness_window ~frozen:[] acc (fun env ->
                if !found = None then
                  let idxs =
                    match acc.a_kind with
                    | `Sc idxs -> List.map (eval_opt env) idxs
                    | `Vec (w, ie) ->
                        [
                          Option.map
                            (fun v -> if v >= 0 then (v * w) + w - 1 else v * w)
                            (eval_opt env ie);
                        ]
                  in
                  List.iteri
                    (fun dim (value, bound) ->
                      match value with
                      | Some v when (v < 0 || v >= bound) && !found = None ->
                          found := Some (dim, v, bound, lane, (bidx, bidy))
                      | _ -> ())
                    (List.combine idxs bounds)))
        lanes)
    blocks;
  !found

let check_bounds st (launch : Ast.launch) sizes layouts (acc : acc) : unit =
  match Layout.find layouts acc.a_arr with
  | None -> ()
  | Some lay ->
      (* the frozen wrap pass duplicates each access; bounds are
         iteration-uniform, so treat every frame as free (offset 0) *)
      let acc =
        {
          acc with
          a_frames =
            List.map (fun f -> { f with fr_frozen = false; fr_offset = 0 })
              acc.a_frames;
        }
      in
      let env = renv_of_acc launch sizes acc in
      let dims =
        match acc.a_kind with
        | `Sc idxs ->
            if List.length idxs <> List.length lay.Layout.pitches then []
            else List.combine idxs lay.Layout.pitches
        | `Vec (w, ie) ->
            (* element range of the vector access against the flat size *)
            [ (Binop (Mul, ie, Int_lit w), Layout.size_elems lay - (w - 1)) ]
      in
      let unproven =
        List.filter_map
          (fun (e, bound) ->
            match range_expr env e with
            | Some s when s.lo >= 0 && s.hi < bound -> None
            | r -> Some (e, bound, r))
          dims
      in
      if unproven <> [] then begin
        let rule_err =
          if acc.a_space = `Shared then rule_oob_shared else rule_oob_global
        in
        match find_oob_witness launch sizes lay acc with
        | Some (_, v, bound, lane, (bx, by)) ->
            diag st ~rule:rule_err ~path:acc.a_path
              (Printf.sprintf
                 "%s indexes element %d of %s (extent %d) for thread %d of \
                  block (%d,%d)"
                 (acc_expr acc) v acc.a_arr bound lane bx by)
        | None ->
            let e, bound, r = List.hd unproven in
            diag st ~severity:Warning ~rule:rule_oob_unproven ~path:acc.a_path
              (Printf.sprintf
                 "cannot prove %s in bounds: index %s has %s, extent %d"
                 (acc_expr acc)
                 (Pp.expr_to_string e)
                 (match r with
                 | Some s -> Printf.sprintf "range [%d, %d]" s.lo s.hi
                 | None -> "no derivable range")
                 bound)
      end

(* --- bank conflicts on the first half-warp --- *)

let check_bank st (launch : Ast.launch) sizes layouts (acc : acc) : unit =
  if acc.a_space = `Shared then
    match Layout.find layouts acc.a_arr with
    | None -> ()
    | Some lay ->
        let n = launch.block_x * launch.block_y in
        let hw = min 16 n in
        if hw > 1 then begin
          (* first iteration of every loop, lenient guards: lanes whose
             guard fails do not participate in the request *)
          let acc =
            {
              acc with
              a_frames =
                List.map
                  (fun f -> { f with fr_frozen = false; fr_offset = 0 })
                  acc.a_frames;
            }
          in
          let addrs = ref [] in
          for lane = 0 to hw - 1 do
            enum_access launch sizes ~bidx:0 ~bidy:0 ~lane ~lenient:true ~w:1
              ~frozen:[] acc (fun env ->
                match acc_offsets lay acc env with
                | Some (off :: _) when not (List.mem_assoc lane !addrs) ->
                    addrs := (lane, off) :: !addrs
                | _ -> ())
          done;
          let banks = Hashtbl.create 16 in
          List.iter
            (fun (_, off) ->
              let b = ((off mod 16) + 16) mod 16 in
              let prev = try Hashtbl.find banks b with Not_found -> [] in
              if not (List.mem off prev) then
                Hashtbl.replace banks b (off :: prev))
            !addrs;
          let degree =
            Hashtbl.fold (fun _ offs m -> max m (List.length offs)) banks 1
          in
          if degree > 1 then
            diag st ~severity:Warning ~rule:rule_bank_conflict ~path:acc.a_path
              (Printf.sprintf
                 "%s serializes the first half-warp %d-way across shared \
                  banks (pad the minor dimension, e.g. [16][17])"
                 (acc_expr acc) degree)
        end

(* --- coalescing lint via Coalesce_check --- *)

let check_coalescing st launch (k : Ast.kernel) : unit =
  List.iter
    (fun (a : Coalesce_check.access) ->
      match a.verdict with
      | Coalesce_check.Noncoalesced reason ->
          let why =
            match reason with
            | Coalesce_check.Uniform ->
                "all 16 lanes of a half-warp read one address"
            | Strided s -> Printf.sprintf "lane-to-lane stride %d elements" s
            | Misaligned m -> "misaligned base: " ^ m
          in
          diag st ~severity:Warning ~rule:rule_noncoalesced ~path:""
            (Printf.sprintf "global access %s is not coalesced (%s)"
               (Pp.expr_to_string (Index (a.arr, a.indices)))
               why)
      | Coalesced | Unknown -> ())
    (Coalesce_check.analyze_kernel ~launch k)

(* --- driver --- *)

let check ?(max_lanes = 512) ~(launch : Ast.launch) (k : Ast.kernel) :
    diagnostic list =
  let sizes = k.k_sizes in
  let layouts = Layout.of_kernel k in
  let st = { kernel = k.k_name; diags = [] } in
  let w = walk scope (Affine.ctx_of_launch ~sizes launch) k in
  (* a soft barrier diverges unless every enclosing lane-dependent
     frozen loop runs a block-uniform trip count at this launch *)
  let uniform = Hashtbl.create 4 in
  let uniform fr =
    match Hashtbl.find_opt uniform fr.fr_id with
    | Some u -> u
    | None ->
        let u = uniform_trip_count launch sizes fr in
        Hashtbl.replace uniform fr.fr_id u;
        u
  in
  List.iter
    (fun b ->
      if b.b_hard || List.exists (fun fr -> not (uniform fr)) b.b_soft then
        diag st ~rule:rule_barrier_divergence ~path:b.b_path b.b_message)
    w.barriers;
  let accs = w.accs in
  let n = launch.block_x * launch.block_y in
  if
    n > max_lanes
    && List.exists
         (fun a -> a.a_store && Layout.find layouts a.a_arr <> None)
         accs
  then
    diag st ~severity:Warning ~rule:rule_verify_incomplete ~path:""
      (Printf.sprintf
         "race check enumerated only %d of %d lanes; the verdict for this \
          launch is incomplete"
         max_lanes n);
  (* races, interval by interval; the pair table dedups across them *)
  if n > 1 then begin
    let dedup_pairs = Hashtbl.create 32 in
    List.iter
      (List.iter
         (check_races st launch sizes layouts ~lanes:(min n max_lanes)
            ~dedup_pairs))
      (races accs)
  end;
  List.iter
    (fun a ->
      check_bounds st launch sizes layouts a;
      check_bank st launch sizes layouts a)
    (sites accs);
  check_coalescing st launch k;
  (* dedup, errors first, walk order otherwise *)
  let out = List.rev st.diags in
  let seen = Hashtbl.create 32 in
  let out =
    List.filter
      (fun d ->
        let key = (d.severity, d.rule, d.path, d.message) in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.replace seen key ();
          true
        end)
      out
  in
  List.stable_sort
    (fun a b ->
      compare
        (match a.severity with Error -> 0 | Warning -> 1)
        (match b.severity with Error -> 0 | Warning -> 1))
    out
