(** Shared helpers for the optimization passes. *)

open Gpcc_ast

(** Outcome of one pass over one kernel: the (possibly) transformed kernel
    and launch configuration, plus a human-readable trace — the paper's
    "understandable optimization process". *)
type outcome = {
  kernel : Ast.kernel;
  launch : Ast.launch;
  fired : bool;
  notes : string list;
}

let unchanged ?(notes = []) kernel launch = { kernel; launch; fired = false; notes }
let changed ?(notes = []) kernel launch = { kernel; launch; fired = true; notes }

let global_arrays (k : Ast.kernel) : string list =
  List.filter_map
    (fun (p : Ast.param) ->
      match p.p_ty with
      | Array { space = Global; _ } -> Some p.p_name
      | _ -> None)
    k.k_params

let shared_arrays (b : Ast.block) : string list =
  Rewrite.declared_vars b
  |> List.filter_map (fun (n, ty) ->
         match ty with
         | Ast.Array { space = Shared; _ } -> Some n
         | _ -> None)

(** Every name already used in the kernel (params + declarations),
    for fresh-name generation. *)
let used_names (k : Ast.kernel) : string list =
  List.map (fun (p : Ast.param) -> p.p_name) k.k_params
  @ List.map fst (Rewrite.declared_vars k.k_body)

(* [taken] holds the seeds and every result. [next] holds, per base, a
   suffix below which every [base_i] is taken: the bound stays exact
   because [taken] only grows, so the scan for a base's next free suffix
   resumes where the last one stopped. [taken] is built on the first
   request: most pass calls name nothing, and a table of a large
   kernel's names is allocated straight into the major heap. *)
type names = {
  taken : (string, unit) Hashtbl.t Lazy.t;
  next : (string, int) Hashtbl.t;
}

let name_supply (used : string list) : names =
  let taken =
    lazy
      (let t = Hashtbl.create (2 * List.length used + 16) in
       List.iter (fun nm -> Hashtbl.replace t nm ()) used;
       t)
  in
  { taken; next = Hashtbl.create 16 }

let fresh_name (s : names) (base : string) : string =
  let taken = Lazy.force s.taken in
  let nm =
    if not (Hashtbl.mem taken base) then base
    else
      let rec go i =
        let cand = Printf.sprintf "%s_%d" base i in
        if Hashtbl.mem taken cand then go (i + 1)
        else begin
          Hashtbl.replace s.next base (i + 1);
          cand
        end
      in
      go (Option.value (Hashtbl.find_opt s.next base) ~default:0)
  in
  Hashtbl.replace taken nm ();
  nm

(** A supply avoiding every name of the kernel. *)
let kernel_names (k : Ast.kernel) : names = name_supply (used_names k)

let fresh (k : Ast.kernel) base = fresh_name (kernel_names k) base

(** Fresh names for [bases], distinct from the kernel's and each other. *)
let fresh_many (k : Ast.kernel) bases =
  List.map (fresh_name (kernel_names k)) bases

(** Replace syntactic occurrences of one expression by another, everywhere
    in a block (used to swap a staged global access for its shared copy). *)
let replace_expr (from_e : Ast.expr) (to_e : Ast.expr) (b : Ast.block) :
    Ast.block =
  Rewrite.map_block_exprs
    (fun e -> if Ast.equal_expr e from_e then Some to_e else None)
    b

let replace_expr_in (from_e : Ast.expr) (to_e : Ast.expr) (e : Ast.expr) :
    Ast.expr =
  Rewrite.map_expr
    (fun e' -> if Ast.equal_expr e' from_e then Some to_e else None)
    e

(** Light constant folding / algebraic cleanup so that emitted kernels read
    like the paper's examples. *)
let simplify_expr (e : Ast.expr) : Ast.expr =
  Rewrite.map_expr
    (function
      | Binop (Add, Int_lit a, Int_lit b) -> Some (Int_lit (a + b))
      | Binop (Sub, Int_lit a, Int_lit b) -> Some (Int_lit (a - b))
      | Binop (Mul, Int_lit a, Int_lit b) -> Some (Int_lit (a * b))
      | Binop (Add, e, Int_lit 0) | Binop (Add, Int_lit 0, e) -> Some e
      | Binop (Sub, e, Int_lit 0) -> Some e
      | Binop (Mul, e, Int_lit 1) | Binop (Mul, Int_lit 1, e) -> Some e
      | Binop (Mul, _, Int_lit 0) | Binop (Mul, Int_lit 0, _) ->
          Some (Int_lit 0)
      | Binop (Add, Binop (Add, a, Int_lit b), Int_lit c) ->
          Some (Binop (Add, a, Int_lit (b + c)))
      | Binop (Sub, Binop (Add, a, b), b') when Ast.equal_expr b b' -> Some a
      | _ -> None)
    e

let simplify_block (b : Ast.block) : Ast.block =
  Rewrite.map_block_exprs (fun e -> Some (simplify_expr e)) b

(** The thread domain the kernel's fine-grain work items cover: the
    extents of [idx] and [idy]. Taken from the first output array's
    dimensions ([W] for 1-D, [H][W] -> (W, H)); kernels whose thread count
    is not its output shape (e.g. reductions) override via
    [#pragma gpcc dim __threads_x N] / [__threads_y N]. *)
let thread_domain (k : Ast.kernel) : (int * int) option =
  match
    ( List.assoc_opt "__threads_x" k.k_sizes,
      List.assoc_opt "__threads_y" k.k_sizes )
  with
  | Some x, Some y -> Some (x, y)
  | Some x, None -> Some (x, 1)
  | _ -> (
      match k.k_output with
      | out :: _ -> (
          match Ast.param_ty k out with
          | Some (Array { dims = [ w ]; _ }) -> Some (w, 1)
          | Some (Array { dims = [ h; w ]; _ }) -> Some (w, h)
          | _ -> None)
      | [] -> None)

(** Launch configuration the optimization pipeline starts from: one half
    warp per block (the coalescing phase's working shape). *)
let initial_launch (k : Ast.kernel) : Ast.launch option =
  match thread_domain k with
  | Some (dx, dy) when dx mod 16 = 0 ->
      Some { Ast.grid_x = dx / 16; grid_y = dy; block_x = 16; block_y = 1 }
  | _ -> None

(** A typical hand-written launch for the naive kernel (the baseline the
    paper's Figure 11 speedups are measured against): 16x16 blocks for 2-D
    domains, 256-wide blocks for 1-D. *)
let naive_launch (k : Ast.kernel) : Ast.launch option =
  match thread_domain k with
  | Some (dx, 1) when dx mod 256 = 0 ->
      Some { Ast.grid_x = dx / 256; grid_y = 1; block_x = 256; block_y = 1 }
  | Some (dx, 1) when dx mod 16 = 0 ->
      Some { Ast.grid_x = dx / 16; grid_y = 1; block_x = 16; block_y = 1 }
  | Some (dx, dy) when dx mod 16 = 0 && dy mod 16 = 0 ->
      Some { Ast.grid_x = dx / 16; grid_y = dy / 16; block_x = 16; block_y = 16 }
  | Some (dx, dy) when dx mod 16 = 0 ->
      Some { Ast.grid_x = dx / 16; grid_y = dy; block_x = 16; block_y = 1 }
  | _ -> None
