(** Lexer, parser and pretty-printer tests, including a QCheck
    print-parse round trip on randomly generated expressions. *)

open Gpcc_ast
open Util

let test_lex_tokens () =
  let toks = Lexer.tokenize "for (int i = 0; i < 16; i++) x += 2.5f;" in
  let kinds =
    List.map
      (fun (t, _) ->
        match t with
        | Lexer.KW s -> "kw:" ^ s
        | IDENT s -> "id:" ^ s
        | INT n -> "int:" ^ string_of_int n
        | FLOAT _ -> "float"
        | PUNCT p -> p
        | PRAGMA _ -> "pragma"
        | EOF -> "eof")
      toks
  in
  Alcotest.(check (list string))
    "token stream"
    [
      "kw:for"; "("; "kw:int"; "id:i"; "="; "int:0"; ";"; "id:i"; "<";
      "int:16"; ";"; "id:i"; "++"; ")"; "id:x"; "+="; "float"; ";"; "eof";
    ]
    kinds

let test_lex_comments () =
  let toks = Lexer.tokenize "a // line\n/* block\n comment */ b" in
  Alcotest.(check int) "two idents + eof" 3 (List.length toks)

let test_lex_line_numbers () =
  let toks = Lexer.tokenize "a\nb\n\nc" in
  let lines = List.map snd toks in
  Alcotest.(check (list int)) "line numbers" [ 1; 2; 4; 4 ] lines

let test_lex_pragma () =
  match Lexer.tokenize "#pragma gpcc dim w 42\nx" with
  | (Lexer.PRAGMA [ "dim"; "w"; "42" ], 1) :: _ -> ()
  | _ -> Alcotest.fail "pragma not lexed"

let test_lex_errors () =
  Alcotest.check_raises "bad char" (Lexer.Error ("unexpected character @", 1))
    (fun () -> ignore (Lexer.tokenize "@"));
  (match Lexer.tokenize "/* unterminated" with
  | exception Lexer.Error _ -> ()
  | _ -> Alcotest.fail "unterminated comment accepted");
  (* malformed or out-of-range numeric literals are located lex errors *)
  List.iter
    (fun (src, msg) ->
      Alcotest.check_raises src (Lexer.Error (msg, 2)) (fun () ->
          ignore (Lexer.tokenize ("x\n" ^ src))))
    [
      ("1e", "malformed float literal 1e");
      ("1.5e+", "malformed float literal 1.5e+");
      ("2Ef", "malformed float literal 2E");
      ( "9999999999999999999999",
        "integer literal out of range: 9999999999999999999999" );
    ]

let test_expr_precedence () =
  check_expr "mul binds tighter"
    Ast.(Binop (Add, Var "a", Binop (Mul, Var "b", Var "c")))
    (expr "a + b * c");
  check_expr "parens override"
    Ast.(Binop (Mul, Binop (Add, Var "a", Var "b"), Var "c"))
    (expr "(a + b) * c");
  check_expr "comparison below arithmetic"
    Ast.(Binop (Lt, Binop (Add, Var "a", Int_lit 1), Var "b"))
    (expr "a + 1 < b");
  check_expr "and/or nesting"
    Ast.(Binop (Or, Binop (And, Var "a", Var "b"), Var "c"))
    (expr "a && b || c")

let test_expr_builtins () =
  check_expr "idx builtin" (Builtin Ast.Idx) (expr "idx");
  check_expr "tidy builtin" (Builtin Ast.Tidy) (expr "tidy");
  check_expr "not a builtin" (Var "idz") (expr "idz")

let test_expr_postfix () =
  check_expr "multi-dim index"
    (Index ("a", [ Builtin Ast.Idy; Var "i" ]))
    (expr "a[idy][i]");
  check_expr "vector field" (Field (Var "v", Ast.FY)) (expr "v.y");
  check_expr "call" (Call ("sqrtf", [ Var "x" ])) (expr "sqrtf(x)");
  check_expr "ternary"
    (Select (Binop (Gt, Var "a", Var "b"), Var "a", Var "b"))
    (expr "a > b ? a : b")

let test_expr_unary () =
  check_expr "negation" (Unop (Neg, Var "x")) (expr "-x");
  check_expr "double negative via sub"
    (Binop (Sub, Var "a", Unop (Neg, Var "b")))
    (expr "a - -b")

let mm_src =
  {|#pragma gpcc dim w 64
#pragma gpcc output c
__kernel void mm(float a[64][64], float b[64][64], float c[64][64], int w) {
  float sum = 0;
  for (int i = 0; i < w; i++)
    sum += a[idy][i] * b[i][idx];
  c[idy][idx] = sum;
}
|}

let test_parse_kernel () =
  let k = parse_kernel mm_src in
  Alcotest.(check string) "name" "mm" k.k_name;
  Alcotest.(check int) "params" 4 (List.length k.k_params);
  Alcotest.(check (list (pair string int))) "sizes" [ ("w", 64) ] k.k_sizes;
  Alcotest.(check (list string)) "outputs" [ "c" ] k.k_output;
  match k.k_body with
  | [ Decl _; For l; Assign _ ] ->
      Alcotest.(check string) "loop var" "i" l.l_var
  | _ -> Alcotest.fail "unexpected body shape"

let test_parse_roundtrip_kernel () =
  let k = parse_kernel mm_src in
  let printed = Pp.kernel_to_string k in
  let k2 = parse_kernel printed in
  Alcotest.(check bool) "kernel round trip" true (Ast.equal_kernel k k2)

let test_parse_shared_decl () =
  let k =
    parse_kernel
      {|__kernel void f(float a[16], float o[16]) {
        __shared__ float s[16];
        s[tidx] = a[idx];
        __syncthreads();
        o[idx] = s[tidx];
      }|}
  in
  match k.k_body with
  | Decl { d_ty = Array { space = Shared; dims = [ 16 ]; _ }; _ } :: _ -> ()
  | _ -> Alcotest.fail "shared decl not parsed"

let test_parse_compound_assign () =
  let k =
    parse_kernel
      {|__kernel void f(float o[16]) {
        float x = 1;
        x *= 3;
        x -= 2;
        x /= 2;
        o[idx] = x;
      }|}
  in
  match k.k_body with
  | [ _; Assign (_, Binop (Ast.Mul, _, _)); Assign (_, Binop (Ast.Sub, _, _));
      Assign (_, Binop (Ast.Div, _, _)); _ ] ->
      ()
  | _ -> Alcotest.fail "compound assignment sugar"

let test_parse_errors () =
  let bad src =
    match Parser.kernel_of_string src with
    | exception Parser.Error _ -> ()
    | exception Lexer.Error _ -> ()
    | _ -> Alcotest.failf "accepted bad input: %s" src
  in
  bad "__kernel void f( {";
  bad "__kernel void f() { for (int i = 0; j < 2; i++) x = 1; }";
  bad "__kernel void f() { 1 = x; }";
  bad "__kernel void f() { x = ; }";
  bad "#pragma gpcc dim w\n__kernel void f() { }";
  bad "__kernel void f() { if (x) { y = 1; }"

(* --- mutation fuzz: malformed kernels fail with a located error --- *)

(* a crude token split (identifier/number runs, whitespace runs, single
   punctuation characters) good enough to delete or insert tokens *)
let rough_tokens (src : string) : string list =
  let n = String.length src in
  let cls c =
    if Lexer.is_ident_char c || c = '.' then `Word
    else if c = ' ' || c = '\t' || c = '\n' || c = '\r' then `Space
    else `Punct
  in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      let k = cls src.[i] in
      let j = ref (i + 1) in
      if k <> `Punct then
        while !j < n && cls src.[!j] = k do
          incr j
        done;
      go !j (String.sub src i (!j - i) :: acc)
  in
  go 0 []

let fuzz_sources () =
  let read f =
    let ic = open_in_bin f in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  (* [dune runtest] runs in the build's test directory *)
  let dir =
    List.find Sys.file_exists [ "../examples/kernels"; "examples/kernels" ]
  in
  let examples =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".cu")
    |> List.sort compare
    |> List.map (fun f -> read (Filename.concat dir f))
  in
  let registry =
    List.map
      (fun (w : Gpcc_workloads.Workload.t) -> w.source w.test_size)
      Gpcc_workloads.Registry.(all @ extras)
  in
  examples @ registry

let mutate rng (src : string) : string =
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  match Random.State.int rng 3 with
  | 0 -> String.sub src 0 (Random.State.int rng (String.length src + 1))
  | 1 when src <> "" ->
      let toks = rough_tokens src in
      let i = Random.State.int rng (List.length toks) in
      String.concat "" (List.filteri (fun j _ -> j <> i) toks)
  | _ ->
      let toks = rough_tokens src in
      let extra =
        pick
          (toks
          @ [ "("; ")"; "{"; "}"; "["; "]"; ";"; ","; "="; "+="; "++"; "-";
              "*"; "/"; "%"; "<"; "&&"; "!"; "?"; ":"; "."; "x"; "0"; "1.5";
              "1e"; "99999999999999999999"; "if"; "else"; "for"; "int";
              "float"; "float4"; "__shared__"; "__syncthreads"; "#pragma";
              "#pragma gpcc dim"; "\n" ])
      in
      let i = Random.State.int rng (List.length toks + 1) in
      String.concat ""
        (List.filteri (fun j _ -> j < i) toks
        @ [ " "; extra; " " ]
        @ List.filteri (fun j _ -> j >= i) toks)

let test_mutation_fuzz () =
  let sources = Array.of_list (fuzz_sources ()) in
  let rng = Random.State.make [| 20100605 |] in
  let rejected = ref 0 in
  for _ = 1 to 1000 do
    let src = sources.(Random.State.int rng (Array.length sources)) in
    (* one to three stacked mutations *)
    let m = ref src in
    for _ = 0 to Random.State.int rng 3 do
      m := mutate rng !m
    done;
    match Typecheck.check (Parser.kernel_of_string !m) with
    | () -> ()
    | exception (Lexer.Error _ | Parser.Error _ | Typecheck.Type_error _) ->
        incr rejected
    | exception e ->
        Alcotest.failf "mutant escaped with %s:\n%s" (Printexc.to_string e)
          !m
  done;
  (* the mutations must actually exercise the error paths *)
  Alcotest.(check bool) "most mutants rejected" true (!rejected > 500)

let test_parse_global_sync () =
  let k =
    parse_kernel
      {|__kernel void f(float o[16]) {
        o[idx] = 1;
        __global_sync();
        o[idx] = 2;
      }|}
  in
  Alcotest.(check bool) "has global sync" true
    (List.mem Ast.Global_sync k.k_body)

(* --- printer --- *)

let test_print_compound () =
  let s = Pp.stmt_to_string (Ast.accum (Lvar "sum") (Var "x")) in
  Alcotest.(check string) "prints +=" "sum += x;\n" s

let test_print_minimal_parens () =
  Alcotest.(check string)
    "no redundant parens" "a + b * c"
    (Pp.expr_to_string (expr "a + b * c"));
  Alcotest.(check string)
    "needed parens kept" "(a + b) * c"
    (Pp.expr_to_string (expr "(a + b) * c"));
  Alcotest.(check string)
    "sub assoc" "a - (b - c)"
    (Pp.expr_to_string (expr "a - (b - c)"))

let test_print_float_lit () =
  Alcotest.(check string) "integral float" "2.0f" (Pp.expr_to_string (Float_lit 2.0));
  Alcotest.(check string) "fraction" "0.25f" (Pp.expr_to_string (Float_lit 0.25))

let test_loc_count () =
  Alcotest.(check int) "loc of mm naive body" 8 (Pp.loc_count mm_src)

(* --- QCheck round trip --- *)

let gen_expr : Ast.expr QCheck.Gen.t =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map (fun n -> Ast.Int_lit n) (int_range 0 100);
        map (fun v -> Ast.Var v) (oneofl [ "x"; "y"; "z" ]);
        oneofl
          [
            Ast.Builtin Ast.Idx; Builtin Ast.Idy; Builtin Ast.Tidx;
            Builtin Ast.Bidx;
          ];
        map (fun f -> Ast.Float_lit f) (map float_of_int (int_range 0 50));
      ]
  in
  let op =
    oneofl
      [ Ast.Add; Sub; Mul; Div; Mod; Lt; Le; Gt; Ge; Eq; Ne; And; Or ]
  in
  fix
    (fun self depth ->
      if depth = 0 then leaf
      else
        frequency
          [
            (2, leaf);
            ( 3,
              map3
                (fun o a b -> Ast.Binop (o, a, b))
                op (self (depth - 1)) (self (depth - 1)) );
            (1, map (fun a -> Ast.Unop (Neg, a)) (self (depth - 1)));
            ( 1,
              map2
                (fun a b -> Ast.Index ("arr", [ a; b ]))
                (self (depth - 1)) (self (depth - 1)) );
            ( 1,
              map3
                (fun c a b -> Ast.Select (c, a, b))
                (self (depth - 1)) (self (depth - 1)) (self (depth - 1)) );
          ])
    4

let qcheck_roundtrip =
  QCheck.Test.make ~count:500 ~name:"print/parse round trip"
    (QCheck.make gen_expr ~print:Pp.expr_to_string)
    (fun e ->
      let printed = Pp.expr_to_string e in
      match Parser.expr_of_string printed with
      | e2 -> Ast.equal_expr e e2
      | exception _ -> false)

let suite =
  let t n f = Alcotest.test_case n `Quick f in
  ( "parser",
    [
      t "lex tokens" test_lex_tokens;
      t "lex comments" test_lex_comments;
      t "lex line numbers" test_lex_line_numbers;
      t "lex pragma" test_lex_pragma;
      t "lex errors" test_lex_errors;
      t "expr precedence" test_expr_precedence;
      t "expr builtins" test_expr_builtins;
      t "expr postfix" test_expr_postfix;
      t "expr unary" test_expr_unary;
      t "parse kernel" test_parse_kernel;
      t "kernel round trip" test_parse_roundtrip_kernel;
      t "shared decl" test_parse_shared_decl;
      t "compound assignment" test_parse_compound_assign;
      t "parse errors" test_parse_errors;
      t "mutation fuzz: only located errors escape" test_mutation_fuzz;
      t "global sync" test_parse_global_sync;
      t "print +=" test_print_compound;
      t "print parens" test_print_minimal_parens;
      t "print float literals" test_print_float_lit;
      t "loc count" test_loc_count;
      QCheck_alcotest.to_alcotest qcheck_roundtrip;
    ] )
