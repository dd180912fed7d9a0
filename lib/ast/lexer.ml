(** Hand-written lexer for the mini-CUDA kernel language. *)

type token =
  | IDENT of string
  | INT of int
  | FLOAT of float
  | KW of string
  | PUNCT of string
  | PRAGMA of string list  (** words after [#pragma gpcc] *)
  | EOF

exception Error of string * int  (** message, line *)

let token_to_string = function
  | IDENT s -> "identifier " ^ s
  | INT n -> "integer " ^ string_of_int n
  | FLOAT f -> "float " ^ string_of_float f
  | KW s -> "keyword " ^ s
  | PUNCT s -> "'" ^ s ^ "'"
  | PRAGMA ws -> "#pragma gpcc " ^ String.concat " " ws
  | EOF -> "end of input"

let keywords =
  [
    "int"; "float"; "float2"; "float4"; "bool"; "void"; "if"; "else"; "for";
    "__shared__"; "__kernel"; "__global__"; "__syncthreads"; "__global_sync";
  ]

let is_keyword s = List.mem s keywords
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

(** Tokenize the whole input; each token is paired with its 1-based line. *)
let tokenize (src : string) : (token * int) list =
  let n = String.length src in
  let line = ref 1 in
  let toks = ref [] in
  let emit t = toks := (t, !line) :: !toks in
  let pos = ref 0 in
  let peek k = if !pos + k < n then Some src.[!pos + k] else None in
  let rec skip_block_comment () =
    if !pos + 1 >= n then raise (Error ("unterminated comment", !line));
    if src.[!pos] = '*' && src.[!pos + 1] = '/' then pos := !pos + 2
    else (
      if src.[!pos] = '\n' then incr line;
      incr pos;
      skip_block_comment ())
  in
  let read_line_rest () =
    let start = !pos in
    while !pos < n && src.[!pos] <> '\n' do
      incr pos
    done;
    String.sub src start (!pos - start)
  in
  while !pos < n do
    let c = src.[!pos] in
    if c = '\n' then (
      incr line;
      incr pos)
    else if c = ' ' || c = '\t' || c = '\r' then incr pos
    else if c = '/' && peek 1 = Some '/' then ignore (read_line_rest ())
    else if c = '/' && peek 1 = Some '*' then (
      pos := !pos + 2;
      skip_block_comment ())
    else if c = '#' then begin
      let rest = read_line_rest () in
      let words =
        String.split_on_char ' ' rest
        |> List.concat_map (String.split_on_char '\t')
        |> List.filter (fun w -> w <> "")
      in
      match words with
      | "#pragma" :: "gpcc" :: tail -> emit (PRAGMA tail)
      | _ -> raise (Error ("unrecognized directive: " ^ rest, !line))
    end
    else if is_ident_start c then begin
      let start = !pos in
      while !pos < n && is_ident_char src.[!pos] do
        incr pos
      done;
      let word = String.sub src start (!pos - start) in
      if is_keyword word then emit (KW word) else emit (IDENT word)
    end
    else if is_digit c then begin
      let start = !pos in
      while !pos < n && is_digit src.[!pos] do
        incr pos
      done;
      let is_float = ref false in
      if !pos < n && src.[!pos] = '.' then begin
        is_float := true;
        incr pos;
        while !pos < n && is_digit src.[!pos] do
          incr pos
        done
      end;
      if !pos < n && (src.[!pos] = 'e' || src.[!pos] = 'E') then begin
        is_float := true;
        incr pos;
        if !pos < n && (src.[!pos] = '+' || src.[!pos] = '-') then incr pos;
        while !pos < n && is_digit src.[!pos] do
          incr pos
        done
      end;
      let text = String.sub src start (!pos - start) in
      let float_lit () =
        match float_of_string_opt text with
        | Some f -> FLOAT f
        | None -> raise (Error ("malformed float literal " ^ text, !line))
      in
      if !pos < n && src.[!pos] = 'f' then begin
        incr pos;
        emit (float_lit ())
      end
      else if !is_float then emit (float_lit ())
      else
        match int_of_string_opt text with
        | Some i -> emit (INT i)
        | None ->
            raise (Error ("integer literal out of range: " ^ text, !line))
    end
    else begin
      let two =
        if !pos + 1 < n then Some (String.sub src !pos 2) else None
      in
      match two with
      | Some (("<=" | ">=" | "==" | "!=" | "&&" | "||" | "+=" | "-=" | "*=" | "/=" | "++") as p)
        ->
          emit (PUNCT p);
          pos := !pos + 2
      | _ -> (
          match c with
          | '(' | ')' | '[' | ']' | '{' | '}' | ';' | ',' | '.' | '+' | '-'
          | '*' | '/' | '%' | '<' | '>' | '=' | '!' | '?' | ':' | '&' ->
              emit (PUNCT (String.make 1 c));
              incr pos
          | _ ->
              raise
                (Error (Printf.sprintf "unexpected character %c" c, !line)))
    end
  done;
  emit EOF;
  List.rev !toks
