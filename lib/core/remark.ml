(** Structured per-pass optimization remarks.

    Replaces the pipeline's free-form note lists as the machine-facing
    record of what each pass did: whether it fired and why (or why it
    declined), the kernel-shape metrics before and after, and the pass's
    wall-clock. Human-readable notes from the pass are kept verbatim in
    [notes] — the paper's "understandable optimization process" — while
    the structured fields feed [gpcc compile --remarks-json] and the
    bench JSON output. *)

open Gpcc_ast

(** Kernel-shape metrics at a pipeline point. *)
type metrics = {
  regs : int;  (** estimated registers per thread *)
  shared_bytes : int;  (** shared memory per block *)
  threads_per_block : int;
  grid : int * int;
  block : int * int;
}

type t = {
  pass : string;  (** registry pass name, e.g. ["merge"] *)
  step : string;  (** instance label, e.g. ["thread-block merge X x16"] *)
  section : string;  (** paper section the pass implements *)
  fired : bool;
  reason : string;  (** what the pass did, or why it declined *)
  notes : string list;  (** the pass's full human-readable trace *)
  before_m : metrics;
  after_m : metrics;  (** equals [before_m] when the pass did not fire *)
  duration_ms : float;
}

let metrics (k : Ast.kernel) (launch : Ast.launch) : metrics =
  {
    regs = Gpcc_analysis.Regcount.estimate k;
    shared_bytes = Gpcc_analysis.Regcount.shared_bytes k;
    threads_per_block = launch.Ast.block_x * launch.Ast.block_y;
    grid = (launch.Ast.grid_x, launch.Ast.grid_y);
    block = (launch.Ast.block_x, launch.Ast.block_y);
  }

(* --- JSON emission (self-contained: the core library carries no JSON
   dependency) --- *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_of_metrics (m : metrics) : string =
  Printf.sprintf
    {|{"regs":%d,"shared_bytes":%d,"threads_per_block":%d,"grid":[%d,%d],"block":[%d,%d]}|}
    m.regs m.shared_bytes m.threads_per_block (fst m.grid) (snd m.grid)
    (fst m.block) (snd m.block)

let json_of (r : t) : string =
  Printf.sprintf
    {|{"pass":"%s","step":"%s","section":"%s","fired":%b,"reason":"%s","notes":[%s],"duration_ms":%.3f,"before":%s,"after":%s}|}
    (escape r.pass) (escape r.step) (escape r.section) r.fired
    (escape r.reason)
    (String.concat ","
       (List.map (fun n -> "\"" ^ escape n ^ "\"") r.notes))
    r.duration_ms
    (json_of_metrics r.before_m)
    (json_of_metrics r.after_m)

let json_of_list (rs : t list) : string =
  "[" ^ String.concat "," (List.map json_of rs) ^ "]"
