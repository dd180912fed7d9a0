(** Persistent exploration-score cache: a thin typed view over
    {!Gpcc_util.Store} (the ["score"] kind). See the mli. *)

module Store = Gpcc_util.Store

(* %h round-trips every finite float losslessly *)
let score_kind : float Store.kind =
  Store.make_kind ~name:"score" ~version:"1"
    ~encode:(fun s -> Printf.sprintf "%h" s)
    ~decode:(fun payload -> float_of_string_opt (String.trim payload))

(* a handle of its own, so the store's per-handle hit/miss atomics count
   exactly this cache's score lookups *)
type t = Store.t

let default_dir () = Store.default_root ()
let open_dir ?dir () : t = Store.open_root ?root:dir ()
let dir = Store.root
let find (c : t) (key : string) : float option = Store.find c score_kind ~key

let store (c : t) (key : string) (score : float) : unit =
  Store.store c score_kind ~key score

let hits = Store.hits
let misses = Store.misses
let entries (c : t) : int = Store.entries ~kind:"score" c
let gc (c : t) : Store.gc_stats = Store.gc c
let clear (c : t) : unit = Store.clear ~kind:"score" c
