(** The verdict cache: memoized verifier answers with bounded,
    LRU-bias eviction.

    A verdict ({!Verify.check}'s error diagnostics) is a pure function
    of the printed kernel at the launch, and the design-space
    exploration asks for the same one across dozens of configurations
    and processes. This cache memoizes it per worker domain, keyed by a
    digest of the printed kernel and launch, and persists it through
    the artifact store; the launch-parametric {!Symverify} proof it
    consults first is memoized per kernel text. Changing the kernel
    text changes the key, so an entry can never go stale.

    The cheaper analyses — the affine access table, the coalescing
    check, the data-sharing summary and the register estimate — are not
    cached: printing and digesting the kernel to form a key costs more
    than computing them, so passes call them directly.

    Eviction is bounded and per-entry: when a slot reaches capacity the
    least-recently-used entry is dropped, so hot entries survive a long
    exploration — unlike a blunt [Hashtbl.reset] that wipes the whole
    table mid-sweep.

    Instances are cheap; [domain ()] returns a per-worker-domain
    instance (no locking needed), while the hit/miss counters aggregate
    globally across domains via atomics. *)

open Gpcc_ast

type 'a cell = { v : 'a; mutable tick : int }

type 'a slot = (string, 'a cell) Hashtbl.t

type t = {
  verify : Verify.diagnostic list slot;
  symbolic : Symverify.result slot;  (** parametric proofs, kernel-keyed *)
  capacity : int;  (** max entries per slot before LRU eviction *)
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
}

let default_capacity = 512

let create ?(capacity = default_capacity) () =
  {
    verify = Hashtbl.create 64;
    symbolic = Hashtbl.create 64;
    capacity = max 1 capacity;
    tick = 0;
    hits = 0;
    misses = 0;
  }

let hits t = t.hits
let misses t = t.misses

(* hit/miss totals across every domain's instance, for bench reporting *)
let global_hit_count = Atomic.make 0
let global_miss_count = Atomic.make 0
let global_hits () = Atomic.get global_hit_count
let global_misses () = Atomic.get global_miss_count

(* verification-cost counters for bench reporting: verdicts computed
   by a symbolic proof vs. by the concrete verifier, and total
   wall-clock microseconds spent inside {!verify} *)
let sym_proof_count = Atomic.make 0
let concrete_fallback_count = Atomic.make 0
let verify_wall_us = Atomic.make 0
let global_symbolic_proofs () = Atomic.get sym_proof_count
let global_concrete_fallbacks () = Atomic.get concrete_fallback_count
let global_verify_wall_clock_s () =
  float_of_int (Atomic.get verify_wall_us) /. 1e6

let timed (f : unit -> 'a) : 'a =
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      let us =
        int_of_float (Float.round ((Unix.gettimeofday () -. t0) *. 1e6))
      in
      ignore (Atomic.fetch_and_add verify_wall_us (max 0 us)))
    f

(** Cache key of a kernel at a launch configuration. *)
let key (k : Ast.kernel) (l : Ast.launch) : string =
  Digest.string (Pp.kernel_to_string ~launch:l k)

(** Launch-independent key (the symbolic proof). *)
let kernel_key (k : Ast.kernel) : string = Digest.string (Pp.kernel_to_string k)

(* Drop the least-recently-used entry of a slot (linear scan: slots are
   small and eviction only happens at capacity). *)
let evict_lru (slot : 'a slot) =
  let victim = ref None in
  Hashtbl.iter
    (fun key (cell : _ cell) ->
      match !victim with
      | Some (_, t) when t <= cell.tick -> ()
      | _ -> victim := Some (key, cell.tick))
    slot;
  match !victim with Some (key, _) -> Hashtbl.remove slot key | None -> ()

let find (t : t) (slot : 'a slot) (key : string) (compute : unit -> 'a) : 'a =
  t.tick <- t.tick + 1;
  match Hashtbl.find_opt slot key with
  | Some cell ->
      cell.tick <- t.tick;
      t.hits <- t.hits + 1;
      Atomic.incr global_hit_count;
      cell.v
  | None ->
      t.misses <- t.misses + 1;
      Atomic.incr global_miss_count;
      let v = compute () in
      if Hashtbl.length slot >= t.capacity then evict_lru slot;
      Hashtbl.replace slot key { v; tick = t.tick };
      v

(* --- the verifier entry point -------------------------------------- *)
(* Without persistence every candidate of a warm sweep would be
   re-verified from scratch. A verdict is a
   pure function of the printed kernel at the launch, so it persists
   across processes exactly like a score — through {!Gpcc_util.Store},
   as the ["verdict"] kind. The store key is the full kernel text, so
   the store's key guard doubles as the digest-collision guard;
   corruption recovery, atomic writes, locking and eviction all live in
   the store. The per-domain LRU above stays in front as the memory
   tier. Any store failure degrades to recomputation.

   A verdict is computed by two tiers. The launch-parametric symbolic
   proof ({!Symverify}, memoized per kernel text) is asked first: it
   pays across the launches of one kernel text, and discharges large
   blocks in milliseconds where lane enumeration takes a tenth of a
   second. Whatever it cannot prove clean at this launch goes to the
   concrete {!Verify.check}, whose error diagnostics are the verdict,
   so messages never depend on which tier ran. *)

module Store = Gpcc_util.Store

let marshal_encode (v : 'a) : string = Marshal.to_string v []

(* the store's envelope already rejects truncation by length, but a
   version-skew blob can still fail to unmarshal: treat any exception
   as corrupt (the store then deletes the entry and we recompute) *)
let marshal_decode (payload : string) : 'a option =
  match (Marshal.from_string payload 0 : 'a) with
  | v -> Some v
  | exception _ -> None

(* codec version 4: version 3 stored warnings too; versions 1–2 were
   the hand-rolled pre-store formats. Bumping orphans them and the GC
   ages them out *)
let verdict_kind : Verify.diagnostic list Store.kind =
  Store.make_kind ~name:"verdict" ~version:"4" ~encode:marshal_encode
    ~decode:marshal_decode

(* one process-wide handle on the default root, shared by every domain
   (the store is domain-safe); lazy so tests that set GPCC_CACHE_DIR
   before first use are honored *)
let store_handle : Store.t Lazy.t = lazy (Store.open_root ())

let verify (t : t) ~(launch : Ast.launch) (k : Ast.kernel) :
    Verify.diagnostic list =
  timed @@ fun () ->
  let full = Pp.kernel_to_string ~launch k in
  find t t.verify (Digest.string full) (fun () ->
      let store = Lazy.force store_handle in
      match Store.find store verdict_kind ~key:full with
      | Some ds -> ds
      | None ->
          let sym =
            find t t.symbolic (kernel_key k) (fun () -> Symverify.check k)
          in
          let ds =
            match Symverify.decide sym launch with
            | `Clean ->
                Atomic.incr sym_proof_count;
                []
            | `Errors _ | `Unknown _ ->
                Atomic.incr concrete_fallback_count;
                Verify.errors (Verify.check ~launch k)
          in
          Store.store store verdict_kind ~key:full ds;
          ds)

(* One instance per worker domain: the exploration pool fans compiles
   out across domains, and a shared table would need a lock on the hot
   path. *)
let domain_instance : t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> create ())

let domain () : t = Domain.DLS.get domain_instance
