(** The verdict cache: the verifier's answers, memoized per worker
    domain with bounded LRU eviction and persisted in the artifact
    store, keyed by a digest of the printed kernel at the launch.
    Changing the kernel text changes the key, so verdicts can never go
    stale. The cheaper kernel analyses ({!Coalesce_check}, {!Sharing},
    {!Regcount}) are plain function calls and are not cached here.

    When a slot reaches capacity the least-recently-used entry is
    evicted, so hot entries survive long design-space explorations. *)

type t

val default_capacity : int
(** 512 entries per slot (verdicts; symbolic proofs). *)

val create : ?capacity:int -> unit -> t

val hits : t -> int
(** Lookups answered from this instance's memory (verdicts and symbolic
    proofs). *)

val misses : t -> int

val global_hits : unit -> int
(** Hits aggregated across every instance of every domain. *)

val global_misses : unit -> int

val global_symbolic_proofs : unit -> int
(** Verdicts {!verify} computed from a symbolic proof that covers the
    launch (no concrete check ran), across every domain. Verdicts served
    from memory or the store are not counted. *)

val global_concrete_fallbacks : unit -> int
(** Verdicts {!verify} computed with the concrete {!Verify.check}
    because the symbolic tier did not prove the launch clean, across
    every domain. *)

val global_verify_wall_clock_s : unit -> float
(** Total wall-clock seconds spent inside {!verify}, across every
    domain. *)

val key : Gpcc_ast.Ast.kernel -> Gpcc_ast.Ast.launch -> string
(** Digest of the printed kernel at the launch — the verdict key. *)

val verify :
  t -> launch:Gpcc_ast.Ast.launch -> Gpcc_ast.Ast.kernel ->
  Verify.diagnostic list
(** The error diagnostics of [Verify.check ~launch k] —
    the compiler's one verifier entry point. The memoized
    launch-parametric {!Symverify} proof of the kernel text is asked
    first; when it does not prove this launch clean the concrete
    checker runs, so the messages are always the concrete verifier's.
    The verdict persists in the artifact store as a [verdict] entry. *)

val domain : unit -> t
(** The current worker domain's instance (one per domain: exploration
    fans compiles out across domains, and a shared table would need a
    lock on the hot path). *)
