(** The pass-manager layer: declarative pipelines, the verdict cache
    and per-pass remarks.

    - bit-identity: repeated (verdict-cache-warm) runs of the driver
      produce byte-identical optimized kernels and launches for every
      registry workload;
    - staged: the single-instrumented-run Figure-12 prefixes equal the
      old per-prefix recompiles;
    - bounded LRU eviction of the verdict cache (hot entries survive);
    - the verifier entry point: [Analysis_cache.verify] answers the
      concrete checker's errors, computed cold and served from the
      store, and recovers from corrupt store entries;
    - structured remarks carry the required fields. *)

open Util
module Pipeline = Gpcc_core.Pipeline
module Pass = Gpcc_passes.Pass
module Cache = Gpcc_analysis.Analysis_cache
module Workload = Gpcc_workloads.Workload
module Registry = Gpcc_workloads.Registry

let printed (k : Gpcc_ast.Ast.kernel) (l : Gpcc_ast.Ast.launch) =
  Gpcc_ast.Pp.kernel_to_string ~launch:l k
  ^ Printf.sprintf "launch (%d,%d)x(%d,%d)\n" l.grid_x l.grid_y l.block_x
      l.block_y

(* --- bit-identity: cold == warm --- *)

let test_bit_identity () =
  List.iter
    (fun (w : Workload.t) ->
      let k = Workload.parse w w.test_size in
      List.iter
        (fun (target, degree) ->
          let pipeline =
            Pipeline.default ~cfg:cfg280 ~target_block_threads:target
              ~merge_degree:degree ()
          in
          let r = Pipeline.run ~pipeline k in
          (* a second, verdict-cache-warm run is byte-identical *)
          let r2 = Pipeline.run ~pipeline k in
          Alcotest.(check string)
            (Printf.sprintf "%s (%d,%d): warm rerun" w.name target degree)
            (printed r.kernel r.launch)
            (printed r2.kernel r2.launch))
        [ (256, 16); (128, 4) ])
    Registry.all

(* --- staged: one instrumented run == the old per-prefix recompiles --- *)

let test_staged_matches_prefix_recompiles () =
  List.iter
    (fun name ->
      let w = Registry.find_exn name in
      let naive = Workload.parse w w.test_size in
      let staged =
        Pipeline.staged ~cfg:cfg280 ~target_block_threads:128 ~merge_degree:4
          naive
      in
      (* the pre-refactor staged: one full recompile per cumulative
         prefix, a prefix being a set of disabled passes *)
      let prefixes =
        [
          ("naive",
           [ "vectorize-wide"; "vectorize"; "coalesce"; "merge"; "licm";
             "prefetch"; "partition-camping" ]);
          ("+vectorization",
           [ "coalesce"; "merge"; "licm"; "prefetch"; "partition-camping" ]);
          ("+coalescing", [ "merge"; "licm"; "prefetch"; "partition-camping" ]);
          ("+thread/block merge", [ "prefetch"; "partition-camping" ]);
          ("+prefetching", [ "partition-camping" ]);
          ("+partition camping elim.", []);
        ]
      in
      Alcotest.(check (list string))
        (name ^ ": stage labels") (List.map fst prefixes)
        (List.map (fun (l, _, _) -> l) staged);
      List.iter2
        (fun (label, off) (label', k, l) ->
          Alcotest.(check string) "label" label label';
          let r =
            Pipeline.run
              ~pipeline:
                (Pipeline.disable off
                   (Pipeline.default ~cfg:cfg280 ~target_block_threads:128
                      ~merge_degree:4 ()))
              naive
          in
          let launch =
            if Gpcc_ast.Ast.equal_kernel r.kernel naive then
              Option.value
                (Gpcc_passes.Pass_util.naive_launch naive)
                ~default:r.launch
            else r.launch
          in
          Alcotest.(check string)
            (Printf.sprintf "%s stage %S" name label)
            (printed r.kernel launch) (printed k l))
        prefixes staged)
    [ "mm"; "tp" ]

(* --- bounded LRU eviction: hot entries survive past capacity --- *)

let test_lru_eviction_keeps_hot_entries () =
  let kernel i =
    parse_kernel
      (Printf.sprintf
         {|#pragma gpcc dim n 64
__kernel void k%d(float a[64], float o[64], int n) {
  o[idx] = a[idx] * %d;
}|}
         i i)
  in
  let cache = Cache.create ~capacity:4 () in
  let launch = { Gpcc_ast.Ast.grid_x = 4; grid_y = 1; block_x = 16; block_y = 1 } in
  let touch i =
    Alcotest.(check int)
      (Printf.sprintf "kernel %d verifies clean" i)
      0
      (List.length (Cache.verify cache ~launch (kernel i)))
  in
  touch 1;
  (* churn five cold entries through a capacity-4 slot, re-touching
     entry 1 after each insertion so it stays the hottest *)
  List.iter
    (fun i ->
      touch i;
      touch 1)
    [ 2; 3; 4; 5; 6 ];
  let hits_before = Cache.hits cache in
  touch 1;
  Alcotest.(check int)
    "hot entry survived the churn" (hits_before + 1) (Cache.hits cache);
  let hits_before = Cache.hits cache and misses_before = Cache.misses cache in
  touch 2;
  Alcotest.(check int) "cold entry was evicted" hits_before (Cache.hits cache);
  Alcotest.(check bool)
    "cold entry recomputed" true
    (Cache.misses cache > misses_before)

(* --- verifier verdicts survive the on-disk round trip --- *)

let test_verify_disk_round_trip () =
  let w = Registry.find_exn "mv" in
  let k = Workload.parse w w.test_size in
  let launch = Option.get (Gpcc_passes.Pass_util.naive_launch k) in
  let fresh = Gpcc_analysis.Verify.(errors (check ~launch k)) in
  (* first fresh instance computes (or reads) and persists the verdict;
     the second starts with an empty memory slot, so it must serve the
     marshalled file — the round trip has to be structurally lossless *)
  let d1 = Cache.verify (Cache.create ()) ~launch k in
  let d2 = Cache.verify (Cache.create ()) ~launch k in
  Alcotest.(check bool) "first instance matches Verify.check" true (d1 = fresh);
  Alcotest.(check bool) "disk round trip is lossless" true (d2 = fresh)

(* --- a corrupt on-disk verdict is dropped and recomputed, not fatal --- *)

let test_verify_disk_corruption () =
  let w = Registry.find_exn "vv" in
  let k = Workload.parse w w.test_size in
  let launch = Option.get (Gpcc_passes.Pass_util.naive_launch k) in
  let fresh = Gpcc_analysis.Verify.(errors (check ~launch k)) in
  (* start from no verdict entries: the store may still hold one for
     this kernel text under an older codec version *)
  Gpcc_util.Store.clear ~kind:"verdict" (Gpcc_util.Store.open_root ());
  let d1 = Cache.verify (Cache.create ()) ~launch k in
  Alcotest.(check bool) "baseline verdict" true (d1 = fresh);
  (* verdicts now live in the sharded artifact store; locate this
     kernel's entry by its stored key (the full kernel text) rather
     than re-deriving the digest scheme *)
  let root = Gpcc_util.Store.default_root () in
  let full = Gpcc_ast.Pp.kernel_to_string ~launch k in
  let read_file p =
    let ic = open_in_bin p in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let contains ~needle hay =
    let n = String.length needle and h = String.length hay in
    let rec scan i =
      i + n <= h && (String.equal (String.sub hay i n) needle || scan (i + 1))
    in
    scan 0
  in
  let verdict_files () =
    Sys.readdir root |> Array.to_list
    |> List.concat_map (fun shard ->
           let d = Filename.concat root shard in
           if Sys.is_directory d then
             Sys.readdir d |> Array.to_list
             |> List.filter (fun f -> Filename.extension f = ".verdict")
             |> List.map (Filename.concat d)
           else [])
  in
  let path =
    match
      List.filter
        (fun p -> contains ~needle:full (read_file p))
        (verdict_files ())
    with
    | [ p ] -> p
    | ps ->
        Alcotest.failf "expected exactly one verdict entry for kernel, got %d"
          (List.length ps)
  in
  Alcotest.(check bool) "verdict file exists" true (Sys.file_exists path);
  let overwrite content =
    let oc = open_out_bin path in
    output_string oc content;
    close_out oc
  in
  let recovered what =
    (* a fresh instance must treat the damaged file as a miss, recompute
       the verdict, and leave a readable file behind *)
    let d = Cache.verify (Cache.create ()) ~launch k in
    Alcotest.(check bool) (what ^ ": verdict recomputed") true (d = fresh);
    let d2 = Cache.verify (Cache.create ()) ~launch k in
    Alcotest.(check bool) (what ^ ": rewritten file round-trips") true
      (d2 = fresh)
  in
  overwrite "";
  recovered "empty file";
  overwrite "gpcc-verify-v2\n";
  recovered "truncated after header";
  overwrite "gpcc-verify-v1\nstale-format-payload";
  recovered "old format version";
  overwrite "gpcc-verify-v2\nthis is not marshalled data";
  recovered "garbage payload"

(* --- the one verifier entry point equals the concrete verdict --- *)

(* [Cache.verify] asks the symbolic tier first, but must answer exactly
   the concrete checker's errors: on every registry naive kernel, on
   every fired step kernel at a spread of configurations (compiled
   with validation off, so rejected steps are checked too), and on a
   racy kernel. Once computed on fresh instances, and once more served
   from the artifact store. *)
let test_verify_matches_concrete () =
  let naive k = (k, Option.get (Gpcc_passes.Pass_util.naive_launch k)) in
  let steps k (target, degree) =
    let pipeline =
      Pipeline.default ~cfg:cfg280 ~target_block_threads:target
        ~merge_degree:degree ~verify:false ()
    in
    (Pipeline.run ~pipeline k).steps
    |> List.filter (fun (s : Pipeline.step) -> s.fired)
    |> List.map (fun (s : Pipeline.step) -> (s.kernel_after, s.launch_after))
  in
  let cases =
    naive (parse_kernel Test_verify.racy_src)
    :: List.concat_map
         (fun (w : Workload.t) ->
           let k = Workload.parse w w.test_size in
           naive k
           :: List.concat_map (steps k) [ (128, 4); (256, 16); (512, 8) ])
         Registry.all
  in
  let oracle =
    List.map
      (fun (k, l) -> Gpcc_analysis.Verify.(errors (check ~launch:l k)))
      cases
  in
  Alcotest.(check bool)
    "some case has errors" true
    (List.exists (fun ds -> ds <> []) oracle);
  let pass what =
    List.iter2
      (fun (k, l) expect ->
        if Cache.verify (Cache.create ()) ~launch:l k <> expect then
          Alcotest.failf "%s: Cache.verify differs from Verify.check on %s"
            what
            (Gpcc_ast.Pp.kernel_to_string ~launch:l k))
      cases oracle
  in
  Gpcc_util.Store.clear ~kind:"verdict" (Gpcc_util.Store.open_root ());
  pass "cold";
  let hits0 = Gpcc_util.Store.global_hits () in
  pass "from the store";
  Alcotest.(check bool)
    "every second-pass verdict is a store hit" true
    (Gpcc_util.Store.global_hits () - hits0 >= List.length cases)

(* --- final-kernel validation == validating every fired step --- *)

(* The oracle validates every step: compile with validation off, then
   run the concrete verifier on the input and on every fired step in
   order; the first rejection is the compile's error. [Pipeline.run] validates only the input and the final kernel,
   re-checking the steps only to blame a rejection, and must agree on
   accept/reject, on the error text and on the result kernel for every
   registry workload and default configuration. *)
let test_final_validation_matches_per_step () =
  let outcome f =
    match f () with
    | (r : Pipeline.result) -> Ok (printed r.kernel r.launch)
    | exception Pipeline.Compile_error m -> Error m
    | exception e -> Error (Printexc.to_string e)
  in
  let oracle k (target, degree) =
    outcome @@ fun () ->
    let pipeline =
      Pipeline.default ~cfg:cfg280 ~target_block_threads:target
        ~merge_degree:degree ~verify:false ()
    in
    let r = Pipeline.run ~pipeline k in
    let launch = Option.get (Gpcc_passes.Pass_util.initial_launch k) in
    let states =
      ("input", k, launch)
      :: List.filter_map
           (fun (s : Pipeline.step) ->
             if s.fired then Some (s.step_name, s.kernel_after, s.launch_after)
             else None)
           r.steps
    in
    List.iter
      (fun (name, k, l) ->
        match Gpcc_analysis.Verify.(errors (check ~launch:l k)) with
        | [] -> ()
        | errs ->
            raise
              (Pipeline.Compile_error
                 (Printf.sprintf
                    "translation validation failed after pass %S: %s" name
                    (String.concat "; "
                       (List.map Gpcc_analysis.Verify.to_string errs)))))
      states;
    r
  in
  let rejected = ref 0 in
  List.iter
    (fun (w : Workload.t) ->
      let k = Workload.parse w w.test_size in
      List.iter
        (fun target ->
          List.iter
            (fun degree ->
              let expect = oracle k (target, degree) in
              let got =
                outcome (fun () ->
                    Pipeline.run
                      ~pipeline:
                        (Pipeline.default ~cfg:cfg280
                           ~target_block_threads:target ~merge_degree:degree
                           ())
                      k)
              in
              if Result.is_error expect then incr rejected;
              Alcotest.(check (result string string))
                (Printf.sprintf "%s@%d (%d,%d)" w.name w.test_size target
                   degree)
                expect got)
            Gpcc_core.Explore.default_merge_degrees)
        Gpcc_core.Explore.default_block_targets)
    Registry.all;
  Alcotest.(check bool) "some configuration is rejected" true (!rejected > 0)

(* --- the validation contract, with synthetic passes --- *)

let synced_src =
  {|#pragma gpcc dim n 64
#pragma gpcc output c
__kernel void racy(float a[64], float c[64], int n) {
  __shared__ float s[16];
  s[tidx] = a[idx];
  __syncthreads();
  c[idx] = s[(tidx + 1) % 16];
}|}

(* A pass that always fires, replacing the kernel with [rewrite k]. *)
let synthetic name (rewrite : Gpcc_ast.Ast.kernel -> Gpcc_ast.Ast.kernel) :
    Pipeline.spec =
  let transform _ctx (emit : Pass.emit) k l =
    let o =
      emit name k l (fun k l ->
          { Gpcc_passes.Pass_util.kernel = rewrite k; launch = l; fired = true;
            notes = [] })
    in
    (o.kernel, o.launch)
  in
  {
    Pipeline.sp_pass =
      { Pass.name; label = name; section = "-"; summary = name;
        applies = (fun _ _ _ -> Pass.Applies); transform };
    sp_enabled = true;
  }

let run_synthetic specs =
  Pipeline.run
    ~pipeline:{ (Pipeline.default ~cfg:cfg280 ()) with specs }
    (parse_kernel synced_src)

(* A racy step followed by a pass that raises: the error blames the
   racy step, not the later failure. *)
let test_raise_blames_racy_step () =
  let racy = parse_kernel Test_verify.racy_src in
  match
    run_synthetic
      [ synthetic "racify" (fun _ -> racy);
        synthetic "explode" (fun _ -> failwith "explode") ]
  with
  | _ -> Alcotest.fail "a racy step followed by a failing pass compiled"
  | exception (Pipeline.Compile_error m as e) ->
      Alcotest.(check bool) "verifier_rejected" true
        (Pipeline.verifier_rejected e);
      assert_contains "blames the racy step" m
        {|translation validation failed after pass "racify": error[race-shared]|}

(* Only the kernel that runs must be clean: a racy step repaired by a
   later pass compiles. *)
let test_repaired_step_compiles () =
  let racy = parse_kernel Test_verify.racy_src
  and synced = parse_kernel synced_src in
  let r =
    run_synthetic
      [ synthetic "racify" (fun _ -> racy);
        synthetic "repair" (fun _ -> synced) ]
  in
  Alcotest.(check bool) "result is the repaired kernel" true
    (Gpcc_ast.Ast.equal_kernel r.kernel synced)

(* A clean compile computes two verdicts, the input's and the final
   kernel's, however many steps fire. Run on a fresh domain, so its
   verdict cache is empty, after dropping the stored verdicts. *)
let test_clean_compile_verifies_twice () =
  let w = Registry.find_exn "mm" in
  let k = Workload.parse w w.test_size in
  let pipeline =
    Pipeline.default ~cfg:cfg280 ~target_block_threads:256 ~merge_degree:16 ()
  in
  let computed () =
    Cache.global_symbolic_proofs () + Cache.global_concrete_fallbacks ()
  in
  Gpcc_util.Store.clear ~kind:"verdict" (Gpcc_util.Store.open_root ());
  let before = computed () in
  let r = Domain.join (Domain.spawn (fun () -> Pipeline.run ~pipeline k)) in
  let fired = List.filter (fun (s : Pipeline.step) -> s.fired) r.steps in
  Alcotest.(check bool) "several steps fired" true (List.length fired > 2);
  Alcotest.(check int) "verdicts computed" 2 (computed () - before)

(* --- remarks: structure and JSON emission --- *)

let test_remarks_structure () =
  let w = Registry.find_exn "mm" in
  let r = compile (Workload.parse w w.test_size) in
  let remarks = Pipeline.remarks r in
  Alcotest.(check bool) "one remark per step" true
    (List.length remarks = List.length r.steps && remarks <> []);
  List.iter
    (fun (rm : Gpcc_core.Remark.t) ->
      Alcotest.(check bool) "pass name non-empty" true (rm.pass <> "");
      Alcotest.(check bool) "step label non-empty" true (rm.step <> "");
      Alcotest.(check bool) "paper section non-empty" true (rm.section <> "");
      Alcotest.(check bool) "reason non-empty" true (rm.reason <> "");
      Alcotest.(check bool) "duration is a time" true (rm.duration_ms >= 0.0);
      Alcotest.(check bool) "metrics populated" true
        (rm.before_m.threads_per_block > 0 && rm.after_m.threads_per_block > 0);
      if not rm.fired then
        Alcotest.(check bool) "declined step keeps metrics equal" true
          (rm.before_m = rm.after_m))
    remarks;
  (* at least one fired merge sub-step reshapes the launch *)
  Alcotest.(check bool) "merge fired with metric delta" true
    (List.exists
       (fun (rm : Gpcc_core.Remark.t) ->
         rm.pass = "merge" && rm.fired && rm.after_m <> rm.before_m)
       remarks);
  let json = Pipeline.remarks_json r in
  List.iter
    (assert_contains "remarks json" json)
    [
      {|"schema":"gpcc-remarks-v1"|}; {|"pass":|}; {|"fired":|};
      {|"duration_ms":|}; {|"before":|}; {|"after":|}; {|"regs":|};
    ]

(* --- pipeline surgery: --passes / --disable-pass semantics --- *)

let test_pipeline_surgery () =
  let p = Pipeline.default () in
  Alcotest.(check (list string))
    "registry order"
    [ "vectorize-wide"; "vectorize"; "coalesce"; "merge"; "licm";
      "partition-camping"; "prefetch" ]
    (Pipeline.pass_names p);
  let disabled = Pipeline.disable [ "prefetch"; "merge" ] p in
  Alcotest.(check (list string))
    "disable removes from the enabled set"
    [ "vectorize-wide"; "vectorize"; "coalesce"; "licm"; "partition-camping" ]
    (Pipeline.enabled_names disabled);
  Alcotest.(check (list string))
    "with_passes keeps the user's order" [ "coalesce"; "vectorize" ]
    (Pipeline.enabled_names (Pipeline.with_passes [ "coalesce"; "vectorize" ] p));
  (match Pipeline.disable [ "no-such-pass" ] p with
  | exception Invalid_argument m ->
      assert_contains "unknown pass error lists the registry" m "coalesce"
  | _ -> Alcotest.fail "unknown pass name accepted");
  let descr = Pipeline.describe disabled in
  List.iter
    (assert_contains "describe" descr)
    [ "merge"; "3.5" ]

let suite =
  ( "pipeline",
    [
      Alcotest.test_case "bit-identity: cold == warm" `Slow test_bit_identity;
      Alcotest.test_case "staged == per-prefix recompiles (mm, tp)" `Quick
        test_staged_matches_prefix_recompiles;
      Alcotest.test_case "analysis cache: LRU keeps hot entries" `Quick
        test_lru_eviction_keeps_hot_entries;
      Alcotest.test_case "verifier verdicts: disk round trip" `Quick
        test_verify_disk_round_trip;
      Alcotest.test_case "verifier verdicts: corrupt files recovered" `Quick
        test_verify_disk_corruption;
      Alcotest.test_case "Cache.verify == concrete, cold + store" `Slow
        test_verify_matches_concrete;
      Alcotest.test_case "final-kernel validation == per-step oracle" `Slow
        test_final_validation_matches_per_step;
      Alcotest.test_case "racy step then a raising pass: blame the step"
        `Quick test_raise_blames_racy_step;
      Alcotest.test_case "racy step repaired by a later pass compiles" `Quick
        test_repaired_step_compiles;
      Alcotest.test_case "clean compile: two verdicts (input, final)" `Quick
        test_clean_compile_verifies_twice;
      Alcotest.test_case "remarks: structure and JSON" `Quick
        test_remarks_structure;
      Alcotest.test_case "pipeline surgery: disable / with_passes / describe"
        `Quick test_pipeline_surgery;
    ] )
