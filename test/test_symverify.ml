(** Tests for the two-symbolic-thread verifier: differential agreement
    with the concrete {!Gpcc_analysis.Verify} tier over the registry
    kernels and a sampled launch grid, exact rule ids on negative
    kernels, a seeded property test over randomized affine kernels,
    explore over a [Proved_when] kernel, concurrent checks on several
    domains, and the [verify-incomplete] warning when the concrete race
    check truncates its lane enumeration. *)

open Gpcc_ast
open Util
module V = Gpcc_analysis.Verify
module SV = Gpcc_analysis.Symverify
module Registry = Gpcc_workloads.Registry
module Workload = Gpcc_workloads.Workload

(* Directional agreement: a symbolic [`Clean] must be confirmed by the
   concrete tier, and a symbolic [`Errors] must name rules the concrete
   tier also reports. [`Unknown] always falls back concretely, so it
   cannot disagree. *)
let check_agreement name (k : Ast.kernel) (res : SV.result)
    (launch : Ast.launch) =
  let where =
    Printf.sprintf "%s at (%d,%d)x(%d,%d)" name launch.Ast.grid_x
      launch.grid_y launch.block_x launch.block_y
  in
  match SV.decide res launch with
  | `Unknown _ -> ()
  | `Clean ->
      let conc = V.errors (V.check ~launch k) in
      if conc <> [] then
        Alcotest.failf "%s: symbolic Clean but concrete rejects: %s" where
          (V.to_string (List.hd conc))
  | `Errors ds ->
      let conc = V.errors (V.check ~launch k) in
      if conc = [] then
        Alcotest.failf "%s: symbolic violation fires but concrete is clean"
          where;
      let crules = List.map (fun (d : V.diagnostic) -> d.rule) conc in
      List.iter
        (fun (d : V.diagnostic) ->
          if not (List.mem d.rule crules) then
            Alcotest.failf "%s: symbolic rule %s not reported concretely"
              where d.rule)
        ds

(* --- registry kernels x sampled config grid, plus the proof floor --- *)

let launch_grid (l : Ast.launch) : Ast.launch list =
  List.concat_map
    (fun (mbx, mby) ->
      List.map
        (fun (mgx, mgy) ->
          {
            Ast.grid_x = l.grid_x * mgx;
            grid_y = l.grid_y * mgy;
            block_x = l.block_x * mbx;
            block_y = l.block_y * mby;
          })
        [ (1, 1); (2, 1); (1, 2) ])
    [ (1, 1); (2, 1); (1, 2); (4, 1) ]
  |> List.filter (fun l -> Ast.threads_per_block l <= 512)

let test_registry_differential () =
  let total = ref 0 and proved = ref 0 in
  List.iter
    (fun (w : Workload.t) ->
      let k = Workload.parse w w.test_size in
      let res = SV.check k in
      match Gpcc_passes.Pass_util.naive_launch k with
      | None -> ()
      | Some naive ->
          incr total;
          (match SV.decide res naive with `Clean -> incr proved | _ -> ());
          List.iter (check_agreement w.name k res) (launch_grid naive))
    Registry.all;
  if !proved * 3 < !total * 2 then
    Alcotest.failf
      "symbolic tier proved only %d of %d naive registry kernels (floor: 8 \
       of 12)"
      !proved !total

(* --- negative kernels: the defect must survive with its rule id --- *)

let negative_cases =
  [
    ( "missing sync",
      V.rule_race_shared,
      {|#pragma gpcc dim n 64
#pragma gpcc output c
__kernel void racy(float a[64], float c[64], int n) {
  __shared__ float s[16];
  s[tidx] = a[idx];
  c[idx] = s[(tidx + 1) % 16];
}|}
    );
    ( "divergent barrier",
      V.rule_barrier_divergence,
      {|#pragma gpcc dim n 64
#pragma gpcc output c
__kernel void divb(float a[64], float c[64], int n) {
  __shared__ float s[16];
  s[tidx] = a[idx];
  if (tidx < 8) {
    __syncthreads();
  }
  c[idx] = s[tidx];
}|}
    );
    ( "global overflow",
      V.rule_oob_global,
      {|#pragma gpcc dim n 64
#pragma gpcc output c
__kernel void oobg(float a[64], float c[64], int n) {
  c[idx + 1] = a[idx];
}|}
    );
    ( "shared overflow",
      V.rule_oob_shared,
      {|#pragma gpcc dim n 64
#pragma gpcc output c
__kernel void oobs(float a[64], float c[64], int n) {
  __shared__ float s[8];
  s[tidx] = a[idx];
  __syncthreads();
  c[idx] = s[tidx % 8];
}|}
    );
    ( "global write collision",
      V.rule_race_global,
      {|#pragma gpcc dim n 64
#pragma gpcc output c
__kernel void gcol(float a[64], float c[64], int n) {
  c[idx / 2] = a[idx];
}|}
    );
  ]

let test_negative_kernels () =
  List.iter
    (fun (name, rule, src) ->
      let k = parse_kernel src in
      let launch = Option.get (Gpcc_passes.Pass_util.naive_launch k) in
      let res = SV.check k in
      match SV.decide res launch with
      | `Clean ->
          Alcotest.failf "%s: symbolic proved a defective kernel clean" name
      | `Errors ds ->
          if
            not (List.exists (fun (d : V.diagnostic) -> d.rule = rule) ds)
          then
            Alcotest.failf "%s: symbolic error decision lacks rule %s" name
              rule
      | `Unknown _ ->
          (* transparent fallback: the concrete tier must still report
             the defect under the expected rule *)
          let ds = V.errors (V.check ~launch k) in
          if
            not (List.exists (fun (d : V.diagnostic) -> d.rule = rule) ds)
          then
            Alcotest.failf "%s: concrete fallback missed rule %s" name rule)
    negative_cases

(* --- property test: randomized affine kernels, seeded --- *)

let test_random_affine_agreement () =
  Random.init 42;
  for i = 0 to 39 do
    let c1 = Random.int 5 in
    let c0 = Random.int 17 in
    let guard =
      match Random.int 3 with 0 -> None | 1 -> Some 8 | _ -> Some 16
    in
    let sync = Random.bool () in
    let store = Printf.sprintf "s[(%d * tidx + %d) %% 64] = a[idx];" c1 c0 in
    let store =
      match guard with
      | None -> store
      | Some g -> Printf.sprintf "if (tidx < %d) { %s }" g store
    in
    let src =
      Printf.sprintf
        {|#pragma gpcc dim n 64
#pragma gpcc output c
__kernel void k%d(float a[64], float c[64], int n) {
  __shared__ float s[64];
  %s
  %s
  c[idx] = s[tidx %% 64];
}|}
        i store
        (if sync then "__syncthreads();" else "")
    in
    let k = parse_kernel src in
    let res = SV.check k in
    List.iter
      (fun (gx, bx) ->
        check_agreement
          (Printf.sprintf "affine#%d" i)
          k res
          { Ast.grid_x = gx; grid_y = 1; block_x = bx; block_y = 1 })
      [ (1, 16); (1, 64); (2, 32); (4, 16); (1, 512); (2, 64) ]
  done

(* --- explore compiles a Proved_when kernel at every target --- *)

let modwrap_src =
  (* each lane owns slot [lane mod 64]: clean up to 64 threads/block,
     racy beyond -- the violation is parametric in the launch *)
  {|#pragma gpcc dim n 64
#pragma gpcc output c
__kernel void modk(float a[64][64], float c[64][64], int n) {
  __shared__ float s[64];
  s[(tidx + bdimx * tidy) % 64] = a[idy][idx];
  __syncthreads();
  c[idy][idx] = s[(tidx + bdimx * tidy) % 64];
}|}

let test_proved_when_configs_compile () =
  let k = parse_kernel modwrap_src in
  let cands, failures =
    Gpcc_core.Explore.search_with_failures ~cfg:Util.cfg280
      ~block_targets:[ 64; 256 ] ~merge_degrees:[ 1 ] ~jobs:1 k
      ~measure:(fun _ _ -> 1.0)
  in
  Alcotest.(check int) "no config fails" 0 (List.length failures);
  let cand target =
    match
      List.find_opt
        (fun (c : Gpcc_core.Explore.candidate) ->
          c.target_block_threads = target)
        cands
    with
    | Some c -> c.result
    | None -> Alcotest.failf "%d-thread config missing from candidates" target
  in
  ignore (cand 64);
  (* the racy 256-thread launch is never built: the pipeline keeps
     modk at a 16x1 block, inside the region where it is race-free *)
  let r = cand 256 in
  Alcotest.(check (pair int int))
    "256-thread config compiles to a 16x1 block" (16, 1)
    (r.launch.block_x, r.launch.block_y);
  Alcotest.(check int)
    "and verifies clean" 0
    (List.length (V.errors (V.check ~launch:r.launch r.kernel)))

(* --- the coverage memo is domain-local: concurrent checks agree --- *)

let test_concurrent_check_agrees () =
  let kernels =
    Registry.all
    |> List.concat_map (fun (w : Workload.t) ->
           let k = Workload.parse w w.test_size in
           [ k; (Gpcc_core.Pipeline.run k).kernel ])
    |> Array.of_list
  in
  let n = Array.length kernels in
  (* each domain starts at a different offset, so the domains analyse
     different kernels at the same moment *)
  let run d =
    let out = Array.make n None in
    for j = 0 to n - 1 do
      let i = (j + (d * n / 4)) mod n in
      out.(i) <- Some (SV.check kernels.(i))
    done;
    Array.map Option.get out
  in
  let concurrent =
    List.init 4 (fun d -> Domain.spawn (fun () -> run d))
    |> List.map Domain.join
  in
  let sequential = Array.map SV.check kernels in
  List.iter
    (Array.iteri (fun i r ->
         if r <> sequential.(i) then
           Alcotest.failf "%s: concurrent verdict %s, sequential %s"
             kernels.(i).Ast.k_name
             (SV.verdict_to_string r.SV.verdict)
             (SV.verdict_to_string sequential.(i).SV.verdict)))
    concurrent

(* --- the concrete tier flags its own truncated race check --- *)

let test_verify_incomplete_warning () =
  let k =
    parse_kernel
      {|#pragma gpcc dim n 64
#pragma gpcc output c
__kernel void wide(float a[64], float c[64], int n) {
  __shared__ float s[16];
  s[tidx % 16] = a[idx % 64];
  __syncthreads();
  c[idx % 64] = s[tidx % 16];
}|}
  in
  let wide = { Ast.grid_x = 1; grid_y = 1; block_x = 1024; block_y = 1 } in
  let ds = V.check ~launch:wide k in
  Alcotest.(check bool)
    "truncated enumeration is flagged" true
    (List.exists
       (fun (d : V.diagnostic) ->
         d.rule = V.rule_verify_incomplete && d.severity = V.Warning)
       ds);
  let narrow = { Ast.grid_x = 4; grid_y = 1; block_x = 16; block_y = 1 } in
  let ds = V.check ~launch:narrow k in
  Alcotest.(check bool)
    "full enumeration stays silent" true
    (not
       (List.exists
          (fun (d : V.diagnostic) -> d.rule = V.rule_verify_incomplete)
          ds))

(* --- barrier divergence: hard in both tiers, soft decided per launch --- *)

let test_barrier_divergence_tiers () =
  let hard =
    parse_kernel
      {|#pragma gpcc dim n 64
#pragma gpcc output c
__kernel void divb(float a[64], float c[64], int n) {
  __shared__ float s[16];
  s[tidx] = a[idx];
  if (tidx < 8) {
    __syncthreads();
  }
  c[idx] = s[tidx];
}|}
  in
  let launch = { Ast.grid_x = 4; grid_y = 1; block_x = 16; block_y = 1 } in
  let is_div (d : V.diagnostic) = d.rule = V.rule_barrier_divergence in
  Alcotest.(check bool)
    "hard: concrete error" true
    (List.exists is_div (V.errors (V.check ~launch hard)));
  let res = SV.check hard in
  Alcotest.(check bool)
    "hard: symbolic violation at every launch" true
    (List.exists
       (fun (v : SV.violation) ->
         v.v_rule = V.rule_barrier_divergence && v.v_when = [])
       res.violations);
  (* a grid-strided loop holding barriers: lanes run the same trip
     count at 64 threads over n = 64, but not at 512 *)
  let soft =
    parse_kernel
      {|#pragma gpcc dim n 64
#pragma gpcc output c
__kernel void soft(float a[64], float c[64], int n) {
  __shared__ float s[512];
  for (int i = idx; i < n; i += bdimx * gdimx) {
    s[tidx] = a[i];
    __syncthreads();
    c[i] = s[(tidx + 1) % bdimx];
    __syncthreads();
  }
}|}
  in
  let at bx = { Ast.grid_x = 1; grid_y = 1; block_x = bx; block_y = 1 } in
  Alcotest.(check bool)
    "soft: uniform trip count at 64 lanes" false
    (List.exists is_div (V.check ~launch:(at 64) soft));
  Alcotest.(check bool)
    "soft: divergent at 512 lanes" true
    (List.exists is_div (V.errors (V.check ~launch:(at 512) soft)));
  let res = SV.check soft in
  Alcotest.(check bool) "soft: no symbolic violation" true (res.violations = []);
  match res.verdict with
  | SV.Unknown _ -> ()
  | v -> Alcotest.failf "soft: symbolic verdict %s" (SV.verdict_to_string v)

(* A hard-divergent barrier inside a frozen loop is reported once,
   not once per pass of the walk over the loop body. *)
let test_barrier_in_loop_reported_once () =
  let k =
    parse_kernel
      {|#pragma gpcc dim n 64
#pragma gpcc output c
__kernel void loopb(float a[64], float c[64], int n) {
  for (int i = 0; i < 4; i++) {
    if (tidx < 4) {
      __syncthreads();
    }
  }
  c[idx] = a[idx];
}|}
  in
  let launch = { Ast.grid_x = 4; grid_y = 1; block_x = 16; block_y = 1 } in
  let res = SV.check k in
  Alcotest.(check int) "one symbolic violation" 1 (List.length res.violations);
  (match SV.decide res launch with
  | `Errors ds -> Alcotest.(check int) "one diagnostic" 1 (List.length ds)
  | `Clean -> Alcotest.fail "decided Clean"
  | `Unknown m -> Alcotest.failf "decided Unknown: %s" m);
  Alcotest.(check int)
    "one concrete diagnostic" 1
    (List.length (V.errors (V.check ~launch k)))

let suite =
  ( "symverify",
    [
      Alcotest.test_case "registry differential gate" `Slow
        test_registry_differential;
      Alcotest.test_case "negative kernels keep rule ids" `Quick
        test_negative_kernels;
      Alcotest.test_case "random affine agreement" `Slow
        test_random_affine_agreement;
      Alcotest.test_case "Proved_when configs compile clean" `Quick
        test_proved_when_configs_compile;
      Alcotest.test_case "concurrent checks == sequential" `Slow
        test_concurrent_check_agrees;
      Alcotest.test_case "verify-incomplete warning" `Quick
        test_verify_incomplete_warning;
      Alcotest.test_case "barrier divergence: hard in both tiers, soft per launch"
        `Quick test_barrier_divergence_tiers;
      Alcotest.test_case "hard barrier in a loop reported once" `Quick
        test_barrier_in_loop_reported_once;
    ] )
