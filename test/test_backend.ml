(** Backend equivalence: the warp-vectorized simulator backend must be
    bit-identical to the tree-walking reference interpreter — output
    arrays, every {!Gpcc_sim.Stats} field, and the derived
    {!Gpcc_sim.Timing} estimate — on every registry workload, naive and
    optimized, in Full and Sampled modes, and on a seeded corpus of
    random fuzz kernels; parallel grid execution must reproduce serial
    execution exactly. *)

open Util
module W = Gpcc_workloads.Workload
module L = Gpcc_sim.Launch
module S = Gpcc_sim.Stats

let stats_fields = S.fields

let timing_fields (t : Gpcc_sim.Timing.result) =
  [
    ("cycles", t.cycles);
    ("time_ms", t.time_ms);
    ("gflops", t.gflops);
    ("bandwidth_gbs", t.bandwidth_gbs);
    ("timing_partition_eff", t.partition_eff);
  ]

let global_arrays (k : Gpcc_ast.Ast.kernel) =
  List.filter_map
    (fun (p : Gpcc_ast.Ast.param) ->
      match p.p_ty with
      | Array { space = Global; _ } -> Some p.p_name
      | _ -> None)
    k.k_params

(** Run [k] on fresh memory and return the simulator result plus the
    final contents of every global array. *)
let exec ~backend ?jobs ~mode (w : W.t) n (k : Gpcc_ast.Ast.kernel) launch =
  let mem = Gpcc_sim.Devmem.of_kernel k in
  List.iter
    (fun (name, d) -> Gpcc_sim.Devmem.write mem name d)
    (w.W.inputs n);
  let r = L.run ~mode ~backend ?jobs cfg280 k launch mem in
  (r, List.map (fun a -> (a, Gpcc_sim.Devmem.read mem a)) (global_arrays k))

(** Bitwise comparison ([compare] treats nan = nan, unlike [=]). *)
let bit_identical label ((ra : L.result), oa) ((rb : L.result), ob) =
  List.iter2
    (fun (n1, a) (n2, b) ->
      Alcotest.(check string) (label ^ " array order") n1 n2;
      if compare a b <> 0 then
        Alcotest.failf "%s: array %s differs between backends" label n1)
    oa ob;
  List.iter2
    (fun (f, x) (_, y) ->
      if compare x y <> 0 then
        Alcotest.failf "%s: stats field %s: %.17g <> %.17g" label f x y)
    (stats_fields ra.L.per_block)
    (stats_fields rb.L.per_block);
  if compare ra.L.partition_eff rb.L.partition_eff <> 0 then
    Alcotest.failf "%s: partition_eff %.17g <> %.17g" label ra.L.partition_eff
      rb.L.partition_eff;
  List.iter2
    (fun (f, x) (_, y) ->
      if compare x y <> 0 then
        Alcotest.failf "%s: timing field %s: %.17g <> %.17g" label f x y)
    (timing_fields ra.L.timing) (timing_fields rb.L.timing);
  Alcotest.(check string) (label ^ " timing bound") ra.L.timing.bound
    rb.L.timing.bound;
  Alcotest.(check int) (label ^ " timing waves") ra.L.timing.waves
    rb.L.timing.waves;
  Alcotest.(check int) (label ^ " sampled_blocks") ra.L.sampled_blocks
    rb.L.sampled_blocks

(** Naive and pipeline-optimized variants of one workload. *)
let kernels_of (w : W.t) n =
  let k = W.parse w n in
  let launch = Option.get (Gpcc_passes.Pass_util.naive_launch k) in
  let r = compile k in
  [ (w.W.name ^ "/naive", k, launch); (w.W.name ^ "/opt", r.kernel, r.launch) ]

let test_vector_matches_reference () =
  List.iter
    (fun (w : W.t) ->
      let n = w.W.test_size in
      List.iter
        (fun (label, k, launch) ->
          List.iter
            (fun (mname, mode) ->
              let fb0 = Gpcc_sim.Vector.fallback_count () in
              let rr = exec ~backend:L.Reference ~jobs:1 ~mode w n k launch in
              let rv = exec ~backend:L.Vector ~jobs:1 ~mode w n k launch in
              Alcotest.(check int)
                (label ^ "/" ^ mname ^ " vector without fallback")
                fb0
                (Gpcc_sim.Vector.fallback_count ());
              bit_identical (label ^ "/" ^ mname ^ " vector") rr rv)
            [ ("full", L.Full); ("sampled", L.Sampled 4) ])
        (kernels_of w n))
    Gpcc_workloads.Registry.all

(** Seeded random-kernel corpus: the vector backend must agree with the
    reference bit-for-bit on generated kernels too (reduction loops,
    guards, stencils — shapes the registry does not cover), both naive
    and after the optimization pipeline. *)
let test_vector_fuzz_corpus () =
  let exec_kernel ~backend k launch =
    let mem = Gpcc_sim.Devmem.of_kernel k in
    List.iter
      (fun (name, d) -> Gpcc_sim.Devmem.write mem name d)
      Test_fuzz.inputs;
    let r = L.run ~mode:L.Full ~backend ~jobs:1 cfg280 k launch mem in
    (r, List.map (fun a -> (a, Gpcc_sim.Devmem.read mem a)) (global_arrays k))
  in
  for i = 0 to 19 do
    let rand = Random.State.make [| 0x5eed; i |] in
    let spec = QCheck.Gen.generate1 ~rand Test_fuzz.gen_spec in
    let src = Test_fuzz.source_of_spec spec in
    let k = parse_kernel src in
    let launch = Option.get (Gpcc_passes.Pass_util.initial_launch k) in
    let label = Printf.sprintf "fuzz[%d]" i in
    let rr = exec_kernel ~backend:L.Reference k launch in
    let rv = exec_kernel ~backend:L.Vector k launch in
    bit_identical label rr rv;
    if i < 6 then begin
      (* a few optimized variants: tiled/merged/unrolled shapes *)
      let r = compile ~verify:false k in
      let ro = exec_kernel ~backend:L.Reference r.kernel r.launch in
      let vo = exec_kernel ~backend:L.Vector r.kernel r.launch in
      bit_identical (label ^ "/opt") ro vo
    end
  done

(** Strided, offset and uniform-loop global accesses: the shapes the
    plane-granularity accounting resolves without per-half-warp work.
    Each must stay bit-identical to the reference, and the perf
    counters must show the fast paths actually firing — the plane memo
    on strided planes, the closed-form credit on block-uniform loops. *)
let test_vector_plane_accounting () =
  let run_pair label src grid block =
    let exec ~backend =
      let k = parse_kernel src in
      let launch =
        { Gpcc_ast.Ast.grid_x = grid; grid_y = 1; block_x = block; block_y = 1 }
      in
      let mem = Gpcc_sim.Devmem.of_kernel k in
      let r = L.run ~mode:L.Full ~backend ~jobs:1 cfg280 k launch mem in
      (r, List.map (fun a -> (a, Gpcc_sim.Devmem.read mem a)) (global_arrays k))
    in
    let rr = exec ~backend:L.Reference in
    let pc0 = L.perf_counters () in
    let rv = exec ~backend:L.Vector in
    let pc1 = L.perf_counters () in
    bit_identical label rr rv;
    (pc0, pc1)
  in
  (* strided: within-group byte stride 8, four blocks shifting the plane
     uniformly, so the first block misses the plane memo and the rest
     resolve without a per-half-warp walk *)
  let pc0, pc1 =
    run_pair "strided plane"
      {|__kernel void s(float a[512], float o[256]) {
  o[idx] = a[idx * 2];
}|}
      4 64
  in
  Alcotest.(check bool)
    "strided: plane memo exercised" true
    L.(pc1.pc_plane_misses > pc0.pc_plane_misses);
  (* offset: base misaligned from the memo granularity, still segmented *)
  let _, _ =
    run_pair "offset plane"
      {|__kernel void f(float a[512], float o[256]) {
  o[idx] = a[idx + 3];
}|}
      4 64
  in
  (* block-uniform loop over a stable tid-plane site: every iteration
     after the first replays the cached digest in closed form *)
  let pc0, pc1 =
    run_pair "uniform loop credit"
      {|#pragma gpcc dim w 64
__kernel void t(float a[64][64], float b[64], float c[64], int w) {
  float sum = 0;
  for (int i = 0; i < w; i++)
    sum += a[i][idx] * b[i];
  c[idx] = sum;
}|}
      1 64
  in
  Alcotest.(check bool)
    "uniform loop: closed-form credits advance" true
    L.(pc1.pc_closed_form > pc0.pc_closed_form)

(** Wide-vectorized kernels (float2/float4 accesses, the AMD target's
    shape) exercise the vector backend's multi-component planes, which
    the registry's optimized GTX kernels do not. *)
let test_vector_wide_vectors () =
  let w = Gpcc_workloads.Registry.find_exn "vv" in
  let n = w.W.test_size in
  let k = W.parse w n in
  List.iter
    (fun width ->
      let launch = Option.get (Gpcc_passes.Pass_util.initial_launch k) in
      let o = Gpcc_passes.Vectorize_wide.apply ~width k launch in
      Alcotest.(check bool) "wide vectorize fired" true o.fired;
      let label = Printf.sprintf "vv/float%d" width in
      let rr =
        exec ~backend:L.Reference ~jobs:1 ~mode:L.Full w n o.kernel o.launch
      in
      let rv =
        exec ~backend:L.Vector ~jobs:1 ~mode:L.Full w n o.kernel o.launch
      in
      bit_identical label rr rv)
    [ 2; 4 ]

(** [GPCC_CHECK=1] must win over the vector backend selection: the
    dynamic race checker only sees accesses made by the serial reference
    interpreter, so a checked run of a barrier-heavy shared-memory
    kernel must fall through to it (and come back clean) even when the
    environment asks for the vector backend. *)
let test_vector_check_run () =
  let tp = Gpcc_workloads.Registry.find_exn "tp" in
  let n = tp.W.test_size in
  let k, launch = Gpcc_workloads.Sdk_transpose.new_ n in
  let plain = exec ~backend:L.Reference ~jobs:1 ~mode:L.Full tp n k launch in
  Unix.putenv "GPCC_BACKEND" "vector";
  Unix.putenv "GPCC_CHECK" "1";
  let checked =
    Fun.protect
      ~finally:(fun () ->
        Unix.putenv "GPCC_CHECK" "0";
        Unix.putenv "GPCC_BACKEND" "vector")
      (fun () ->
        let mem = Gpcc_sim.Devmem.of_kernel k in
        List.iter
          (fun (name, d) -> Gpcc_sim.Devmem.write mem name d)
          (tp.W.inputs n);
        let r = L.run ~mode:L.Full cfg280 k launch mem in
        (r, List.map (fun a -> (a, Gpcc_sim.Devmem.read mem a)) (global_arrays k)))
  in
  bit_identical "sdk_transpose GPCC_CHECK" plain checked

let test_parallel_matches_serial () =
  List.iter
    (fun (w : W.t) ->
      let n = w.W.test_size in
      List.iter
        (fun (label, k, launch) ->
          let serial =
            exec ~backend:L.Vector ~jobs:1 ~mode:L.Full w n k launch
          in
          let par = exec ~backend:L.Vector ~jobs:4 ~mode:L.Full w n k launch in
          bit_identical (label ^ " parallel==serial") serial par)
        (kernels_of w n))
    Gpcc_workloads.Registry.all

let test_parallel_reference_matches_serial () =
  (* the parallel grid executor is backend-independent *)
  let w = Gpcc_workloads.Registry.find_exn "mm" in
  let n = w.W.test_size in
  List.iter
    (fun (label, k, launch) ->
      let serial =
        exec ~backend:L.Reference ~jobs:1 ~mode:L.Full w n k launch
      in
      let par = exec ~backend:L.Reference ~jobs:4 ~mode:L.Full w n k launch in
      bit_identical (label ^ " ref parallel==serial") serial par)
    (kernels_of w n)

let test_backend_of_env () =
  let bset v = Unix.putenv "GPCC_BACKEND" v in
  let got () = L.backend_name (L.backend_of_env ()) in
  (* the unset default is [vector]; [putenv] cannot unset, so only
     observable when the process environment left it unset *)
  if Sys.getenv_opt "GPCC_BACKEND" = None then
    Alcotest.(check string) "default" "vector" (got ());
  List.iter
    (fun (v, want) ->
      bset v;
      Alcotest.(check string) ("GPCC_BACKEND=" ^ v) want (got ()))
    [
      ("vector", "vector");
      ("vec", "vector");
      ("ref", "reference");
      ("reference", "reference");
    ];
  (* any other value fails loudly, naming the variable, the value and
     the accepted spellings *)
  List.iter
    (fun v ->
      bset v;
      match L.backend_of_env () with
      | b -> Alcotest.failf "GPCC_BACKEND=%S selected %s" v (L.backend_name b)
      | exception Invalid_argument m ->
          List.iter
            (assert_contains ("GPCC_BACKEND=" ^ v ^ " error") m)
            [
              "GPCC_BACKEND"; Printf.sprintf "%S" v; "vector"; "vec"; "ref";
              "reference";
            ])
    [ "compiled"; "compile"; ""; "Vector" ];
  (* leave the suite on the default backend *)
  bset "vector"

let test_unsupported_falls_back () =
  (* a float scalar parameter is outside the vector subset: the run
     must fall back to the reference interpreter and still fail with the
     reference's runtime error *)
  let k =
    Gpcc_ast.Parser.kernel_of_string
      {|__kernel void f(float s, float a[64]) {
  a[idx] = s;
}|}
  in
  let launch =
    { Gpcc_ast.Ast.grid_x = 1; grid_y = 1; block_x = 64; block_y = 1 }
  in
  let mem = Gpcc_sim.Devmem.of_kernel k in
  let fb0 = Gpcc_sim.Vector.fallback_count () in
  (match L.run ~backend:L.Vector ~jobs:1 cfg280 k launch mem with
  | _ -> Alcotest.fail "expected a runtime error"
  | exception Gpcc_sim.Interp.Runtime_error m ->
      assert_contains "reference error surfaces" m
        "unsupported scalar parameter type");
  Alcotest.(check bool) "fallback recorded" true
    (Gpcc_sim.Vector.fallback_count () > fb0)

let suite =
  let q n f = Alcotest.test_case n `Quick f in
  let s n f = Alcotest.test_case n `Slow f in
  ( "backend",
    [
      s "vector == reference (bit-identical)" test_vector_matches_reference;
      s "vector == reference on fuzz corpus" test_vector_fuzz_corpus;
      q "plane accounting: strided/offset/loop" test_vector_plane_accounting;
      q "vector == reference on float2/float4" test_vector_wide_vectors;
      q "GPCC_CHECK wins over vector selection" test_vector_check_run;
      s "parallel Full == serial Full" test_parallel_matches_serial;
      s "reference parallel == serial" test_parallel_reference_matches_serial;
      q "GPCC_BACKEND selection" test_backend_of_env;
      q "unsupported kernels fall back" test_unsupported_falls_back;
    ] )
