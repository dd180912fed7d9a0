(* One job of the repository benchmark.

   Usage: bench.exe [--trace] [--check] [--setup-only] WORKLOAD:SIZE

   Runs one model-guided design-space exploration
   ([Explore.search_funnel ~cfg:gtx280 ~jobs:1]) of the workload's naive
   kernel at that size, against the artifact store at [$GPCC_CACHE_DIR],
   and prints one JSON object on standard output. [run.py] starts a fresh
   process per job, as a user's [gpcc explore] would be, so in-process
   memos and the heap are always cold; only the store can be warm.

   The predict and measure callbacks make the same calls as
   [Workload.predict_gflops] and [Workload.measure_gflops_blocks ~sample:1
   ~streams:3]. With [--trace] each call into a layer is wrapped in a
   span; without it the spans only count calls. [--check] recompiles each
   winner and runs it against the CPU reference after the timed region.
   [--setup-only] stops where the first job would start. *)

open Gpcc_ast
module Workload = Gpcc_workloads.Workload
module Registry = Gpcc_workloads.Registry
module Explore = Gpcc_core.Explore
module Explore_cache = Gpcc_core.Explore_cache
module Pipeline = Gpcc_core.Pipeline
module Launch = Gpcc_sim.Launch
module Devmem = Gpcc_sim.Devmem
module Cost_model = Gpcc_analysis.Cost_model
module Analysis_cache = Gpcc_analysis.Analysis_cache
module Store = Gpcc_util.Store

let cfg = Gpcc_sim.Config.gtx280
let now = Unix.gettimeofday

(* --- spans: wall time and calls spent inside one layer ---------------- *)

type span = { mutable secs : float; mutable calls : int }

let tracing = ref false
let span () = { secs = 0.0; calls = 0 }

(* Calls are counted always, so an untraced round can still prove that
   a layer was never entered; only the clock reads are traced. Explore
   runs with one job, so every callback runs on this domain. *)
let timed sp f =
  sp.calls <- sp.calls + 1;
  if not !tracing then f ()
  else begin
    let t0 = now () in
    Fun.protect f ~finally:(fun () -> sp.secs <- sp.secs +. (now () -. t0))
  end

let parse_span = span ()
let inputs_span = span ()
let devmem_span = span ()
let probe_span = span ()
let run_span = span ()
let cost_span = span ()

(* --- the explore callbacks ------------------------------------------- *)

let upload inputs k =
  timed devmem_span (fun () ->
      let mem = Devmem.of_kernel k in
      List.iter (fun (name, data) -> Devmem.write mem name data) inputs;
      mem)

let predict inputs k launch =
  let mem = upload inputs k in
  let t =
    (timed probe_span (fun () -> Launch.run_block cfg k launch mem)).timing
  in
  let occ = t.occupancy in
  let probe =
    {
      Cost_model.p_gflops = t.gflops;
      p_bound = t.bound;
      p_active_warps = occ.active_warps;
      p_blocks_per_sm = occ.blocks_per_sm;
      p_reg_spill = occ.reg_spill;
      p_waves = t.waves;
      p_total_blocks = Ast.total_blocks launch;
    }
  in
  (timed cost_span (fun () -> Cost_model.predict probe)).score

let measure inputs ?blocks k launch =
  let mem = upload inputs k in
  (timed run_span (fun () ->
       Launch.run ~mode:(Launch.Sampled 1) ~streams:3 ?block_budget:blocks cfg
         k launch mem))
    .timing
    .gflops

(* --- jobs ------------------------------------------------------------ *)

type job = {
  w : Workload.t;
  n : int;
  naive : Ast.kernel;
  inputs : (string * float array) list;
  budget_sensitive : bool;
}

let job_of_arg arg =
  match String.split_on_char ':' arg with
  | [ name; size ] -> (
      match (Registry.find name, int_of_string_opt size) with
      | Some w, Some n ->
          let naive = timed parse_span (fun () -> Workload.parse w n) in
          let inputs = timed inputs_span (fun () -> w.inputs n) in
          let budget_sensitive = Workload.budget_sensitive w n in
          { w; n; naive; inputs; budget_sensitive }
      | _ -> failwith ("unknown job " ^ arg))
  | _ -> failwith ("job must be WORKLOAD:SIZE, got " ^ arg)

type outcome = {
  job : job;
  explore_s : float;
  cands : Explore.candidate list;
  failures : Explore.failure list;
  funnel : Explore.funnel;
}

let explore cache job =
  let t0 = now () in
  let cands, failures, funnel =
    Explore.search_funnel ~cfg ~jobs:1 ~cache
      ~cache_prefix:
        (Printf.sprintf "perfbench/%s/%s/%d" cfg.name job.w.name job.n)
      ~budget_sensitive:job.budget_sensitive job.naive
      ~predict:(predict job.inputs) ~measure:(measure job.inputs)
  in
  { job; explore_s = now () -. t0; cands; failures; funnel }

let winner o =
  match Explore.best_measured o.cands with
  | Some b when b.score > Float.neg_infinity -> Some b
  | _ -> None

(* Recompile the winner, run it over the whole grid against the CPU
   reference, and time the naive and winning kernels on the model. *)
let check o =
  match winner o with
  | None -> Error "no runnable winner"
  | Some b -> (
      let { w; n; naive; _ } = o.job in
      let pipeline =
        Pipeline.default ~cfg ~target_block_threads:b.target_block_threads
          ~merge_degree:b.merge_degree ()
      in
      try
        let r = Pipeline.run ~pipeline naive in
        let text (k, l) = Pp.kernel_to_string ~launch:l k in
        if text (r.kernel, r.launch) <> text (b.result.kernel, b.result.launch)
        then Error "recompiled winner differs from the explored one"
        else begin
          Workload.check cfg w n r.kernel r.launch;
          let naive_launch =
            Option.get (Gpcc_passes.Pass_util.naive_launch naive)
          in
          let ms k l = (Workload.measure cfg w n k l).time_ms in
          Ok (ms naive naive_launch, ms r.kernel r.launch)
        end
      with
      | Workload.Check_failed m -> Error m
      | e -> Error (Printexc.to_string e))

(* --- process-wide counters -------------------------------------------- *)

type counters = {
  passes : (string * (int * float)) list;
  verify_s : float;
  proofs : int;
  fallbacks : int;
  memo_hits : int;
  memo_misses : int;
  perf : Launch.perf_counters;
  store_hits : int;
  store_misses : int;
  contention : int;
  gc : Gc.stat;
}

let counters () =
  {
    passes = Pipeline.pass_timings ();
    verify_s = Analysis_cache.global_verify_wall_clock_s ();
    proofs = Analysis_cache.global_symbolic_proofs ();
    fallbacks = Analysis_cache.global_concrete_fallbacks ();
    memo_hits = Analysis_cache.global_hits ();
    memo_misses = Analysis_cache.global_misses ();
    perf = Launch.perf_counters ();
    store_hits = Store.global_hits ();
    store_misses = Store.global_misses ();
    contention = Store.global_lock_contention ();
    gc = Gc.quick_stat ();
  }

let vm_hwm_mb () =
  try
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec go () =
          match In_channel.input_line ic with
          | None -> Float.nan
          | Some l -> (
              match Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id with
              | Some kb -> float_of_int kb /. 1024.0
              | None -> go ())
        in
        go ())
  with Sys_error _ -> Float.nan

(* --- JSON output ------------------------------------------------------- *)

let num f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"
let str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 || Char.code c >= 0x7f ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let obj kvs =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> str k ^ ": " ^ v) kvs) ^ "}"
let arr vs = "[" ^ String.concat ", " vs ^ "]"
let int = string_of_int

let failure_json (f : Explore.failure) =
  let stage =
    match f.failed_stage with
    | `Compile -> "compile"
    | `Verify -> "verify"
    | `Predict -> "predict"
    | `Measure -> "measure"
  in
  str
    (Printf.sprintf "t=%d d=%d %s: %s" f.failed_target f.failed_degree stage
       f.reason)

let job_json o checked =
  let f = o.funnel in
  let winner =
    match winner o with
    | Some b ->
        arr [ int b.target_block_threads; int b.merge_degree; num b.score ]
    | None -> "null"
  in
  let check =
    match checked with
    | None -> []
    | Some (Ok (naive_ms, winner_ms)) ->
        [
          ("check", "null");
          ("naive_ms", num naive_ms);
          ("winner_ms", num winner_ms);
        ]
    | Some (Error m) -> [ ("check", str m) ]
  in
  obj
    ([
       ("workload", str o.job.w.name);
       ("size", int o.job.n);
       ("explore_s", num o.explore_s);
       ("winner", winner);
       ("configs", int f.f_configs);
       ("distinct", int f.f_distinct);
       ("pruned", int f.f_pruned);
       ("partial_runs", int f.f_partial_runs);
       ("measured", int f.f_measured);
       ("failures", arr (List.map failure_json o.failures));
     ]
    @ check)

let layers_json (a : counters) (b : counters) check_s =
  let pass_ms c name =
    Option.fold ~none:(0, 0.0) ~some:Fun.id (List.assoc_opt name c.passes)
  in
  let passes =
    List.map
      (fun name ->
        let n0, ms0 = pass_ms a name and n1, ms1 = pass_ms b name in
        ( name,
          obj [ ("runs", int (n1 - n0)); ("s", num ((ms1 -. ms0) /. 1000.0)) ]
        ))
      (Gpcc_passes.Pass.names ())
  in
  let sp s = obj [ ("s", num s.secs); ("calls", int s.calls) ] in
  obj
    [
      ("passes", obj passes);
      ("verify_s", num (b.verify_s -. a.verify_s));
      ("symbolic_proofs", int (b.proofs - a.proofs));
      ("concrete_fallbacks", int (b.fallbacks - a.fallbacks));
      ("memo_hits", int (b.memo_hits - a.memo_hits));
      ("memo_misses", int (b.memo_misses - a.memo_misses));
      ("cost_model", sp cost_span);
      ("probe", sp probe_span);
      ("run", sp run_span);
      ("devmem", sp devmem_span);
      ("parse", sp parse_span);
      ("inputs", sp inputs_span);
      ("check_s", num check_s);
      ( "coalescer_memo",
        arr
          [
            int (b.perf.pc_memo_hits - a.perf.pc_memo_hits);
            int (b.perf.pc_memo_misses - a.perf.pc_memo_misses);
          ] );
      ( "plane",
        arr
          [
            int (b.perf.pc_plane_hits - a.perf.pc_plane_hits);
            int (b.perf.pc_plane_misses - a.perf.pc_plane_misses);
          ] );
      ("closed_form", int (b.perf.pc_closed_form - a.perf.pc_closed_form));
      ( "major_collections",
        int (b.gc.major_collections - a.gc.major_collections) );
      ( "top_heap_mb",
        num
          (float_of_int (b.gc.top_heap_words * (Sys.word_size / 8))
          /. 1048576.0) );
    ]

let () =
  let flags, jobs =
    List.partition
      (String.starts_with ~prefix:"--")
      (List.tl (Array.to_list Sys.argv))
  in
  let flag f = List.mem f flags in
  tracing := flag "--trace";
  let job =
    match jobs with
    | [ arg ] -> job_of_arg arg
    | _ ->
        prerr_endline
          "usage: bench.exe [--trace] [--check] [--setup-only] WORKLOAD:SIZE";
        exit 2
  in
  let cache = Explore_cache.open_dir () in
  let first_job_at = now () in
  if flag "--setup-only" then begin
    print_endline (obj [ ("first_job_at", num first_job_at) ]);
    exit 0
  end;
  let before = counters () in
  let o = explore cache job in
  let after = counters () in
  let rss_mb = vm_hwm_mb () in
  let t0 = now () in
  let checked = if flag "--check" then Some (check o) else None in
  let check_s = now () -. t0 in
  print_endline
    (obj
       [
         ("first_job_at", num first_job_at);
         ("explore_s", num o.explore_s);
         ("store_hits", int (after.store_hits - before.store_hits));
         ("store_misses", int (after.store_misses - before.store_misses));
         ("store_lock_contention", int (after.contention - before.contention));
         ("peak_rss_mb", num rss_mb);
         ("job", job_json o checked);
         ("layers", layers_json before after check_s);
         ( "env",
           obj
             [
               ( "backend",
                 str (Launch.backend_name (Launch.backend_of_env ())) );
               ("explore_jobs", int 1);
               ("sim_jobs", int (Gpcc_util.Pool.default_jobs ()));
               ("nproc", int (Domain.recommended_domain_count ()));
               ("ocaml", str Sys.ocaml_version);
             ] );
       ])
