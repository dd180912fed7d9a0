(* Pins the compiler's output: for every registry and extra workload at
   its test size, plus the warm-replay benchmark jobs (fft@1024,
   mm@256), and for each of the 30 default (block target, merge degree)
   configurations, prints the digest of the final kernel and launch and
   of the step list (step name, kernel and launch after, notes).
   Translation validation is off: this pins the passes, not the
   verifier. *)

open Gpcc_ast
module Pipeline = Gpcc_core.Pipeline
module Explore = Gpcc_core.Explore
module Workload = Gpcc_workloads.Workload
module Registry = Gpcc_workloads.Registry

let hex s = Digest.to_hex (Digest.string s)

let jobs =
  List.map
    (fun (w : Workload.t) -> (w, w.test_size))
    (Registry.all @ Registry.extras)
  @ List.filter_map
      (fun (name, n) ->
        let w = Registry.find_exn name in
        if w.test_size = n then None else Some (w, n))
      [ ("fft", 1024); ("mm", 256) ]

let step_text (s : Pipeline.step) =
  String.concat "\n"
    (s.step_name
    :: Pp.kernel_to_string ~launch:s.launch_after s.kernel_after
    :: Pipeline.notes s)

let () =
  List.iter
    (fun ((w : Workload.t), n) ->
      let k = Workload.parse w n in
      List.iter
        (fun target ->
          List.iter
            (fun degree ->
              let pipeline =
                Pipeline.default ~target_block_threads:target
                  ~merge_degree:degree ~verify:false ()
              in
              let outcome =
                match Pipeline.run ~pipeline k with
                | r ->
                    Printf.sprintf "kernel %s steps %s"
                      (hex (Pp.kernel_to_string ~launch:r.launch r.kernel))
                      (hex
                         (String.concat "\n--\n" (List.map step_text r.steps)))
                | exception e -> "error " ^ Printexc.to_string e
              in
              Printf.printf "%s@%d t=%d d=%d %s\n" w.name n target degree
                outcome)
            Explore.default_merge_degrees)
        Explore.default_block_targets)
    jobs
