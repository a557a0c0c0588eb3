(** Cold set-up, measured from outside: each repetition is a fresh
    child process ([zkbench.exe setup ...]) with an empty
    [ZKML_CACHE_DIR], timed from spawn to exit. The child prints the
    plan it compiled for every model, so layout changes between
    repetitions are visible. *)

module B = Zkml_serve.Backends
module SP = Zkml_serve.Seg_proof
module Seg = Zkml_compiler.Segment
module QE = Zkml_nn.Quant_exec

let segments = 4

(* ------------------------------------------------------------------ *)
(* Child side *)

(** Everything [Artifacts.prepare] does on a miss, for every model under
    both backends. *)
let inproc () =
  List.iter
    (fun name ->
      List.iter
        (fun b ->
          Printf.printf "plan %s/%s %s\n%!" name (B.backend_name b)
            (Mono.plan_string (Mono.cached_plan b (Sched.model name))))
        Mono.backends)
    Sched.model_names

(** Set-up of a segmented prove: calibrate, optimize, plan the segments
    and build (or load) each segment's keys, the first k that fits
    first, as [Seg_proof.prove] does. *)
let seg_keys (m : Zkml_models.Zoo.model) =
  let params = Lazy.force B.kzg_params in
  let times = B.Pipe_kzg.calibrated params in
  let cfg = m.Zkml_models.Zoo.cfg and graph = m.Zkml_models.Zoo.graph in
  let exec = QE.run ~saturate:true cfg graph ~inputs:(B.Pipe_kzg.zero_inputs graph) in
  let plan =
    SP.plan_for ~times ~backend:B.Pipe_kzg.backend
      ~group_bytes:B.Kzg.G.size_bytes ~field_bytes:B.Pipe_kzg.F.size_bytes m
      exec
  in
  let spec = plan.Zkml_compiler.Optimizer.spec
  and ncols = plan.Zkml_compiler.Optimizer.ncols in
  let splan = Seg.plan ~spec ~ncols ~cfg ~segments graph in
  let ks =
    Array.to_list splan.Seg.p_segments
    |> List.map (fun (sg : Seg.seg) ->
           let rec keys_at k =
             if k > B.srs_k then failwith "segment does not fit the SRS"
             else
               match
                 B.Serve_kzg.prepare_for_header ~spec ~ncols ~k ~cfg params
                   sg.Seg.sg_graph
               with
               | Ok _ -> k
               | Error _ -> keys_at (k + 1)
           in
           keys_at sg.Seg.sg_k)
  in
  ( {
      Mono.spec = Zkml_compiler.Layout_spec.to_string spec;
      k = plan.Zkml_compiler.Optimizer.k;
      ncols;
    },
    ks )

let seg () =
  List.iter
    (fun name ->
      let plan, ks = seg_keys (Sched.model name) in
      Printf.printf "plan %s/kzg %s\nsegment-ks %s %s\n%!" name
        (Mono.plan_string plan) name
        (String.concat "," (List.map string_of_int ks)))
    Sched.model_names

(* ------------------------------------------------------------------ *)
(* Parent side *)

(** The current environment with [over] replacing same-named entries. *)
let env_with over =
  let keep v =
    not (List.exists (fun (k, _) -> String.starts_with ~prefix:(k ^ "=") v) over)
  in
  Array.append
    (Array.of_list (List.map (fun (k, v) -> k ^ "=" ^ v) over))
    (Array.of_list (List.filter keep (Array.to_list (Unix.environment ()))))

(** Run one cold set-up child; returns (seconds, plan lines). *)
let once ~workload ~cache =
  let exe = Sys.executable_name in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let t0 = Stats.now () in
  let pid =
    Unix.create_process_env exe
      [| exe; "setup"; "--workload"; workload |]
      (env_with [ ("ZKML_CACHE_DIR", cache); ("ZKML_JOBS", "2") ])
      Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let out = In_channel.input_all (Unix.in_channel_of_descr rd) in
  Unix.close rd;
  let _, status = Unix.waitpid [] pid in
  let dt = Stats.now () -. t0 in
  (match status with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith ("set-up child failed:\n" ^ out));
  let plans =
    String.split_on_char '\n' out
    |> List.filter_map (fun l ->
           match String.index_opt l ' ' with
           | Some i when String.sub l 0 i = "plan" -> (
               let rest = String.sub l (i + 1) (String.length l - i - 1) in
               match String.index_opt rest ' ' with
               | Some j ->
                   Some
                     ( String.sub rest 0 j,
                       String.sub rest (j + 1) (String.length rest - j - 1) )
               | None -> None)
           | _ -> None)
  in
  (dt, plans)

(** [reps] cold set-ups, each in its own fresh cache directory under
    [work]. Returns the median seconds and each repetition's plans. *)
let measure ~workload ~work ~reps =
  let runs =
    List.init reps (fun r ->
        let cache = Filename.concat work (Printf.sprintf "cache-%d" r) in
        Stats.mkdir_p cache;
        let dt, plans = once ~workload ~cache in
        Printf.printf "set-up %d: %.3f s\n%!" r dt;
        (dt, plans))
  in
  (Stats.median (List.map fst runs), List.map snd runs)

(** Print the plans the run proves with, and how many set-up
    repetitions chose a different live plan for some model. *)
let report_plans ~pinned reps_plans =
  List.iter (fun (c, p) -> Printf.printf "proving %s with %s\n" c p) pinned;
  let differs plans =
    List.exists
      (fun (c, p) ->
        match List.assoc_opt c pinned with Some q -> p <> q | None -> false)
      plans
  in
  Printf.printf
    "set-up repetitions whose live plan differs from the pinned one: %d of %d\n%!"
    (List.length (List.filter differs reps_plans))
    (List.length reps_plans)
