(** The benchmark: [zkbench.exe --workload W --seed N --seconds S
    --trace 0|1 --work DIR --zkml PATH] runs one workload and prints, as
    its last line, the JSON result (end-to-end metrics with [--trace 0],
    per-layer metrics with [--trace 1]). [zkbench.exe setup --workload
    W] is the cold set-up child the run measures. See README.md. *)

let workloads = [ "prove-inproc"; "prove-seg4"; "serve-mixed" ]

let usage () =
  prerr_endline
    "usage: zkbench.exe --workload W --seed N --seconds S --trace 0|1 --work \
     DIR --zkml PATH\n\
    \       zkbench.exe setup --workload W";
  exit 2

let rec flags acc = function
  | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      flags ((String.sub k 2 (String.length k - 2), v) :: acc) rest
  | [] -> acc
  | _ -> usage ()

let () =
  Zkml_util.Pool.set_jobs 2;
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [ "calibrate" ] ->
      let show name (t : Zkml_compiler.Costmodel.op_times) =
        let curve l =
          String.concat "; " (List.map (fun (k, v) -> Printf.sprintf "(%d, %.4e)" k v) l)
        in
        Printf.printf
          "let %s =\n  {\n    fft = [ %s ];\n    msm = [ %s ];\n    lookup = [ %s ];\n    field_op = %.4e;\n  }\n\n"
          name (curve t.fft) (curve t.msm) (curve t.lookup) t.field_op
      in
      show "kzg" (Mono.Kzg.calibration_median 15);
      show "ipa" (Mono.Ipa.calibration_median 15)
  | "setup" :: rest -> (
      match List.assoc_opt "workload" (flags [] rest) with
      | Some "prove-inproc" -> Setup.inproc ()
      | Some "prove-seg4" -> Setup.seg ()
      | _ -> usage ())
  | _ ->
      let f = flags [] args in
      let get k = match List.assoc_opt k f with Some v -> v | None -> usage () in
      let num k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
      let workload = get "workload" in
      if not (List.mem workload workloads) then usage ();
      let seed = num "seed" and seconds = float_of_int (num "seconds") in
      let trace = num "trace" = 1 in
      let work = get "work" in
      Stats.mkdir_p work;
      let setup_ok, attempted, failed, metrics =
        match workload with
        | "prove-inproc" -> Inproc.run ~seed ~seconds ~trace ~work
        | "prove-seg4" -> Seg.run ~seed ~seconds ~trace ~work
        | _ -> Serve.run ~zkml:(get "zkml") ~seed ~seconds ~trace ~work
      in
      Stats.print_metrics metrics;
      let r =
        {
          Stats.correct = setup_ok && failed = 0 && attempted > 0;
          attempted;
          failed = min failed attempted;
          metrics;
        }
      in
      print_endline (Stats.result_json r);
      exit 0
