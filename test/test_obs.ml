(* Tests for the tracing/metrics subsystem. All traces use an injected
   fake clock (exact binary fractions) so structure, durations and the
   serialized chrome-trace output are deterministic down to the byte. *)

module Obs = Zkml_obs.Obs

(* Fake clock: [tick] advances simulated time by an exact dyadic step. *)
let make_clock () =
  let now = ref 0.0 in
  ((fun () -> !now), fun dt -> now := !now +. dt)

(* The reference trace used by several tests:
     prove [0.5 .. 1.25]
       ntt [0.75 .. 0.875]  ntt.size=512
       ntt [0.875 .. 0.9375]  ntt.size=256
       msm [0.9375 .. 1.1875]  msm.points=100
   plus gauge k=9; snapshot taken at t=1.25. *)
let record_reference () =
  let clock, tick = make_clock () in
  let (), report =
    Obs.with_enabled ~clock (fun () ->
        tick 0.5;
        Obs.Span.with_ ~name:"prove" (fun () ->
            tick 0.25;
            Obs.Span.with_ ~name:"ntt" (fun () ->
                Obs.count "ntt.size" 512;
                tick 0.125);
            Obs.Span.with_ ~name:"ntt" (fun () ->
                Obs.count "ntt.size" 256;
                tick 0.0625);
            Obs.Span.with_ ~name:"msm" (fun () ->
                Obs.count "msm.points" 100;
                tick 0.25);
            tick 0.0625);
        Obs.gauge_int "k" 9)
  in
  report

let test_nesting () =
  let report = record_reference () in
  Alcotest.(check (list string))
    "top-level spans" [ "prove" ]
    (List.map (fun n -> n.Obs.name) report.Obs.spans);
  let prove = List.hd report.Obs.spans in
  Alcotest.(check (list string))
    "children in execution order" [ "ntt"; "ntt"; "msm" ]
    (List.map (fun n -> n.Obs.name) prove.Obs.children);
  Alcotest.(check (float 0.0)) "prove start" 0.5 prove.Obs.start_s;
  Alcotest.(check (float 0.0)) "prove dur" 0.75 prove.Obs.dur_s;
  let starts = List.map (fun n -> n.Obs.start_s) prove.Obs.children in
  Alcotest.(check (list (float 0.0))) "child starts" [ 0.75; 0.875; 0.9375 ]
    starts;
  let durs = List.map (fun n -> n.Obs.dur_s) prove.Obs.children in
  Alcotest.(check (list (float 0.0))) "child durs" [ 0.125; 0.0625; 0.25 ] durs;
  Alcotest.(check (float 0.0)) "total" 1.25 report.Obs.total_s;
  Alcotest.(check (list (pair string (float 0.0))))
    "gauges" [ ("k", 9.0) ] report.Obs.gauges

let test_counters () =
  let report = record_reference () in
  Alcotest.(check (float 0.0))
    "ntt.size sums across spans" 768.0
    (Obs.counter_total report "ntt.size");
  Alcotest.(check (float 0.0))
    "msm.points" 100.0
    (Obs.counter_total report "msm.points");
  Alcotest.(check (float 0.0))
    "absent counter" 0.0
    (Obs.counter_total report "nope");
  let ntt =
    List.find (fun a -> a.Obs.agg_name = "ntt") (Obs.totals report)
  in
  Alcotest.(check int) "ntt calls" 2 ntt.Obs.agg_calls;
  Alcotest.(check (float 0.0)) "ntt aggregated time" 0.1875 ntt.Obs.agg_total_s;
  Alcotest.(check (list (pair string (float 0.0))))
    "ntt merged counters" [ ("ntt.size", 768.0) ] ntt.Obs.agg_counters;
  Alcotest.(check (float 0.0))
    "total_of under prove" 0.1875
    (Obs.total_of ~under:"prove" report "ntt");
  Alcotest.(check (float 0.0))
    "total_of absent subtree" 0.0
    (Obs.total_of ~under:"verify" report "ntt")

(* A span nested under a same-named ancestor must not be double counted
   in the per-name aggregation. *)
let test_same_name_suppression () =
  let clock, tick = make_clock () in
  let (), report =
    Obs.with_enabled ~clock (fun () ->
        Obs.Span.with_ ~name:"ntt" (fun () ->
            tick 0.25;
            Obs.Span.with_ ~name:"ntt" (fun () -> tick 0.5);
            tick 0.25))
  in
  let ntt =
    List.find (fun a -> a.Obs.agg_name = "ntt") (Obs.totals report)
  in
  Alcotest.(check int) "only the outer span counted" 1 ntt.Obs.agg_calls;
  Alcotest.(check (float 0.0)) "outer time only" 1.0 ntt.Obs.agg_total_s

let test_disabled_noop () =
  Obs.disable ();
  Alcotest.(check bool) "disabled" false (Obs.enabled ());
  (* every entry point must be a silent no-op and pass values through *)
  Alcotest.(check int) "span passthrough" 41
    (Obs.Span.with_ ~name:"x" (fun () -> 41));
  Obs.count "c" 1;
  Obs.countf "c" 1.0;
  Obs.gauge "g" 2.0;
  Obs.gauge_int "g" 2;
  Alcotest.(check bool) "no snapshot" true (Obs.snapshot () = None);
  (* exceptions propagate unchanged *)
  Alcotest.check_raises "raise passthrough" Exit (fun () ->
      Obs.Span.with_ ~name:"x" (fun () -> raise Exit));
  (* with_enabled restores the previous (disabled) state *)
  let v, report = Obs.with_enabled (fun () -> 7) in
  Alcotest.(check int) "with_enabled result" 7 v;
  Alcotest.(check bool) "report produced" true (report.Obs.total_s >= 0.0);
  Alcotest.(check bool) "sink restored" false (Obs.enabled ())

let test_span_exception_closes () =
  let clock, tick = make_clock () in
  let (), report =
    Obs.with_enabled ~clock (fun () ->
        (try
           Obs.Span.with_ ~name:"boom" (fun () ->
               tick 0.5;
               raise Exit)
         with Exit -> ());
        Obs.Span.with_ ~name:"after" (fun () -> tick 0.25))
  in
  Alcotest.(check (list string))
    "failed span closed, sibling at top level" [ "boom"; "after" ]
    (List.map (fun n -> n.Obs.name) report.Obs.spans);
  let boom = List.hd report.Obs.spans in
  Alcotest.(check (float 0.0)) "boom duration recorded" 0.5 boom.Obs.dur_s

let test_chrome_trace_bytes () =
  let report = record_reference () in
  let expected =
    String.concat ""
      [
        "[";
        "{\"name\":\"prove\",\"cat\":\"zkml\",\"ph\":\"X\",";
        "\"ts\":500000,\"dur\":750000,\"pid\":1,\"tid\":1},";
        "{\"name\":\"ntt\",\"cat\":\"zkml\",\"ph\":\"X\",";
        "\"ts\":750000,\"dur\":125000,\"pid\":1,\"tid\":1,";
        "\"args\":{\"ntt.size\":512}},";
        "{\"name\":\"ntt\",\"cat\":\"zkml\",\"ph\":\"X\",";
        "\"ts\":875000,\"dur\":62500,\"pid\":1,\"tid\":1,";
        "\"args\":{\"ntt.size\":256}},";
        "{\"name\":\"msm\",\"cat\":\"zkml\",\"ph\":\"X\",";
        "\"ts\":937500,\"dur\":250000,\"pid\":1,\"tid\":1,";
        "\"args\":{\"msm.points\":100}}";
        "]";
      ]
  in
  Alcotest.(check string) "byte-exact trace" expected (Obs.chrome_trace report)

let test_summary_json_shape () =
  let report = record_reference () in
  let s = Obs.summary_json report in
  List.iter
    (fun needle ->
      let contains =
        let nl = String.length needle and sl = String.length s in
        let rec go i = i + nl <= sl && (String.sub s i nl = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) (Printf.sprintf "contains %s" needle) true contains)
    [
      "\"total_s\":1.25";
      "\"gauges\":{\"k\":9}";
      "\"name\":\"ntt\",\"calls\":2";
      "\"children\":[]";
    ]

(* ------------------------------------------------------------------ *)
(* Metrics registry (always-on, domain-safe) *)

module Metrics = Zkml_obs.Metrics
module Log = Zkml_obs.Log
module Pool = Zkml_util.Pool

let get_hist snap name =
  match Metrics.find_series snap name with
  | Some (Metrics.Hist_v h) -> h
  | _ -> Alcotest.failf "histogram %s missing from snapshot" name

let test_metrics_basics () =
  Metrics.reset ();
  (* the registry records regardless of the trace sink *)
  Alcotest.(check bool) "trace sink disabled" false (Obs.enabled ());
  let c = Metrics.counter ~labels:[ ("a", "1") ] ~help:"h" "t_counter" in
  Metrics.add c 2.0;
  Metrics.inc ~labels:[ ("a", "1") ] "t_counter" 3.0;
  let g = Metrics.gauge "t_gauge" in
  Metrics.set g 7.0;
  Metrics.set g 5.0;
  let snap = Metrics.snapshot () in
  Alcotest.(check (float 0.0))
    "counter accumulates through handle and one-shot" 5.0
    (Metrics.counter_value ~labels:[ ("a", "1") ] snap "t_counter");
  Alcotest.(check (float 0.0))
    "gauge is last-write-wins" 5.0
    (Metrics.counter_value snap "t_gauge");
  Alcotest.(check (float 0.0))
    "absent series reads 0" 0.0
    (Metrics.counter_value snap "t_no_such");
  (match Metrics.add c (-1.0) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "negative counter add accepted");
  Metrics.reset ();
  Alcotest.(check (float 0.0))
    "reset zeroes in place" 0.0
    (Metrics.counter_value ~labels:[ ("a", "1") ] (Metrics.snapshot ())
       "t_counter")

let test_hist_boundaries () =
  (* spot values: 1.0 is the lower edge of [1, 1.125);
     0.75 = 1.5 * 2^-1 sits in [0.75, 0.8125). *)
  let upper_of v = Metrics.bucket_upper (Option.get (Metrics.bucket_index v)) in
  Alcotest.(check (float 0.0)) "upper(1.0)" 1.125 (upper_of 1.0);
  Alcotest.(check (float 0.0)) "upper(0.75)" 0.8125 (upper_of 0.75);
  (* out-of-domain values have no bucket *)
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Printf.sprintf "no bucket for %g" v)
        true
        (Metrics.bucket_index v = None))
    [ 0.0; -3.0; Float.nan; Float.infinity; 1e-10 ];
  (* huge values clamp into one shared top bucket *)
  Alcotest.(check bool)
    "top-edge clamp" true
    (Metrics.bucket_index 1e12 = Metrics.bucket_index 1e15);
  (* buckets tile [lower, upper): every value sits strictly below its
     bucket's upper bound and at/above the previous bucket's bound *)
  List.iter
    (fun v ->
      let i = Option.get (Metrics.bucket_index v) in
      Alcotest.(check bool)
        (Printf.sprintf "%g < upper" v)
        true
        (v < Metrics.bucket_upper i);
      if i > 0 then
        Alcotest.(check bool)
          (Printf.sprintf "%g >= previous upper" v)
          true
          (v >= Metrics.bucket_upper (i - 1)))
    [ 1e-9; 0.001; 0.5; 0.9999; 1.0; 1.1249; 1.125; 3.14159; 42.0; 1e6 ]

let test_pool_merge () =
  let n = 1000 in
  let vals = Array.init n (fun i -> 0.001 *. float_of_int (i + 1)) in
  let h = Metrics.histogram "t_par_hist" in
  let c = Metrics.counter "t_par_counter" in
  (* sequential reference *)
  Metrics.reset ();
  Array.iter (Metrics.observe h) vals;
  let r = get_hist (Metrics.snapshot ()) "t_par_hist" in
  let ref_q =
    List.map (fun q -> Metrics.quantile r q) [ 0.5; 0.9; 0.99 ]
  in
  (* same observations from a 4-domain pool *)
  Metrics.reset ();
  let saved = Pool.jobs () in
  Pool.set_jobs 4;
  Fun.protect ~finally:(fun () -> Pool.set_jobs saved) @@ fun () ->
  Pool.parallel_for ~chunk:16 ~seq_below:1 n (fun i ->
      Metrics.add c 1.0;
      Metrics.observe h vals.(i));
  let snap = Metrics.snapshot () in
  Alcotest.(check (float 0.0))
    "counter sums exactly across domains" (float_of_int n)
    (Metrics.counter_value snap "t_par_counter");
  let p = get_hist snap "t_par_hist" in
  Alcotest.(check int) "histogram count exact" n p.Metrics.h_count;
  Alcotest.(check (float 1e-9)) "sum matches" r.Metrics.h_sum p.Metrics.h_sum;
  (* bucket assignment depends only on the value, so the cumulative
     bucket lists — and hence the quantiles — are identical regardless
     of interleaving *)
  Alcotest.(check bool)
    "bucket lists identical" true
    (r.Metrics.h_buckets = p.Metrics.h_buckets);
  List.iter2
    (fun q want ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "p%.0f deterministic" (q *. 100.))
        want (Metrics.quantile p q))
    [ 0.5; 0.9; 0.99 ] ref_q

(* Line-level check of the Prometheus text format: every line is a
   comment ("# HELP "/"# TYPE ") or a sample "name[{labels}] value";
   histogram le= bounds ascend and the +Inf bucket equals _count. *)
let test_prometheus_format () =
  Metrics.reset ();
  Metrics.inc ~labels:[ ("op", "x") ] ~help:"c" "t_prom_counter" 2.0;
  let h = Metrics.histogram ~labels:[ ("op", "x") ] ~help:"h" "t_prom_hist" in
  List.iter (Metrics.observe h) [ 0.1; 0.5; 0.5; 2.0 ];
  let s = Metrics.prometheus_string (Metrics.snapshot ()) in
  let name_ok name =
    name <> ""
    && String.for_all
         (fun ch ->
           (ch >= 'a' && ch <= 'z')
           || (ch >= 'A' && ch <= 'Z')
           || (ch >= '0' && ch <= '9')
           || ch = '_' || ch = ':')
         name
  in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' s)
  in
  Alcotest.(check bool) "non-empty exposition" true (lines <> []);
  List.iter
    (fun line ->
      if String.length line > 0 && line.[0] = '#' then
        Alcotest.(check bool)
          ("comment line: " ^ line)
          true
          (String.starts_with ~prefix:"# HELP " line
          || String.starts_with ~prefix:"# TYPE " line)
      else begin
        let sp = String.rindex line ' ' in
        let value = String.sub line (sp + 1) (String.length line - sp - 1) in
        (match float_of_string_opt value with
        | Some _ -> ()
        | None -> Alcotest.failf "unparseable sample value in %S" line);
        let series = String.sub line 0 sp in
        let name =
          match String.index_opt series '{' with
          | None -> series
          | Some lb ->
              Alcotest.(check bool)
                ("labels close: " ^ line)
                true
                (series.[String.length series - 1] = '}');
              String.sub series 0 lb
        in
        Alcotest.(check bool) ("metric name: " ^ name) true (name_ok name)
      end)
    lines;
  (* histogram invariants on the series we just wrote; [le] is appended
     after the series labels, so locate it by substring *)
  let le_of line =
    let n = String.length line in
    let rec find i =
      if i + 4 > n then Alcotest.failf "no le= label in %S" line
      else if String.sub line i 4 = "le=\"" then i + 4
      else find (i + 1)
    in
    let i = find 0 in
    let j = String.index_from line i '"' in
    String.sub line i (j - i)
  in
  let bucket_lines =
    List.filter (String.starts_with ~prefix:"t_prom_hist_bucket{") lines
  in
  Alcotest.(check bool) "has buckets" true (List.length bucket_lines >= 2);
  let les = List.map le_of bucket_lines in
  Alcotest.(check string) "last bucket is +Inf" "+Inf"
    (List.nth les (List.length les - 1));
  let finite = List.filter (fun l -> l <> "+Inf") les in
  let floats = List.map float_of_string finite in
  Alcotest.(check bool)
    "le bounds ascend" true
    (List.sort compare floats = floats);
  let value_of l =
    let sp = String.rindex l ' ' in
    float_of_string (String.sub l (sp + 1) (String.length l - sp - 1))
  in
  let count_line =
    match
      List.find_opt (String.starts_with ~prefix:"t_prom_hist_count") lines
    with
    | Some l -> l
    | None -> Alcotest.fail "missing t_prom_hist_count line"
  in
  let inf_line =
    match List.find_opt (fun l -> le_of l = "+Inf") bucket_lines with
    | Some l -> l
    | None -> Alcotest.fail "missing +Inf bucket line"
  in
  Alcotest.(check (float 0.0))
    "+Inf bucket equals _count" (value_of count_line) (value_of inf_line)

let test_log_sink () =
  let got = ref [] in
  Log.set_sink (Some (fun line -> got := line :: !got));
  Log.set_level Log.Debug;
  Fun.protect ~finally:(fun () ->
      Log.set_sink None;
      Log.set_level Log.Info)
  @@ fun () ->
  Log.event ~level:Log.Debug "t.event"
    [ ("s", Log.S "x\"y\n"); ("i", Log.I 3); ("f", Log.F 1.5);
      ("b", Log.B true) ];
  Log.event "t.plain" [];
  let lines = List.rev !got in
  Alcotest.(check int) "two lines" 2 (List.length lines);
  let module J = Zkml_util.Json in
  let parse l =
    match J.of_string l with
    | Ok d -> d
    | Error e -> Alcotest.failf "log line not JSON (%s): %S" (Zkml_util.Err.to_string e) l
  in
  let d = parse (List.hd lines) in
  Alcotest.(check (option string)) "event" (Some "t.event") (J.mem_string "event" d);
  Alcotest.(check (option string)) "level" (Some "debug") (J.mem_string "level" d);
  Alcotest.(check (option string)) "escaped string field" (Some "x\"y\n")
    (J.mem_string "s" d);
  Alcotest.(check (option (float 0.0))) "int field" (Some 3.0) (J.mem_float "i" d);
  Alcotest.(check (option (float 0.0))) "float field" (Some 1.5) (J.mem_float "f" d);
  Alcotest.(check bool) "ts present" true (J.mem_float "ts" (parse (List.nth lines 1)) <> None)

(* One instrument: a closed span is the only input to
   zkml_phase_seconds, so a traced mnist prove + verify must agree with
   the histograms exactly — one observation per span node (nested and
   pool-spliced ones included) and the same summed duration — under
   both backends and at 1 and 4 pool domains. Untraced, the same run
   still fills the hot phases. *)
let test_spans_feed_phase_histograms () =
  let module B = Zkml_serve.Backends in
  let module Zoo = Zkml_models.Zoo in
  let m = Zoo.mnist () in
  let inputs = Zoo.sample_inputs m in
  let phase snap name =
    match
      Metrics.find_series ~labels:[ ("phase", name) ] snap "zkml_phase_seconds"
    with
    | Some (Metrics.Hist_v h) -> h
    | _ -> Alcotest.failf "no zkml_phase_seconds{phase=%s}" name
  in
  let saved = Pool.jobs () in
  Fun.protect ~finally:(fun () -> Pool.set_jobs saved) @@ fun () ->
  List.iter
    (fun backend ->
      let (module X : B.S) = B.select backend in
      let params = Lazy.force X.params in
      let run () =
        let r = X.Pipe.run ~cfg:m.Zoo.cfg ~params m.Zoo.graph inputs in
        Alcotest.(check bool) "verified" true r.X.Pipe.verified
      in
      Metrics.reset ();
      run ();
      let snap = Metrics.snapshot () in
      List.iter
        (fun name ->
          Alcotest.(check bool)
            (Printf.sprintf "untraced %s observed" name)
            true
            ((phase snap name).Metrics.h_count > 0))
        [ "prove"; "ntt"; "msm"; "open" ];
      List.iter
        (fun jobs ->
          Pool.set_jobs jobs;
          Metrics.reset ();
          let (), report = Obs.with_enabled run in
          let nodes : (string, int * float) Hashtbl.t = Hashtbl.create 64 in
          let rec visit (n : Obs.node) =
            let c, d =
              Option.value ~default:(0, 0.0) (Hashtbl.find_opt nodes n.Obs.name)
            in
            Hashtbl.replace nodes n.Obs.name (c + 1, d +. n.Obs.dur_s);
            List.iter visit n.Obs.children
          in
          List.iter visit report.Obs.spans;
          let snap = Metrics.snapshot () in
          let tag name =
            Printf.sprintf "%s jobs=%d %s" (B.backend_name backend) jobs name
          in
          List.iter
            (fun name ->
              Alcotest.(check bool) (tag name ^ " traced") true
                (Hashtbl.mem nodes name))
            [ "prove"; "ntt"; "msm"; "open" ];
          Hashtbl.iter
            (fun name (count, dur) ->
              let h = phase snap name in
              Alcotest.(check int) (tag name ^ " count") count
                h.Metrics.h_count;
              Alcotest.(check (float (1e-9 *. Float.max 1.0 dur)))
                (tag name ^ " seconds") dur h.Metrics.h_sum)
            nodes;
          (* and no phase was timed outside the trace *)
          List.iter
            (fun (f : Metrics.family_snap) ->
              if f.Metrics.f_name = "zkml_phase_seconds" then
                List.iter
                  (fun (srs : Metrics.series_snap) ->
                    match (srs.Metrics.s_value, srs.Metrics.s_labels) with
                    | Metrics.Hist_v h, [ ("phase", name) ]
                      when h.Metrics.h_count > 0 ->
                        Alcotest.(check bool) (tag name ^ " traced") true
                          (Hashtbl.mem nodes name)
                    | _ -> ())
                  f.Metrics.f_series)
            snap)
        [ 1; 4 ])
    [ B.Kzg; B.Ipa ]

let () =
  Alcotest.run "obs"
    [
      ( "spans",
        [
          Alcotest.test_case "nesting order and timing" `Quick test_nesting;
          Alcotest.test_case "exception closes span" `Quick
            test_span_exception_closes;
        ] );
      ( "counters",
        [
          Alcotest.test_case "accumulation" `Quick test_counters;
          Alcotest.test_case "same-name suppression" `Quick
            test_same_name_suppression;
        ] );
      ( "disabled",
        [ Alcotest.test_case "no-op passthrough" `Quick test_disabled_noop ] );
      ( "export",
        [
          Alcotest.test_case "chrome trace bytes" `Quick
            test_chrome_trace_bytes;
          Alcotest.test_case "summary json shape" `Quick
            test_summary_json_shape;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters, gauges, reset" `Quick
            test_metrics_basics;
          Alcotest.test_case "histogram bucket boundaries" `Quick
            test_hist_boundaries;
          Alcotest.test_case "4-domain pool merge determinism" `Quick
            test_pool_merge;
          Alcotest.test_case "prometheus text format" `Quick
            test_prometheus_format;
          Alcotest.test_case "spans feed phase histograms" `Quick
            test_spans_feed_phase_histograms;
        ] );
      ( "log",
        [ Alcotest.test_case "sink override and JSON lines" `Quick test_log_sink ] );
    ]
