(** Structured tracing and metrics for the prover pipeline.

    A single global sink collects hierarchical spans (wall-clock timed,
    nested), per-span counters and global gauges. Instrumented code
    checks one ref per call and records no tree while the sink is
    disabled (a span then only times itself into {!Metrics}); when enabled,
    the recorded tree can be exported as chrome-trace JSON (loadable in
    about:tracing / Perfetto), a flat summary JSON, or a pretty-printed
    span tree. The clock is injectable so tests are wall-clock free. *)

type clock = unit -> float

type span = {
  sp_name : string;
  sp_start : float;
  mutable sp_stop : float;
  mutable sp_counters : (string * float) list;  (* insertion order *)
  mutable sp_children : span list;  (* reversed *)
}

type sink = {
  sk_clock : clock;
  sk_root : span;
  mutable sk_stack : span list;  (* innermost first; root is last *)
  sk_gauges : (string, float) Hashtbl.t;
  mutable sk_gauge_order : string list;  (* reversed insertion order *)
}

(* The sink is domain-local: the main domain owns the trace; worker
   domains see [None] unless the pool installed a capture sink for the
   duration of a parallel region (see {!Par}), so recording never races
   across domains. *)
let sink_key : sink option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let sink () = Domain.DLS.get sink_key
let enabled () = !(sink ()) <> None

let new_span name start =
  {
    sp_name = name;
    sp_start = start;
    sp_stop = nan;
    sp_counters = [];
    sp_children = [];
  }

let new_sink clock root_name =
  let root = new_span root_name (clock ()) in
  {
    sk_clock = clock;
    sk_root = root;
    sk_stack = [ root ];
    sk_gauges = Hashtbl.create 16;
    sk_gauge_order = [];
  }

(* Default to the monotonic clock: gettimeofday can step backwards
   (NTP) mid-trace, producing negative durations. Tests still inject
   dyadic fake clocks through [?clock]. *)
let enable ?(clock = Mclock.now_s) () = sink () := Some (new_sink clock "trace")

let disable () = sink () := None

(* Assoc bump preserving insertion order; counter lists are short. *)
let rec bump name v = function
  | [] -> [ (name, v) ]
  | (n, x) :: tl when String.equal n name -> (n, x +. v) :: tl
  | hd :: tl -> hd :: bump name v tl

let countf name v =
  match !(sink ()) with
  | None -> ()
  | Some s -> (
      match s.sk_stack with
      | sp :: _ -> sp.sp_counters <- bump name v sp.sp_counters
      | [] -> s.sk_root.sp_counters <- bump name v s.sk_root.sp_counters)

let count name v =
  (* check the sink before boxing the float so the disabled path stays
     allocation-free *)
  match !(sink ()) with None -> () | Some _ -> countf name (float_of_int v)

let gauge name v =
  match !(sink ()) with
  | None -> ()
  | Some s ->
      if not (Hashtbl.mem s.sk_gauges name) then
        s.sk_gauge_order <- name :: s.sk_gauge_order;
      Hashtbl.replace s.sk_gauges name v

let gauge_int name v = gauge name (float_of_int v)

(* Every closed span, traced or not, observes its one duration into
   zkml_phase_seconds{phase=<span name>}. Each domain resolves a name
   once into [tbl]; a 16-slot memo hit by physical equality lets a
   literal-named hot span (ntt, msm) skip even that hash lookup. *)
let phase_hists =
  Domain.DLS.new_key (fun () -> (Hashtbl.create 32, Array.make 16 None))

let phase_hist name =
  let tbl, memo = Domain.DLS.get phase_hists in
  let n = String.length name in
  let i = (n + if n = 0 then 0 else Char.code name.[0]) land 15 in
  match memo.(i) with
  | Some (m, h) when m == name -> h
  | _ ->
      let h =
        match Hashtbl.find_opt tbl name with
        | Some h -> h
        | None ->
            let h =
              Metrics.histogram
                ~labels:[ ("phase", name) ]
                ~help:"Wall time of each closed span, by span name"
                "zkml_phase_seconds"
            in
            Hashtbl.add tbl name h;
            h
      in
      memo.(i) <- Some (name, h);
      h

module Span = struct
  let with_ ~name f =
    let h = phase_hist name in
    match !(sink ()) with
    | None -> (
        (* no [Fun.protect] here: its closure would cost the hot spans
           (ntt, msm) more minor words than the span itself *)
        let t0 = Mclock.now_s () in
        match f () with
        | v ->
            Metrics.observe h (Mclock.elapsed_s ~since:t0);
            v
        | exception e ->
            Metrics.observe h (Mclock.elapsed_s ~since:t0);
            raise e)
    | Some s ->
        let sp = new_span name (s.sk_clock ()) in
        (match s.sk_stack with
        | parent :: _ -> parent.sp_children <- sp :: parent.sp_children
        | [] -> s.sk_root.sp_children <- sp :: s.sk_root.sp_children);
        s.sk_stack <- sp :: s.sk_stack;
        Fun.protect f ~finally:(fun () ->
            sp.sp_stop <- s.sk_clock ();
            Metrics.observe h (sp.sp_stop -. sp.sp_start);
            let rec pop = function
              | top :: rest -> if top == sp then rest else pop rest
              | [] -> [ s.sk_root ]
            in
            s.sk_stack <- pop s.sk_stack)
end

(* ------------------------------------------------------------------ *)
(* Immutable snapshots *)

type node = {
  name : string;
  start_s : float;  (* relative to trace start *)
  dur_s : float;
  counters : (string * float) list;
  children : node list;  (* in execution order *)
}

type report = {
  spans : node list;  (* top-level spans in execution order *)
  root_counters : (string * float) list;  (* counts outside any span *)
  gauges : (string * float) list;
  total_s : float;  (* trace duration at snapshot time *)
}

let snapshot () =
  match !(sink ()) with
  | None -> None
  | Some s ->
      let now = s.sk_clock () in
      let t0 = s.sk_root.sp_start in
      let rec freeze sp =
        let stop = if Float.is_nan sp.sp_stop then now else sp.sp_stop in
        {
          name = sp.sp_name;
          start_s = sp.sp_start -. t0;
          dur_s = stop -. sp.sp_start;
          counters = sp.sp_counters;
          (* sp_children is stored in reverse execution order *)
          children = List.rev_map freeze sp.sp_children;
        }
      in
      let root = freeze s.sk_root in
      let gauges =
        List.rev_map
          (fun n -> (n, Hashtbl.find s.sk_gauges n))
          s.sk_gauge_order
        |> List.rev
      in
      Some
        {
          spans = root.children;
          root_counters = root.counters;
          gauges;
          total_s = now -. t0;
        }

(** Enable a fresh sink, run [f], return its result and the recorded
    report; restores the previous sink state afterwards. *)
let with_enabled ?clock f =
  let saved = !(sink ()) in
  enable ?clock ();
  let finish () =
    let r =
      match snapshot () with
      | Some r -> r
      | None -> { spans = []; root_counters = []; gauges = []; total_s = 0.0 }
    in
    sink () := saved;
    r
  in
  match f () with
  | v -> (v, finish ())
  | exception e ->
      ignore (finish ());
      raise e

(* ------------------------------------------------------------------ *)
(* Aggregation *)

type agg = {
  agg_name : string;
  agg_calls : int;
  agg_total_s : float;
  agg_counters : (string * float) list;
}

let merge_counters into cs =
  List.fold_left (fun acc (n, v) -> bump n v acc) into cs

(** Aggregate spans by name. A span nested under a same-named ancestor
    is not counted again (its time is already inside the ancestor's).
    [?under] restricts aggregation to subtrees rooted at spans with
    that name (the subtree roots themselves are included). *)
let totals ?under report =
  let roots =
    match under with
    | None -> report.spans
    | Some u ->
        let rec collect acc n =
          if String.equal n.name u then n :: acc
          else List.fold_left collect acc n.children
        in
        List.fold_left collect [] report.spans |> List.rev
  in
  let order = ref [] in
  let tbl : (string, agg) Hashtbl.t = Hashtbl.create 16 in
  let record n =
    match Hashtbl.find_opt tbl n.name with
    | None ->
        order := n.name :: !order;
        Hashtbl.replace tbl n.name
          {
            agg_name = n.name;
            agg_calls = 1;
            agg_total_s = n.dur_s;
            agg_counters = n.counters;
          }
    | Some a ->
        Hashtbl.replace tbl n.name
          {
            a with
            agg_calls = a.agg_calls + 1;
            agg_total_s = a.agg_total_s +. n.dur_s;
            agg_counters = merge_counters a.agg_counters n.counters;
          }
  in
  let rec visit active n =
    let fresh = not (List.mem n.name active) in
    if fresh then record n;
    let active = if fresh then n.name :: active else active in
    List.iter (visit active) n.children
  in
  List.iter (visit []) roots;
  List.rev_map (fun name -> Hashtbl.find tbl name) !order

let total_of ?under report name =
  match
    List.find_opt (fun a -> String.equal a.agg_name name) (totals ?under report)
  with
  | Some a -> a.agg_total_s
  | None -> 0.0

let gauge_of report name =
  List.assoc_opt name report.gauges

let counter_total report name =
  let rec go acc n =
    let acc =
      List.fold_left
        (fun acc (cn, v) -> if String.equal cn name then acc +. v else acc)
        acc n.counters
    in
    List.fold_left go acc n.children
  in
  let base =
    List.fold_left
      (fun acc (cn, v) -> if String.equal cn name then acc +. v else acc)
      0.0 report.root_counters
  in
  List.fold_left go base report.spans

(* ------------------------------------------------------------------ *)
(* Parallel-region capture (used by Zkml_util.Pool) *)

(** Worker domains have no sink of their own, so anything they record
    would be lost. A pool bridging a parallel region calls {!Par.fork}
    on the main domain to get per-worker capture slots, wraps each
    worker body in {!Par.worker_run} (which installs a private sink in
    that worker's DLS for the duration), and calls {!Par.join} back on
    the main domain to splice every captured subtree, counter and gauge
    into the main trace in worker-index order — so the merged trace is
    deterministic regardless of scheduling. *)
module Par = struct
  type slot = { mutable captured : sink option }
  type handle = { pr_clock : clock; pr_slots : slot array }

  let fork n =
    match !(sink ()) with
    | None -> None
    | Some s ->
        Some
          {
            pr_clock = s.sk_clock;
            pr_slots = Array.init n (fun _ -> { captured = None });
          }

  let worker_run h i f =
    match h with
    | None -> f ()
    | Some { pr_clock; pr_slots } ->
        let s = new_sink pr_clock "worker" in
        sink () := Some s;
        Fun.protect f ~finally:(fun () ->
            s.sk_root.sp_stop <- pr_clock ();
            sink () := None;
            pr_slots.(i).captured <- Some s)

  let join h =
    match h with
    | None -> ()
    | Some { pr_slots; _ } -> (
        match !(sink ()) with
        | None -> ()
        | Some main ->
            let target =
              match main.sk_stack with sp :: _ -> sp | [] -> main.sk_root
            in
            Array.iter
              (fun slot ->
                match slot.captured with
                | None -> ()
                | Some ws ->
                    (* both lists are newest-first, so prepending keeps
                       worker subtrees after existing children and in
                       worker order once reversed for snapshots *)
                    target.sp_children <-
                      ws.sk_root.sp_children @ target.sp_children;
                    target.sp_counters <-
                      merge_counters target.sp_counters
                        ws.sk_root.sp_counters;
                    List.iter
                      (fun n -> gauge n (Hashtbl.find ws.sk_gauges n))
                      (List.rev ws.sk_gauge_order))
              pr_slots)
end

let json_escape = Metrics.json_escape
let json_float = Metrics.json_float

let json_obj_of_counters cs =
  "{"
  ^ String.concat ","
      (List.map
         (fun (n, v) ->
           Printf.sprintf "\"%s\":%s" (json_escape n) (json_float v))
         cs)
  ^ "}"

(* ------------------------------------------------------------------ *)
(* Exporters *)

(** Chrome-trace format: a JSON array of complete ("ph":"X") events with
    microsecond timestamps, loadable in about:tracing or Perfetto. *)
let chrome_trace report =
  let buf = Buffer.create 4096 in
  Buffer.add_char buf '[';
  let first = ref true in
  let rec walk n =
    if !first then first := false else Buffer.add_char buf ',';
    Buffer.add_string buf
      (Printf.sprintf "{\"name\":\"%s\",\"cat\":\"zkml\",\"ph\":\"X\",\"ts\":%s,\"dur\":%s,\"pid\":1,\"tid\":1"
         (json_escape n.name)
         (Printf.sprintf "%.0f" (n.start_s *. 1e6))
         (Printf.sprintf "%.0f" (n.dur_s *. 1e6)));
    if n.counters <> [] then begin
      Buffer.add_string buf ",\"args\":";
      Buffer.add_string buf (json_obj_of_counters n.counters)
    end;
    Buffer.add_char buf '}';
    List.iter walk n.children
  in
  List.iter walk report.spans;
  Buffer.add_char buf ']';
  Buffer.contents buf

(** Flat summary: gauges, whole-trace counters, per-name aggregated
    totals and the full span tree, as one JSON object. *)
let summary_json report =
  let buf = Buffer.create 4096 in
  let rec span_json n =
    Printf.sprintf
      "{\"name\":\"%s\",\"start_s\":%s,\"dur_s\":%s,\"counters\":%s,\"children\":[%s]}"
      (json_escape n.name) (json_float n.start_s) (json_float n.dur_s)
      (json_obj_of_counters n.counters)
      (String.concat "," (List.map span_json n.children))
  in
  Buffer.add_string buf "{\"total_s\":";
  Buffer.add_string buf (json_float report.total_s);
  Buffer.add_string buf ",\"gauges\":";
  Buffer.add_string buf (json_obj_of_counters report.gauges);
  Buffer.add_string buf ",\"totals\":[";
  Buffer.add_string buf
    (String.concat ","
       (List.map
          (fun a ->
            Printf.sprintf
              "{\"name\":\"%s\",\"calls\":%d,\"total_s\":%s,\"counters\":%s}"
              (json_escape a.agg_name) a.agg_calls
              (json_float a.agg_total_s)
              (json_obj_of_counters a.agg_counters))
          (totals report)));
  Buffer.add_string buf "],\"spans\":[";
  Buffer.add_string buf (String.concat "," (List.map span_json report.spans));
  Buffer.add_string buf "]}";
  Buffer.contents buf

(* Pretty tree: same-named siblings are collapsed into one line (xN)
   so hundreds of leaf NTT/MSM spans stay readable. *)
let tree_string report =
  let buf = Buffer.create 1024 in
  let group children =
    let order = ref [] and tbl = Hashtbl.create 8 in
    List.iter
      (fun n ->
        match Hashtbl.find_opt tbl n.name with
        | None ->
            order := n.name :: !order;
            Hashtbl.replace tbl n.name (ref [ n ])
        | Some l -> l := n :: !l)
      children;
    List.rev_map
      (fun name ->
        let members = List.rev !(Hashtbl.find tbl name) in
        let dur =
          List.fold_left (fun acc n -> acc +. n.dur_s) 0.0 members
        in
        let counters =
          List.fold_left (fun acc n -> merge_counters acc n.counters) [] members
        in
        let kids = List.concat_map (fun n -> n.children) members in
        (name, List.length members, dur, counters, kids))
      !order
  in
  let counters_str cs =
    if cs = [] then ""
    else
      "  ["
      ^ String.concat ", "
          (List.map (fun (n, v) -> Printf.sprintf "%s=%s" n (json_float v)) cs)
      ^ "]"
  in
  let rec render prefix parent_dur children =
    let groups = group children in
    let last = List.length groups - 1 in
    List.iteri
      (fun i (name, calls, dur, counters, kids) ->
        let branch, cont =
          if i = last then ("`- ", "   ") else ("|- ", "|  ")
        in
        let label =
          if calls > 1 then Printf.sprintf "%s x%d" name calls else name
        in
        let pct =
          if parent_dur > 0.0 then
            Printf.sprintf "%5.1f%%" (100.0 *. dur /. parent_dur)
          else "     -"
        in
        Buffer.add_string buf
          (Printf.sprintf "%s%s%-*s %10.4f s  %s%s\n" prefix branch
             (max 1 (36 - String.length prefix))
             label dur pct (counters_str counters));
        if kids <> [] then render (prefix ^ cont) dur kids)
      groups
  in
  Buffer.add_string buf
    (Printf.sprintf "trace%33s %10.4f s  100.0%%%s\n" "" report.total_s
       (counters_str report.root_counters));
  render "" report.total_s report.spans;
  if report.gauges <> [] then begin
    Buffer.add_string buf "gauges:\n";
    List.iter
      (fun (n, v) ->
        Buffer.add_string buf (Printf.sprintf "  %-24s %s\n" n (json_float v)))
      report.gauges
  end;
  Buffer.contents buf

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc
