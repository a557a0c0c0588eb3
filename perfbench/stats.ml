(** Statistics, process figures and the result line shared by the
    workloads. *)

let now = Zkml_obs.Mclock.now_s

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(** Percentile by linear interpolation between closest ranks (the
    numpy default); [nan] on an empty list. *)
let percentile q xs =
  match xs with
  | [] -> nan
  | _ ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let lo = int_of_float pos in
      let hi = min (n - 1) (lo + 1) in
      a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = percentile 0.5 xs

(** Run [f] [n] times; the first result and the median seconds. *)
let repeat n f =
  let runs = List.init n (fun _ -> time f) in
  (fst (List.hd runs), median (List.map snd runs))
let sum xs = List.fold_left ( +. ) 0.0 xs

(** Ratio that reads 0 instead of nan when nothing was measured. *)
let ratio a b = if b > 0.0 then a /. b else 0.0

type metric = { m_name : string; m_value : float; m_unit : string }

let metric m_name m_unit m_value = { m_name; m_value; m_unit }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

(** The result as the one JSON line the harness reads last. *)
let result_json r =
  let esc = Zkml_obs.Obs.json_escape in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}"
              (esc m.m_name) (json_num m.m_value) (esc m.m_unit))
          r.metrics))

let print_metrics ms =
  List.iter
    (fun m -> Printf.printf "  %-34s %18.6f %s\n" m.m_name m.m_value m.m_unit)
    ms

(* ------------------------------------------------------------------ *)
(* Process figures *)

let read_proc pid file =
  match
    In_channel.with_open_text
      (Printf.sprintf "/proc/%s/%s" pid file)
      In_channel.input_all
  with
  | text -> Some text
  | exception Sys_error _ -> None

(** Peak resident set ([VmHWM]) of a process in MiB; [nan] if the
    process is gone. *)
let peak_rss_mb pid =
  Option.bind (read_proc pid "status") (fun text ->
      String.split_on_char '\n' text
      |> List.find_map (fun line ->
             match String.index_opt line ':' with
             | Some i when String.sub line 0 i = "VmHWM" ->
                 Scanf.sscanf_opt
                   (String.sub line (i + 1) (String.length line - i - 1))
                   " %d kB" Fun.id
             | _ -> None))
  |> Option.fold ~none:nan ~some:(fun kb -> float_of_int kb /. 1024.0)

(** User + system CPU seconds of a process and all its threads, from
    /proc/<pid>/stat (utime and stime, in 100 Hz ticks). *)
let cpu_s pid =
  let fields =
    Option.bind (read_proc pid "stat") (fun text ->
        (* the command name is parenthesised and may hold spaces; state
           is the first field after it, utime and stime the 12th/13th *)
        Option.map
          (fun i ->
            String.split_on_char ' '
              (String.trim
                 (String.sub text (i + 1) (String.length text - i - 1))))
          (String.rindex_opt text ')'))
  in
  match fields with
  | Some f -> (
      match
        ( Option.bind (List.nth_opt f 11) float_of_string_opt,
          Option.bind (List.nth_opt f 12) float_of_string_opt )
      with
      | Some u, Some s -> (u +. s) /. 100.0
      | _ -> nan)
  | None -> nan

(** Allocated megabytes and major collections so far, as
    [Gc.quick_stat] reports them. *)
let gc_counts () =
  let s = Gc.quick_stat () in
  let words = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words in
  (words *. float_of_int (Sys.word_size / 8) /. 1048576.0,
   s.Gc.major_collections)

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end
