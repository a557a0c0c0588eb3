(* Process-wide metrics registry (see metrics.mli).

   One global mutex guards both the name->family->series maps and every
   value update. OCaml 5 domains share the heap, so worker domains
   update the same cells the main domain reads — the mutex (never held
   across user code) makes read-modify-write increments exact; there is
   no per-domain buffering and thus no merge step. Updates are a few
   dozen ns; the instrumented sites (one per NTT/MSM call, per column
   commit, per verdict) are far coarser than that. *)

type labels = (string * string) list

(* ------------------------------------------------------------------ *)
(* Histogram geometry: log-linear. Each power-of-two octave [2^o,
   2^(o+1)) is split into [sub_buckets] equal-width buckets; octaves
   span 2^min_exp .. 2^max_exp (~1ns .. ~34yr for seconds). Bucket
   boundaries are dyadic rationals, so [frexp]-based assignment is
   exact: a value equal to a boundary lands in the bucket whose lower
   bound it is (buckets are [lower, upper)). Assignment depends only on
   the value, never on insertion order — quantiles are deterministic
   under any domain interleaving. *)

let sub_buckets = 8
let min_exp = -30
let max_exp = 30
let n_buckets = (max_exp - min_exp) * sub_buckets

let bucket_index v =
  if not (Float.is_finite v) || v <= 0.0 then None
  else
    let m, e = Float.frexp v in
    (* v = m * 2^e with m in [0.5, 1), so v in [2^(e-1), 2^e) *)
    let o = e - 1 in
    if o < min_exp then None
    else if o >= max_exp then Some (n_buckets - 1)
    else
      let s = int_of_float ((m *. 2.0 -. 1.0) *. float_of_int sub_buckets) in
      let s = if s >= sub_buckets then sub_buckets - 1 else s in
      Some (((o - min_exp) * sub_buckets) + s)

let bucket_upper i =
  let o = min_exp + (i / sub_buckets) and s = i mod sub_buckets in
  Float.ldexp (1.0 +. (float_of_int (s + 1) /. float_of_int sub_buckets)) o

(* ------------------------------------------------------------------ *)
(* Registry *)

type hist = {
  mutable hc_count : int;
  mutable hc_sum : float;
  mutable hc_under : int;  (* v <= 0 or below 2^min_exp *)
  hc_buckets : int array;
}

type cell = Counter_c of float ref | Gauge_c of float ref | Hist_c of hist

type kind = Counter_k | Gauge_k | Histogram_k

type family = {
  fam_kind : kind;
  mutable fam_help : string;
  fam_series : (labels, cell) Hashtbl.t;
}

type handle = cell

let mu = Mutex.create ()
let registry : (string, family) Hashtbl.t = Hashtbl.create 32

let locked f =
  Mutex.lock mu;
  match f () with
  | v ->
      Mutex.unlock mu;
      v
  | exception e ->
      Mutex.unlock mu;
      raise e

let normalize_labels labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

let kind_name = function
  | Counter_k -> "counter"
  | Gauge_k -> "gauge"
  | Histogram_k -> "histogram"

let new_cell = function
  | Counter_k -> Counter_c (ref 0.0)
  | Gauge_k -> Gauge_c (ref 0.0)
  | Histogram_k ->
      Hist_c
        {
          hc_count = 0;
          hc_sum = 0.0;
          hc_under = 0;
          hc_buckets = Array.make n_buckets 0;
        }

let get_cell kind name labels help =
  let labels = normalize_labels labels in
  locked (fun () ->
      let fam =
        match Hashtbl.find_opt registry name with
        | Some f ->
            if f.fam_kind <> kind then
              invalid_arg
                (Printf.sprintf "Metrics: %s already registered as %s" name
                   (kind_name f.fam_kind));
            if help <> "" && f.fam_help = "" then f.fam_help <- help;
            f
        | None ->
            let f =
              { fam_kind = kind; fam_help = help; fam_series = Hashtbl.create 4 }
            in
            Hashtbl.replace registry name f;
            f
      in
      match Hashtbl.find_opt fam.fam_series labels with
      | Some c -> c
      | None ->
          let c = new_cell kind in
          Hashtbl.replace fam.fam_series labels c;
          c)

let counter ?(labels = []) ?(help = "") name =
  get_cell Counter_k name labels help

let gauge ?(labels = []) ?(help = "") name = get_cell Gauge_k name labels help

let histogram ?(labels = []) ?(help = "") name =
  get_cell Histogram_k name labels help

let add h v =
  if v < 0.0 then invalid_arg "Metrics.add: negative counter increment";
  match h with
  | Counter_c r -> locked (fun () -> r := !r +. v)
  | Gauge_c _ | Hist_c _ -> invalid_arg "Metrics.add: not a counter"

let set h v =
  match h with
  | Gauge_c r -> locked (fun () -> r := v)
  | Counter_c _ | Hist_c _ -> invalid_arg "Metrics.set: not a gauge"

(* Every closed span lands here, so the body takes the mutex directly
   rather than through a [locked] closure: nothing in it can raise. *)
let observe h v =
  match h with
  | Hist_c hc ->
      if Float.is_finite v then begin
        Mutex.lock mu;
        hc.hc_count <- hc.hc_count + 1;
        hc.hc_sum <- hc.hc_sum +. v;
        (match bucket_index v with
        | Some i -> hc.hc_buckets.(i) <- hc.hc_buckets.(i) + 1
        | None -> hc.hc_under <- hc.hc_under + 1);
        Mutex.unlock mu
      end
  | Counter_c _ | Gauge_c _ -> invalid_arg "Metrics.observe: not a histogram"

let inc ?labels ?help name v = add (counter ?labels ?help name) v
let set_gauge ?labels ?help name v = set (gauge ?labels ?help name) v
let observe_in ?labels ?help name v = observe (histogram ?labels ?help name) v

let reset () =
  locked (fun () ->
      Hashtbl.iter
        (fun _ fam ->
          Hashtbl.iter
            (fun _ cell ->
              match cell with
              | Counter_c r | Gauge_c r -> r := 0.0
              | Hist_c hc ->
                  hc.hc_count <- 0;
                  hc.hc_sum <- 0.0;
                  hc.hc_under <- 0;
                  Array.fill hc.hc_buckets 0 n_buckets 0)
            fam.fam_series)
        registry)

(* ------------------------------------------------------------------ *)
(* Snapshots *)

type hist_snap = {
  h_count : int;
  h_sum : float;
  h_buckets : (float * int) list;
}

type value_snap = Counter_v of float | Gauge_v of float | Hist_v of hist_snap

type series_snap = { s_labels : labels; s_value : value_snap }

type family_snap = {
  f_name : string;
  f_kind : kind;
  f_help : string;
  f_series : series_snap list;
}

let freeze_cell = function
  | Counter_c r -> Counter_v !r
  | Gauge_c r -> Gauge_v !r
  | Hist_c hc ->
      let acc = ref 0 and out = ref [] in
      Array.iteri
        (fun i n ->
          if n > 0 then begin
            acc := !acc + n;
            out := (bucket_upper i, !acc) :: !out
          end)
        hc.hc_buckets;
      Hist_v
        { h_count = hc.hc_count; h_sum = hc.hc_sum; h_buckets = List.rev !out }

let snapshot () =
  locked (fun () ->
      Hashtbl.fold
        (fun name fam acc ->
          let series =
            Hashtbl.fold
              (fun labels cell acc ->
                { s_labels = labels; s_value = freeze_cell cell } :: acc)
              fam.fam_series []
            |> List.sort (fun a b -> compare a.s_labels b.s_labels)
          in
          {
            f_name = name;
            f_kind = fam.fam_kind;
            f_help = fam.fam_help;
            f_series = series;
          }
          :: acc)
        registry []
      |> List.sort (fun a b -> String.compare a.f_name b.f_name))

let quantile h q =
  if h.h_count = 0 then nan
  else begin
    let rank =
      let r = int_of_float (Float.ceil (q *. float_of_int h.h_count)) in
      min (max r 1) h.h_count
    in
    let in_buckets =
      match List.rev h.h_buckets with (_, c) :: _ -> c | [] -> 0
    in
    let under = h.h_count - in_buckets in
    if rank <= under then 0.0
    else
      let rec go = function
        | (ub, c) :: rest -> if under + c >= rank then ub else go rest
        | [] -> 0.0 (* unreachable: rank <= under + in_buckets *)
      in
      go h.h_buckets
  end

let find_series ?(labels = []) snap name =
  let labels = normalize_labels labels in
  match List.find_opt (fun f -> String.equal f.f_name name) snap with
  | None -> None
  | Some f ->
      List.find_opt (fun s -> s.s_labels = labels) f.f_series
      |> Option.map (fun s -> s.s_value)

let counter_value ?labels snap name =
  match find_series ?labels snap name with
  | Some (Counter_v v) | Some (Gauge_v v) -> v
  | Some (Hist_v _) | None -> 0.0

(* ------------------------------------------------------------------ *)
(* JSON helpers shared with Obs and Log (deterministic output) *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

(* ------------------------------------------------------------------ *)
(* Exposition *)

let prom_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let prom_labels ?extra labels =
  let labels = match extra with None -> labels | Some kv -> labels @ [ kv ] in
  if labels = [] then ""
  else
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (prom_escape v))
           labels)
    ^ "}"

let prometheus_string snap =
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s) fmt in
  List.iter
    (fun f ->
      if f.f_help <> "" then
        line "# HELP %s %s\n" f.f_name
          (String.map (fun c -> if c = '\n' then ' ' else c) f.f_help);
      line "# TYPE %s %s\n" f.f_name (kind_name f.f_kind);
      List.iter
        (fun s ->
          match s.s_value with
          | Counter_v v | Gauge_v v ->
              line "%s%s %s\n" f.f_name (prom_labels s.s_labels)
                (json_float v)
          | Hist_v h ->
              List.iter
                (fun (ub, c) ->
                  line "%s_bucket%s %d\n" f.f_name
                    (prom_labels ~extra:("le", json_float ub) s.s_labels)
                    c)
                h.h_buckets;
              line "%s_bucket%s %d\n" f.f_name
                (prom_labels ~extra:("le", "+Inf") s.s_labels)
                h.h_count;
              line "%s_sum%s %s\n" f.f_name (prom_labels s.s_labels)
                (json_float h.h_sum);
              line "%s_count%s %d\n" f.f_name (prom_labels s.s_labels) h.h_count)
        f.f_series)
    snap;
  Buffer.contents buf

let json_string snap =
  let buf = Buffer.create 4096 in
  let labels_json labels =
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) ->
             Printf.sprintf "\"%s\":\"%s\"" (json_escape k)
               (json_escape v))
           labels)
    ^ "}"
  in
  Buffer.add_string buf "{\"schema_version\":1,\"metrics\":[";
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "{\"name\":\"%s\",\"kind\":\"%s\",\"help\":\"%s\",\"series\":["
           (json_escape f.f_name) (kind_name f.f_kind)
           (json_escape f.f_help));
      List.iteri
        (fun j s ->
          if j > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf
            (Printf.sprintf "{\"labels\":%s," (labels_json s.s_labels));
          (match s.s_value with
          | Counter_v v | Gauge_v v ->
              Buffer.add_string buf
                (Printf.sprintf "\"value\":%s" (json_float v))
          | Hist_v h ->
              Buffer.add_string buf
                (Printf.sprintf "\"count\":%d,\"sum\":%s" h.h_count
                   (json_float h.h_sum));
              if h.h_count > 0 then
                Buffer.add_string buf
                  (Printf.sprintf ",\"p50\":%s,\"p90\":%s,\"p99\":%s"
                     (json_float (quantile h 0.50))
                     (json_float (quantile h 0.90))
                     (json_float (quantile h 0.99)));
              Buffer.add_string buf ",\"buckets\":[";
              List.iteri
                (fun k (ub, c) ->
                  if k > 0 then Buffer.add_char buf ',';
                  Buffer.add_string buf
                    (Printf.sprintf "[%s,%d]" (json_float ub) c))
                h.h_buckets;
              Buffer.add_char buf ']');
          Buffer.add_char buf '}')
        f.f_series;
      Buffer.add_string buf "]}")
    snap;
  Buffer.add_string buf "]}";
  Buffer.contents buf
