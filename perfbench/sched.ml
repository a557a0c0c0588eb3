(** Seeded workload generation. Every op, input seed and arrival time
    of a run comes from here, as a pure function of the workload seed;
    the program under test only ever receives the generated inputs. *)

module Zoo = Zkml_models.Zoo
module T = Zkml_tensor.Tensor
module Fx = Zkml_fixed.Fixed
module QE = Zkml_nn.Quant_exec
module Rng = Zkml_util.Rng

(** The models every proving workload takes turns over. *)
let model_names = [ "mnist"; "dlrm"; "gpt2" ]

let models : (string, Zoo.model) Hashtbl.t = Hashtbl.create 4

let model name =
  match Hashtbl.find_opt models name with
  | Some m -> m
  | None ->
      let m = Zoo.by_name name in
      Hashtbl.add models name m;
      m

(** One model input together with its reference fixed-point outputs. *)
type input = {
  model : string;
  seed : int;  (** the input-sampling seed given to [Zoo.sample_inputs] *)
  inputs : float T.t list;
  qinputs : int T.t list;
  outputs : int T.t list;  (** [Quant_exec.output_values] *)
}

(* Inputs on which the fixed-point executor leaves a lookup table's
   range (gpt2's softmax-exp, for many seeds) are refused by the witness
   generator with [Quant_exec.Out_of_range]. They are counted here and
   replaced by the next draw, so no op of a workload fails for this
   known limitation while the refusal rate stays visible. *)
let refused = ref 0

let draw rng name =
  let m = model name in
  let rec go () =
    let seed = Rng.int rng 1_000_000 in
    let inputs = Zoo.sample_inputs ~seed:(Int64.of_int seed) m in
    let qinputs = List.map (T.map (Fx.quantize m.Zoo.cfg)) inputs in
    match QE.run m.Zoo.cfg m.Zoo.graph ~inputs:qinputs with
    | exec ->
        { model = name; seed; inputs; qinputs;
          outputs = QE.output_values exec m.Zoo.graph }
    | exception QE.Out_of_range _ ->
        incr refused;
        go ()
  in
  go ()

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(** [cycles ~seed n]: [n] rounds of one input per model of
    {!model_names}. prove-inproc and prove-seg4 draw from the same
    stream, so their inputs agree for a given seed. *)
let cycles ~seed n =
  let rng = Rng.create (Int64.of_int seed) in
  Array.init n (fun _ -> List.map (draw rng) model_names)

(** The closed loop: rounds [first], [first + 1], ... while time is left
    before [deadline], each run whole by [run_round] (inside [wrap]).
    Returns the next round and the ops in order. *)
let rounds ?(wrap = fun f -> f ()) ~first ~deadline run_round =
  let rec go r acc =
    if Stats.now () >= deadline then (r, List.rev acc)
    else go (r + 1) (List.rev_append (wrap (fun () -> run_round r)) acc)
  in
  go first []

(** A second stream, independent of the inputs, for op order. *)
let order_rng ~seed = Rng.create (Int64.add (Int64.of_int seed) 0x9e3779b9L)

(** SHA-256 over the op list and every quantized input, so a change to
    input sampling or to the schedule reads as a different workload, not
    as a speed change. *)
let fingerprint ops inputs =
  let buf = Buffer.create 65536 in
  List.iter
    (fun l ->
      Buffer.add_string buf l;
      Buffer.add_char buf '\n')
    ops;
  List.iter
    (fun i ->
      Printf.bprintf buf "%s %d:" i.model i.seed;
      List.iter
        (fun t -> Array.iter (fun v -> Printf.bprintf buf "%d," v) (T.data t))
        i.qinputs;
      Buffer.add_char buf '\n')
    inputs;
  Zkml_util.Sha256.hex_digest (Buffer.contents buf)

(** Reference values laid out as a monolithic proof's public instance
    column lays them out: input cells first, then output cells, each
    tensor flattened row-major, then zero padding. *)
let instance_matches i (inst : int array) =
  let flat ts = List.concat_map (fun t -> Array.to_list (T.data t)) ts in
  let expect = Array.of_list (flat i.qinputs @ flat i.outputs) in
  let n = Array.length expect in
  Array.length inst >= n
  && Array.sub inst 0 n = expect
  && Array.for_all (( = ) 0) (Array.sub inst n (Array.length inst - n))
