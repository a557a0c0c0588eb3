(* Circuit-soundness mutation suite.

   Mutation testing for the proof system: take each zoo model, produce
   an honest proof, then hand the prover a deliberately wrong input —
   one flipped advice cell, one swapped permutation (sigma) pair, one
   corrupted lookup-table column, one flipped proof byte, and seven
   forged logUp witnesses (an input outside its table, also with the
   running sum shifted to close; a multiplicity bumped, or moved to a
   duplicate table row; a shifted running sum; a replaced helper entry;
   a balanced pair of helper entries) — and demand that the
   (honest-key) verifier rejects every mutant, individually and inside
   a batch.

   A mutation classifies as:
     - [Rejected]  the prover produced a proof and the verifier said no;
     - [Refused]   the prover itself raised (e.g. a lookup input no
                   longer appears in the corrupted table) — equally
                   sound: no proof exists;
     - [Skipped]   the circuit has no site of that kind (asserted to
                   happen only where legitimate, e.g. a lookup-free
                   circuit);
     - [Accepted]  the verifier accepted the mutant — a soundness hole;
                   the suite fails if this ever happens.

   Everything is seeded and deterministic: mutation sites are chosen by
   fixed scans (first advice copy cell, first differing sigma rows,
   first fixed table column), inputs and prover randomness come from a
   pinned seed, so any failure replays exactly. `make soundness` runs
   this suite alone. *)

module Zoo = Zkml_models.Zoo
module Circuit = Zkml_plonkish.Circuit
module Expr = Zkml_plonkish.Expr
module Sim61 = Zkml_ec.Simulated.Make (Zkml_ff.Fp61)
module Kzg = Zkml_commit.Kzg.Make (Sim61)
module Ipa = Zkml_commit.Ipa.Make (Sim61)

(* One pinned seed for the whole suite: inputs, prover randomness. *)
let seed = 1234L

(* Hermetic artifact cache: never read or pollute the user's
   ~/.cache/zkml from the test suite. *)
let () =
  Unix.putenv "ZKML_CACHE_DIR"
    (Filename.concat
       (Filename.get_temp_dir_name ())
       (Printf.sprintf "zkml-test-soundness-%d" (Unix.getpid ())))

type outcome = Accepted | Rejected | Refused of string | Skipped of string

let outcome_label = function
  | Accepted -> "ACCEPTED"
  | Rejected -> "rejected"
  | Refused m -> "refused: " ^ m
  | Skipped m -> "skipped: " ^ m

let check_sound name outcome =
  match outcome with
  | Accepted ->
      Alcotest.failf "%s: mutant ACCEPTED — soundness hole" name
  | Rejected | Refused _ -> ()
  | Skipped m -> Alcotest.failf "%s: mutation site unexpectedly missing (%s)" name m

module Mut (Scheme : Zkml_commit.Scheme_intf.S) = struct
  module Serve = Zkml_serve.Artifacts.Make (Scheme)
  module Pipe = Serve.Pipe
  module Proto = Pipe.Proto
  module F = Proto.F

  let bump x = F.add x F.one

  (* Prove with possibly-corrupted keys/advice, verify with the honest
     keys and instance. The prover refusing to produce a proof is as
     good as a rejection. *)
  let attempt params honest_keys ~instance prove =
    match prove () with
    | exception e -> Refused (Printexc.to_string e)
    | proof ->
        if Proto.verify params honest_keys ~instance proof then Accepted
        else Rejected

  let prove_with params keys ~instance ~advice =
    Proto.prove params keys ~instance
      ~advice:(fun _ -> Array.map Array.copy advice)
      ~rng:(Zkml_util.Rng.create seed)

  (* --- mutation 1: flip one copy-constrained advice cell ------------ *)

  let mutate_advice params keys (w : Pipe.witness) =
    let site =
      List.find_map
        (fun ((c1, r1), (c2, r2)) ->
          match (c1, c2) with
          | Circuit.Col_advice a, _ -> Some (a, r1)
          | _, Circuit.Col_advice a -> Some (a, r2)
          | _ -> None)
        keys.Proto.circuit.Circuit.copies
    in
    match site with
    | None -> Skipped "no advice cell under a copy constraint"
    | Some (col, row) ->
        let advice = Array.map Array.copy w.Pipe.w_advice in
        advice.(col).(row) <- bump advice.(col).(row);
        attempt params keys ~instance:w.Pipe.w_instance (fun () ->
            prove_with params keys ~instance:w.Pipe.w_instance ~advice)

  (* --- mutation 2: swap one permutation (sigma) pair ---------------- *)

  (* The prover builds its grand product from a wrong permutation; the
     verifier checks against the honest sigma polynomials. The swapped
     rows must hold *different* cell values (swapping labels between
     equal values leaves the product intact — that permutation is
     genuinely equivalent, not a soundness site) and different labels. *)
  let mutate_sigma params keys (w : Pipe.witness) =
    if Array.length keys.Proto.sigma_values = 0 then
      Skipped "circuit has no permutation argument"
    else begin
      let col_values = function
        | Circuit.Col_fixed f -> keys.Proto.fixed_values.(f)
        | Circuit.Col_advice a -> w.Pipe.w_advice.(a)
        | Circuit.Col_instance i -> w.Pipe.w_instance.(i)
      in
      let m = Array.length keys.Proto.perm_cols in
      (* first (column, row pair) with differing cell values, scanning
         deterministically; labels always differ (sigma is a
         permutation, so cell labels are globally distinct) *)
      let site =
        let found = ref None in
        let c = ref 0 in
        while !found = None && !c < m do
          let vals = col_values keys.Proto.perm_cols.(!c) in
          let n = Array.length keys.Proto.sigma_values.(!c) in
          let r = ref 1 in
          while !found = None && !r < n do
            if not (F.equal vals.(!r) vals.(0)) then found := Some (!c, 0, !r);
            incr r
          done;
          incr c
        done;
        !found
      in
      match site with
      | None -> Skipped "all permutation columns are constant"
      | Some (c, r1, r2) ->
          let sv = Array.map Array.copy keys.Proto.sigma_values in
          let t = sv.(c).(r1) in
          sv.(c).(r1) <- sv.(c).(r2);
          sv.(c).(r2) <- t;
          let bad_keys =
            {
              keys with
              Proto.sigma_values = sv;
              sigma_polys = Pipe.P.interpolate_many keys.Proto.domain sv;
              (* sigma_commits stay honest: the transcript matches, the
                 rejection must come from the permutation identity *)
            }
          in
          attempt params keys ~instance:w.Pipe.w_instance (fun () ->
              prove_with params bad_keys ~instance:w.Pipe.w_instance
                ~advice:w.Pipe.w_advice)
    end

  (* --- mutation 3: corrupt one lookup table column ------------------ *)

  (* Shift every entry of the first fixed column queried by a lookup's
     table expressions. The prover's permuted table multiset no longer
     matches what the verifier evaluates from the honest fixed
     polynomials (and any gate reading the column breaks too). *)
  let mutate_lookup params keys (w : Pipe.witness) =
    let table_col =
      List.find_map
        (fun (l : _ Circuit.lookup) ->
          List.find_map
            (fun e ->
              Expr.fold_queries
                (fun acc kind (q : Expr.query) ->
                  match (acc, kind) with
                  | None, Expr.KFixed -> Some q.Expr.col
                  | _ -> acc)
                None e)
            l.Circuit.tables)
        keys.Proto.circuit.Circuit.lookups
    in
    match table_col with
    | None -> Skipped "circuit has no lookups"
    | Some col ->
        let fv = Array.map Array.copy keys.Proto.fixed_values in
        fv.(col) <- Array.map bump fv.(col);
        let bad_keys =
          {
            keys with
            Proto.fixed_values = fv;
            fixed_polys = Pipe.P.interpolate_many keys.Proto.domain fv;
          }
        in
        attempt params keys ~instance:w.Pipe.w_instance (fun () ->
            prove_with params bad_keys ~instance:w.Pipe.w_instance
              ~advice:w.Pipe.w_advice)

  (* --- logUp mutations --------------------------------------------- *)

  (* These reach the prover through its test-only seam
     [Proto.Testing.prove_tampered]: the hook rewrites a copy of one
     logUp column just before it is committed, while every other column
     keeps its honest derivation, and an input missing from its table is
     skipped instead of refused — so each mutant yields a proof, and the
     verifier must reject it. *)
  let prove_tampered params keys (w : Pipe.witness) ?(advice = w.Pipe.w_advice)
      tamper =
    if keys.Proto.circuit.Circuit.lookups = [] then Skipped "circuit has no lookups"
    else
      attempt params keys ~instance:w.Pipe.w_instance (fun () ->
          Proto.Testing.prove_tampered ~tamper params keys
            ~instance:w.Pipe.w_instance
            ~advice:(fun _ -> Array.map Array.copy advice)
            ~rng:(Zkml_util.Rng.create seed))

  let on what i f = fun what' i' col -> if what' = what && i' = i then f col

  let eval_at keys advice ~row e =
    let n = Array.length keys.Proto.fixed_values.(0) in
    let at grid col rot = grid.(col).((((row + rot) mod n) + n) mod n) in
    Expr.eval ~fixed_at:(at keys.Proto.fixed_values) ~advice_at:(at advice)
      ~instance_at:(fun _ _ -> F.zero) ~challenge:(fun _ -> F.zero)
      ~add:F.add ~sub:F.sub ~mul:F.mul ~neg:F.neg ~scale:F.mul e

  let tuple_at keys advice ~row es =
    String.concat "|" (List.map (fun e -> F.to_bytes (eval_at keys advice ~row e)) es)

  (* an input value outside the table: the first (lookup, usable row,
     advice cell of its inputs) whose bump by 2^40 takes the input tuple
     out of the table. The uncounted input leaves the lookup's running
     sum off zero at row u, which [llast * phi] catches; with [close]
     the running sum is shifted to end at 0 and start off zero instead,
     which [l0 * phi] catches. In the zoo every lookup input cell is
     also copied or gate-constrained, so other constraints reject too;
     the hand circuit below has no gates or copies, so there only the
     lookup is wrong. *)
  let mutate_outside_table ?(close = false) params keys (w : Pipe.witness) =
    let circuit = keys.Proto.circuit in
    let u = Circuit.last_row circuit in
    let advice = Array.map Array.copy w.Pipe.w_advice in
    let bumps_out (l : F.t Circuit.lookup) =
      let table = Hashtbl.create u in
      for row = 0 to u - 1 do
        Hashtbl.replace table (tuple_at keys advice ~row l.Circuit.tables) ()
      done;
      let cells =
        List.fold_left
          (Expr.fold_queries (fun acc kind (q : Expr.query) ->
               if kind = Expr.KAdvice then q :: acc else acc))
          [] l.Circuit.inputs
      in
      let rec search row = function
        | [] -> row + 1 < u && search (row + 1) cells
        | (q : Expr.query) :: rest ->
            let c = q.Expr.col and r = row + q.Expr.rot in
            if r < 0 || r >= u then search row rest
            else begin
              let saved = advice.(c).(r) in
              advice.(c).(r) <- F.add saved (F.of_int (1 lsl 40));
              if Hashtbl.mem table (tuple_at keys advice ~row l.Circuit.inputs) then begin
                advice.(c).(r) <- saved;
                search row rest
              end
              else true
            end
      in
      search 0 cells
    in
    let rec find li = function
      | [] -> None
      | l :: rest -> if bumps_out l then Some li else find (li + 1) rest
    in
    match find 0 circuit.Circuit.lookups with
    | None -> Skipped "no advice cell moves a lookup input out of its table"
    | Some li ->
        let closing phi =
          let d = phi.(u) in
          Array.iteri (fun r v -> phi.(r) <- F.sub v d) phi
        in
        prove_tampered params keys w ~advice
          (if close then on Proto.Phi keys.Proto.look_table.(li) closing
           else fun _ _ _ -> ())

  (* a count moved between two usable rows holding the same table tuple:
     the sum m / (t + beta) is unchanged, but the running sum was built
     from the honest counts *)
  let mutate_mult_moved params keys (w : Pipe.witness) =
    if keys.Proto.tables = [||] then Skipped "circuit has no lookups"
    else begin
      let u = Circuit.last_row keys.Proto.circuit in
      let seen = Hashtbl.create u in
      let pair = ref None in
      for row = 0 to u - 1 do
        let key = tuple_at keys w.Pipe.w_advice ~row keys.Proto.tables.(0) in
        match Hashtbl.find_opt seen key with
        | Some r1 when !pair = None -> pair := Some (r1, row)
        | Some _ -> ()
        | None -> Hashtbl.add seen key row
      done;
      match !pair with
      | None -> Skipped "table 0 has no duplicate rows"
      | Some (r1, r2) ->
          prove_tampered params keys w
            (on Proto.Mult 0 (fun m ->
                 m.(r1) <- F.sub m.(r1) F.one;
                 m.(r2) <- F.add m.(r2) F.one))
    end

  (* --- mutation 4: flip one proof byte ------------------------------ *)

  let mutate_proof_byte params keys (w : Pipe.witness) honest_bytes =
    let b = Bytes.of_string honest_bytes in
    let pos = Bytes.length b / 2 in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x20));
    let bytes = Bytes.to_string b in
    match
      Pipe.verify_verdict params keys ~instance_ints:w.Pipe.w_instance_ints
        bytes
    with
    | Proto.Accepted -> Accepted
    | Proto.Rejected -> Rejected
    | Proto.Malformed e -> Refused (Zkml_util.Err.to_string e)

  let logup_mutants params keys w =
    [
      ("logup-outside-table", mutate_outside_table params keys w);
      ( "logup-mult-plus-one",
        prove_tampered params keys w
          (on Proto.Mult 0 (fun m -> m.(0) <- F.add m.(0) F.one)) );
      ("logup-mult-moved", mutate_mult_moved params keys w);
      ( "logup-phi-shift",
        prove_tampered params keys w
          (on Proto.Phi 0 (fun phi ->
               Array.iteri (fun r v -> phi.(r) <- F.add v (F.of_int 5)) phi)) );
      ( "logup-helper-replace",
        prove_tampered params keys w
          (on Proto.Helper 0 (fun h -> h.(0) <- F.add h.(0) F.one)) );
      (* +1 and -1 on two helper entries with the running sum carried
         between them: every sum and step still holds, so only the
         helper identity h * (f + beta) = 1 can catch it *)
      ( "logup-helper-balanced",
        prove_tampered params keys w (fun what i col ->
            match (what, i) with
            | Proto.Helper, 0 ->
                col.(0) <- F.add col.(0) F.one;
                col.(1) <- F.sub col.(1) F.one
            | Proto.Phi, 0 -> col.(1) <- F.add col.(1) F.one
            | _ -> ()) );
      ("logup-outside-closed", mutate_outside_table ~close:true params keys w);
    ]

  let check_all keys label outcomes =
    List.iter
      (fun (what, outcome) ->
        let name = label ^ "/" ^ what in
        let is_lookup = what = "lookup-corrupt" || String.starts_with ~prefix:"logup-" what in
        (match outcome with
        | Skipped _ when is_lookup && keys.Proto.circuit.Circuit.lookups = [] ->
            (* the only legitimate skip: a circuit with no lookups *)
            ()
        | Refused e when String.starts_with ~prefix:"logup-" what ->
            (* the tamper seam always yields a proof *)
            Alcotest.failf "%s: expected a proof, prover refused (%s)" name e
        | o -> check_sound name o);
        Printf.printf "  %-30s %s\n%!" name (outcome_label outcome))
      outcomes

  (* The logUp mutants on a hand circuit where each one breaks exactly
     one constraint: one lookup [s * a] into the table 0..7 padded with
     duplicate 7s, no gates, no copies, [a] = 3 on rows 0..9. *)
  let run_hand params =
    let k = 5 and blinding = 5 in
    let n = 1 lsl k in
    let circuit : F.t Circuit.t =
      {
        Circuit.k;
        num_fixed = 2;
        is_selector = [| true; false |];
        advice_phases = [| 0 |];
        num_instance = 0;
        num_challenges = 0;
        gates = [];
        lookups =
          [
            {
              Circuit.lookup_name = "range";
              inputs = [ Expr.Mul (Expr.fixed 0, Expr.advice 0) ];
              tables = [ Expr.fixed 1 ];
            };
          ];
        copies = [];
        blinding;
      }
    in
    let fixed =
      [|
        Array.init n (fun r -> if r < 10 then F.one else F.zero);
        Array.init n (fun r -> F.of_int (min r 7));
      |]
    in
    let keys = Proto.keygen params circuit ~fixed in
    let w =
      {
        Pipe.w_advice = [| Array.init n (fun r -> F.of_int (if r < 10 then 3 else 0)) |];
        w_instance = [||];
        w_instance_ints = [||];
      }
    in
    Alcotest.(check bool)
      "hand honest proof verifies" true
      (Proto.verify params keys ~instance:[||]
         (prove_with params keys ~instance:[||] ~advice:w.Pipe.w_advice));
    check_all keys "hand" (logup_mutants params keys w)

  (* --- whole-model run ---------------------------------------------- *)

  let run params (m : Zoo.model) =
    let graph = m.Zoo.graph and cfg = m.Zoo.cfg in
    let entry, _ = Serve.prepare ~cfg params graph in
    let keys = entry.Serve.e_keys in
    let w = Serve.witness entry ~cfg graph (Zoo.sample_inputs ~seed m) in
    let honest =
      prove_with params keys ~instance:w.Pipe.w_instance ~advice:w.Pipe.w_advice
    in
    Alcotest.(check bool)
      (m.Zoo.name ^ " honest proof verifies")
      true
      (Proto.verify params keys ~instance:w.Pipe.w_instance honest);
    let honest_bytes = Proto.proof_to_bytes honest in
    let outcomes =
      [
        ("advice-flip", mutate_advice params keys w);
        ("sigma-swap", mutate_sigma params keys w);
        ("lookup-corrupt", mutate_lookup params keys w);
        ("proof-byte-flip", mutate_proof_byte params keys w honest_bytes);
      ]
      @ logup_mutants params keys w
    in
    check_all keys m.Zoo.name outcomes;
    (* batch context: a batch holding one mutant must reject while the
       all-honest batch accepts — the RLC'd final check hides nothing *)
    let flipped =
      let b = Bytes.of_string honest_bytes in
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 1));
      Bytes.to_string b
    in
    let verdict batch =
      Pipe.verify_many_verdict params keys
        ~batch:(List.map (fun p -> (w.Pipe.w_instance_ints, p)) batch)
    in
    Alcotest.(check bool)
      (m.Zoo.name ^ " honest batch accepted")
      true
      (verdict [ honest_bytes; honest_bytes ] = Proto.Accepted);
    Alcotest.(check bool)
      (m.Zoo.name ^ " poisoned batch not accepted")
      false
      (verdict [ honest_bytes; flipped ] = Proto.Accepted)
end

module Mut_kzg = Mut (Kzg)
module Mut_ipa = Mut (Ipa)

let kzg_params = Kzg.setup ~max_size:(1 lsl 13) ~seed:"test-soundness"
let ipa_params = Ipa.setup ~max_size:(1 lsl 13) ~seed:"test-soundness"

let mutate_kzg names () =
  List.iter (fun n -> Mut_kzg.run kzg_params (Zoo.by_name n)) names

let mutate_ipa names () =
  List.iter (fun n -> Mut_ipa.run ipa_params (Zoo.by_name n)) names

let logup_hand () =
  Mut_kzg.run_hand kzg_params;
  Mut_ipa.run_hand ipa_params

(* --- split-and-aggregate mutants (PR 10) --------------------------- *)

(* Same discipline for the segmented proving path: prove mnist honestly
   at 4 segments, then hand the aggregate verdict classifier mutants
   that every per-segment proof alone cannot expose — a tampered seam
   digest, a bumped boundary value, segments spliced from two honest
   runs over different inputs (each segment proof is individually
   honest, so only the seam binding can catch the mix), and a dropped /
   duplicated segment. Zero accepted mutants. *)

module SPF = Zkml_serve.Seg_proof
module SB = Zkml_serve.Backends

let segmented_mutants () =
  let m = Zoo.mnist () in
  let kzg_keys = Hashtbl.create 8 and ipa_keys = Hashtbl.create 8 in
  let parse text =
    match SPF.of_string text with
    | Ok sp -> sp
    | Error e ->
        Alcotest.failf "segmented honest proof unparseable: %s"
          (Zkml_util.Err.to_string e)
  in
  let honest = parse (SPF.prove m SB.Kzg 1234 ~segments:4).SPF.p_text in
  let other = parse (SPF.prove m SB.Kzg 4321 ~segments:4).SPF.p_text in
  Alcotest.(check bool)
    "mnist-seg honest accepted" true
    (SPF.verdict ~kzg_keys ~ipa_keys m honest = `Accepted);
  let nseg = Array.length honest.SPF.sp_groups in
  Alcotest.(check bool) "mnist-seg is multi-segment" true (nseg > 1);
  Alcotest.(check bool)
    "mnist-seg has seams" true
    (Array.length honest.SPF.sp_seams > 0);
  let mutants =
    [
      ( "seam-digest-flip",
        let seams = Array.copy honest.SPF.sp_seams in
        let b = Bytes.of_string seams.(0) in
        Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 1));
        seams.(0) <- Bytes.to_string b;
        { honest with SPF.sp_seams = seams } );
      ( "boundary-value-bump",
        let groups = Array.copy honest.SPF.sp_groups in
        let g = groups.(nseg - 1) in
        let inst = Array.copy g.SPF.sg_instance in
        inst.(0) <- inst.(0) + 1;
        groups.(nseg - 1) <- { g with SPF.sg_instance = inst };
        { honest with SPF.sp_groups = groups } );
      ( "splice-honest-runs",
        let groups = Array.copy honest.SPF.sp_groups in
        groups.(0) <- other.SPF.sp_groups.(0);
        { honest with SPF.sp_groups = groups } );
      ( "proof-byte-flip",
        let groups = Array.copy honest.SPF.sp_groups in
        let g = groups.(0) in
        let b = Bytes.of_string g.SPF.sg_proof in
        let pos = Bytes.length b / 2 in
        Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x20));
        groups.(0) <- { g with SPF.sg_proof = Bytes.to_string b };
        { honest with SPF.sp_groups = groups } );
      ( "dropped-segment",
        { honest with SPF.sp_groups = Array.sub honest.SPF.sp_groups 0 (nseg - 1) } );
      ( "duplicated-segment",
        {
          honest with
          SPF.sp_groups =
            Array.append honest.SPF.sp_groups
              [| honest.SPF.sp_groups.(nseg - 1) |];
        } );
    ]
  in
  List.iter
    (fun (what, sp) ->
      let name = "mnist-seg/" ^ what in
      let outcome =
        match SPF.verdict ~kzg_keys ~ipa_keys m sp with
        | `Accepted -> Accepted
        | `Rejected -> Rejected
        | `Malformed e -> Refused (Zkml_util.Err.to_string e)
      in
      check_sound name outcome;
      Printf.printf "  %-28s %s\n%!" name (outcome_label outcome))
    mutants

let () =
  Alcotest.run "soundness"
    [
      ( "mutations",
        [
          Alcotest.test_case "kzg_small" `Quick
            (mutate_kzg [ "mnist"; "dlrm"; "twitter"; "gpt2" ]);
          Alcotest.test_case "ipa_small" `Quick (mutate_ipa [ "dlrm"; "gpt2" ]);
          Alcotest.test_case "logup_hand" `Quick logup_hand;
          Alcotest.test_case "kzg_big" `Slow
            (mutate_kzg [ "resnet18"; "mobilenet"; "vgg16"; "diffusion" ]);
        ] );
      ( "segmented",
        [ Alcotest.test_case "mnist_kzg_4seg" `Quick segmented_mutants ] );
    ]
