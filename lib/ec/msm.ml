(** Multi-scalar multiplication. MSMs dominate proving cost in halo2 (the
    paper's cost model, §7.4, counts them explicitly), so we implement the
    bucket (Pippenger) method with a size-dependent window — and, on top
    of it, a batch-affine accumulation path: buckets live in affine
    coordinates, every scheduling round folds its pending points into the
    buckets with a single batched field inversion, scalars are recoded
    into signed digits to halve the bucket count, and curves with an
    efficient endomorphism (Pallas) additionally split every scalar into
    two half-width halves (GLV), halving the window passes. The original
    Jacobian-bucket implementation is kept as [pippenger_jacobian] — it
    is the differential reference for tests and the before/after line in
    the kernel benchmarks. *)

module Make (G : Group_intf.S) = struct
  module Pool = Zkml_util.Pool

  let naive points scalars =
    (* chunked sum; G.add is associative, and partial sums combine in
       ascending chunk order with a job-count-independent chunk size, so
       the result is identical at any width *)
    Pool.parallel_reduce ~chunk:64 ~seq_below:128 (Array.length points)
      ~init:G.zero
      ~map:(fun lo hi ->
        let acc = ref G.zero in
        for i = lo to hi - 1 do
          acc := G.add !acc (G.mul points.(i) scalars.(i))
        done;
        !acc)
      ~combine:G.add

  let scalar_bits = 64 * Array.length G.Scalar.modulus_limbs

  (* Window size for the Jacobian reference path (the seed tuning). *)
  let window_size n =
    if n < 8 then 2
    else if n < 32 then 4
    else if n < 256 then 6
    else if n < 4096 then 9
    else 12

  (* Window size for the batch-affine path as a function of the item
     count (2x the point count when GLV is active), retuned against
     measured batch-affine bucket costs at ZKML_JOBS=1 (make bench-msm;
     the chosen table is recorded in BENCH_PR7.json). Signed digits mean
     2^(c-1) buckets, so the affine path sustains a wider window for the
     same bucket-array cost; larger windows also amortize the per-round
     batch inversion over more points. *)
  let window_size_affine n =
    if n < 1024 then 8
    else if n < 8192 then 10
    else if n < 32768 then 12
    else 13

  (* Extract c bits of the canonical scalar starting at bit position pos. *)
  let digit limbs pos c =
    let limb_idx = pos / 64 and off = pos mod 64 in
    if limb_idx >= Array.length limbs then 0
    else begin
      let lo = Int64.shift_right_logical limbs.(limb_idx) off in
      let v =
        if off + c <= 64 || limb_idx + 1 >= Array.length limbs then lo
        else
          Int64.logor lo (Int64.shift_left limbs.(limb_idx + 1) (64 - off))
      in
      Int64.to_int (Int64.logand v (Int64.of_int ((1 lsl c) - 1)))
    end

  (* Signed-digit (wNAF-style) recoding: base-2^c digits folded into
     [-2^(c-1), 2^(c-1)] with a carry, so a window only needs 2^(c-1)
     buckets (negative digits add the negated point). One extra window
     absorbs the final carry. *)
  let signed_digits limbs nbits c =
    let nwin = ((nbits + c - 1) / c) + 1 in
    let digits = Array.make nwin 0 in
    let half = 1 lsl (c - 1) in
    let carry = ref 0 in
    for w = 0 to nwin - 1 do
      let d = digit limbs (w * c) c + !carry in
      if d > half then begin
        digits.(w) <- d - (1 lsl c);
        carry := 1
      end
      else begin
        digits.(w) <- d;
        carry := 0
      end
    done;
    digits

  (* The seed implementation: Jacobian bucket accumulation, unsigned
     digits. Kept as the differential reference and for very small
     inputs, where the affine path's field inversions dominate. *)
  let pippenger_jacobian points scalars =
    let n = Array.length points in
    assert (Array.length scalars = n);
    if n = 0 then G.zero
    else begin
      let c = window_size n in
      let limbs = Array.map G.Scalar.to_canonical_limbs scalars in
      let windows = (scalar_bits + c - 1) / c in
      (* windows are independent, so their bucket accumulation runs
         concurrently; each window's inner loops are exactly the
         sequential ones, so sums.(w) is representation-identical at any
         job count. Below ~256 points a window is too little work to
         amortize the region dispatch, so small MSMs stay sequential. *)
      let sums = Array.make windows G.zero in
      let seq_below = if n >= 256 then 2 else max_int in
      Pool.parallel_for ~chunk:1 ~seq_below windows (fun w ->
          let buckets = Array.make ((1 lsl c) - 1) G.zero in
          for i = 0 to n - 1 do
            let d = digit limbs.(i) (w * c) c in
            if d <> 0 then buckets.(d - 1) <- G.add buckets.(d - 1) points.(i)
          done;
          let running = ref G.zero and sum = ref G.zero in
          for b = Array.length buckets - 1 downto 0 do
            running := G.add !running buckets.(b);
            sum := G.add !sum !running
          done;
          sums.(w) <- !sum);
      (* one direct accumulation pass per window; no inversions and no
         collision deferrals on the Jacobian path *)
      Zkml_obs.Obs.count "msm.bucket_rounds" windows;
      Zkml_obs.Obs.count "msm.batch_inv_calls" 0;
      Zkml_obs.Obs.count "msm.collision_queue" 0;
      (* the doubling combine stays sequential: acc = 2^c * acc + sum_w,
         highest window first — the same op sequence as before *)
      let acc = ref G.zero in
      for w = windows - 1 downto 0 do
        for _ = 1 to c do
          acc := G.double !acc
        done;
        acc := G.add !acc sums.(w)
      done;
      !acc
    end

  (* Batch-affine bucket accumulation over recoded scalars.

     [aff] are the points in affine cells, [digitss.(i).(w)] the signed
     digit of scalar i in window w, [nwin] the window count, [c] the
     window width. Per window, points are folded into 2^(c-1) affine
     buckets in scheduling rounds: a round claims at most one pending
     addition per bucket (later hits on the same bucket go to the
     collision queue for the next round, preserving arrival order) and
     performs all claimed additions with one batched inversion via
     [G.Affine.batch_add]. Scheduling is per-window sequential and
     windows don't share state, so the result is identical at any job
     count. Returns the per-window sums and accumulated scheduler
     statistics (rounds, batch-inversion calls, collision-queue
     traffic). *)
  let affine_windows aff digitss nwin c =
    let n = Array.length aff in
    let half = 1 lsl (c - 1) in
    let sums = Array.make nwin G.zero in
    let stats = Array.init nwin (fun _ -> Array.make 3 0) in
    let neg_cache = Array.map G.Affine.neg aff in
    let seq_below = if n >= 256 then 2 else max_int in
    Pool.parallel_for ~chunk:1 ~seq_below nwin (fun w ->
        let buckets = Array.init half (fun _ -> G.Affine.infinity ()) in
        (* pending additions: bucket index + source cell; double-buffered
           so a round's collisions become the next round's queue without
           reallocation *)
        let dummy = G.Affine.infinity () in
        let pend_b = Array.make n 0 and pend_p = Array.make n dummy in
        let next_b = Array.make n 0 and next_p = Array.make n dummy in
        let m = ref 0 in
        for i = 0 to n - 1 do
          let d = digitss.(i).(w) in
          if d <> 0 && not (G.Affine.is_infinity aff.(i)) then begin
            if d > 0 then begin
              pend_b.(!m) <- d - 1;
              pend_p.(!m) <- aff.(i)
            end
            else begin
              pend_b.(!m) <- -d - 1;
              pend_p.(!m) <- neg_cache.(i)
            end;
            incr m
          end
        done;
        let sched_d = Array.make (max 1 !m) 0 in
        let sched_s = Array.make (max 1 !m) dummy in
        let claimed = Array.make half (-1) in
        let pend_b = ref pend_b and pend_p = ref pend_p in
        let next_b = ref next_b and next_p = ref next_p in
        let round = ref 0 in
        let st = stats.(w) in
        while !m > 0 do
          let k = ref 0 and m' = ref 0 in
          for i = 0 to !m - 1 do
            let b = !pend_b.(i) in
            if claimed.(b) <> !round then begin
              claimed.(b) <- !round;
              sched_d.(!k) <- b;
              sched_s.(!k) <- !pend_p.(i);
              incr k
            end
            else begin
              !next_b.(!m') <- b;
              !next_p.(!m') <- !pend_p.(i);
              incr m'
            end
          done;
          G.Affine.batch_add buckets ~dst:sched_d ~src:sched_s ~len:!k;
          st.(0) <- st.(0) + 1;
          if !k > 0 then st.(1) <- st.(1) + 1;
          st.(2) <- st.(2) + !m';
          let tb = !pend_b and tp = !pend_p in
          pend_b := !next_b;
          pend_p := !next_p;
          next_b := tb;
          next_p := tp;
          m := !m';
          incr round
        done;
        (* bucket reduction: sum_b (b+1) * bucket_b via the running-sum
           identity, highest bucket first *)
        let running = ref G.zero and sum = ref G.zero in
        for b = half - 1 downto 0 do
          if not (G.Affine.is_infinity buckets.(b)) then
            running := G.add !running (G.Affine.to_group buckets.(b));
          sum := G.add !sum !running
        done;
        sums.(w) <- !sum);
    (sums, stats)

  let combine_windows sums c =
    let acc = ref G.zero in
    for w = Array.length sums - 1 downto 0 do
      for _ = 1 to c do
        acc := G.double !acc
      done;
      acc := G.add !acc sums.(w)
    done;
    !acc

  let emit_stats stats =
    if Zkml_obs.Obs.enabled () then begin
      let rounds = ref 0 and invs = ref 0 and coll = ref 0 in
      Array.iter
        (fun st ->
          rounds := !rounds + st.(0);
          invs := !invs + st.(1);
          coll := !coll + st.(2))
        stats;
      Zkml_obs.Obs.count "msm.bucket_rounds" !rounds;
      Zkml_obs.Obs.count "msm.batch_inv_calls" !invs;
      Zkml_obs.Obs.count "msm.collision_queue" !coll
    end

  (* Below this point count the Jacobian bucket path wins: the affine
     scheduler's per-round batch inversions and queue management are
     fixed costs that need enough points per bucket to amortize
     (measured crossover at ZKML_JOBS=1, see BENCH_PR7.json). *)
  let affine_threshold = 64

  (* Batch-affine Pippenger over plain (unsplit) scalars. [?c] overrides
     the window width (used by the window-tuning benchmark). *)
  let pippenger_affine ?c points scalars =
    let n = Array.length points in
    let c = match c with Some c -> c | None -> window_size_affine n in
    let nwin = ((scalar_bits + c - 1) / c) + 1 in
    let digitss =
      Array.map
        (fun s -> signed_digits (G.Scalar.to_canonical_limbs s) scalar_bits c)
        scalars
    in
    let aff = G.Affine.batch_of_group points in
    let sums, stats = affine_windows aff digitss nwin c in
    emit_stats stats;
    combine_windows sums c

  (* Batch-affine Pippenger with GLV-split scalars: 2n half-width
     pairs (±k1, P) and (±k2, phi P). *)
  let pippenger_glv ?c phi split points scalars =
    let n = Array.length points in
    let pts2 = Array.make (2 * n) G.zero in
    let limbs2 = Array.make (2 * n) [||] in
    let maxbits = ref 1 in
    for i = 0 to n - 1 do
      let s = split scalars.(i) in
      let p = points.(i) in
      pts2.(2 * i) <- (if s.Group_intf.k1_neg then G.neg p else p);
      limbs2.(2 * i) <- s.Group_intf.k1;
      let q = phi p in
      pts2.((2 * i) + 1) <- (if s.Group_intf.k2_neg then G.neg q else q);
      limbs2.((2 * i) + 1) <- s.Group_intf.k2;
      maxbits := max !maxbits (Zkml_ff.Limbs.bits s.Group_intf.k1);
      maxbits := max !maxbits (Zkml_ff.Limbs.bits s.Group_intf.k2)
    done;
    let c = match c with Some c -> c | None -> window_size_affine (2 * n) in
    let nwin = ((!maxbits + c - 1) / c) + 1 in
    let digitss = Array.map (fun l -> signed_digits l !maxbits c) limbs2 in
    let aff = G.Affine.batch_of_group pts2 in
    let sums, stats = affine_windows aff digitss nwin c in
    emit_stats stats;
    combine_windows sums c

  (* The batch-affine path exists to amortize the field inversions of
     affine curve addition; a group whose [endo] is [None] is either the
     simulated one (adds are single field adds — nothing to amortize,
     the scheduler is pure overhead) or a curve without a usable
     endomorphism, so the affine path is gated on [endo] rather than on
     a separate capability flag. *)
  let pippenger points scalars =
    let n = Array.length points in
    assert (Array.length scalars = n);
    if n = 0 then G.zero
    else
      match G.endo with
      | Some (phi, split) when n >= affine_threshold ->
          pippenger_glv phi split points scalars
      | _ -> pippenger_jacobian points scalars

  (* Window-table tuning hook for bench/main.ml and the differential
     tests: run the batch-affine path at an explicit window width,
     with GLV when available. *)
  let pippenger_affine_with_window ~c points scalars =
    if Array.length points = 0 then G.zero
    else
      match G.endo with
      | Some (phi, split) when Array.length points >= affine_threshold ->
          pippenger_glv ~c phi split points scalars
      | _ -> pippenger_affine ~c points scalars

  let msm points scalars =
    Zkml_obs.Obs.Span.with_ ~name:"msm" @@ fun () ->
    Zkml_obs.Obs.count "msm.points" (Array.length points);
    if Array.length points <= 4 then naive points scalars
    else pippenger points scalars
end
