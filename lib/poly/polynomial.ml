(** Dense univariate polynomials and radix-2 NTT evaluation domains over a
    prime field. This is the computational core of the Plonkish prover:
    column polynomials live in coefficient form, constraint evaluation
    happens on a low-degree extension (a coset of a larger subgroup), and
    the quotient polynomial is recovered by inverse coset FFT. *)

module Make (F : Zkml_ff.Field_intf.S) = struct
  module Extra = Zkml_ff.Field_extra.Make (F)
  module Pool = Zkml_util.Pool

  (** [powers base n] = [| base^0; base^1; ...; base^(n-1) |]. Chunks are
      independent: each seeds with one [pow_int] then runs the usual
      multiplicative recurrence, so the values (canonical residues) are
      identical to the sequential chain at any job count. *)
  let powers base n =
    if n <= 0 then [||]
    else begin
      let r = Array.make n F.one in
      Pool.parallel_for_ranges ~seq_below:(1 lsl 14) n (fun lo hi ->
          (* seed this chunk, then recur strictly within it — never read
             r.(lo - 1), which belongs to a concurrent chunk *)
          if lo > 0 then r.(lo) <- F.pow_int base lo;
          for i = lo + 1 to hi - 1 do
            r.(i) <- F.mul r.(i - 1) base
          done);
      r
    end

  (** {1 Evaluation domains} *)

  module Domain = struct
    type t = {
      k : int;  (** log2 of the size *)
      n : int;  (** 2^k *)
      omega : F.t;  (** primitive n-th root of unity *)
      omega_inv : F.t;
      n_inv : F.t;
      elements : F.t array;
          (** omega^i for i < n; the forward NTT twiddles are the n/2
              prefix. Cached at creation — treat as read-only. *)
      elements_inv : F.t array;  (** omega_inv^i; inverse twiddles *)
    }

    let create k =
      if k < 0 || k > F.two_adicity then
        invalid_arg "Domain.create: k exceeds field two-adicity";
      let n = 1 lsl k in
      let omega = F.root_of_unity k in
      let omega_inv = F.inv omega in
      {
        k;
        n;
        omega;
        omega_inv;
        n_inv = F.inv (F.of_int n);
        elements = powers omega n;
        elements_inv = powers omega_inv n;
      }

    let size t = t.n

    (** All n-th roots in order: 1, w, w^2, ... Cached; do not mutate. *)
    let elements t = t.elements

    (** [coset_points t ~shift] is the table [shift * w^i] — the coset
        the quotient polynomial is evaluated on. Built from the cached
        root powers, chunked over the domain pool. *)
    let coset_points t ~shift =
      let r = Array.make t.n F.zero in
      Pool.parallel_for_ranges ~seq_below:(1 lsl 14) t.n (fun lo hi ->
          for i = lo to hi - 1 do
            r.(i) <- F.mul shift t.elements.(i)
          done);
      r

    (** x^n - 1 *)
    let eval_vanishing t x = F.sub (F.pow_int x t.n) F.one

    (** Lagrange basis polynomial l_i evaluated at an arbitrary point x
        (assumed outside the domain):
        l_i(x) = (w^i / n) * (x^n - 1) / (x - w^i). *)
    let eval_lagrange t i x =
      let wi = t.elements.(((i mod t.n) + t.n) mod t.n) in
      let num = F.mul (F.mul wi t.n_inv) (eval_vanishing t x) in
      F.div num (F.sub x wi)

    (** Evaluations of several Lagrange basis polys at one point, sharing
        a single batch inversion. *)
    let eval_lagrange_many t indices x =
      let wis =
        List.map (fun i -> t.elements.(((i mod t.n) + t.n) mod t.n)) indices
      in
      let denoms = Array.of_list (List.map (fun wi -> F.sub x wi) wis) in
      let invs = Extra.batch_inv denoms in
      let z = eval_vanishing t x in
      List.mapi
        (fun j wi -> F.mul (F.mul (F.mul wi t.n_inv) z) invs.(j))
        wis
  end

  (** {1 In-place NTT} *)

  let bit_reverse_permute a =
    let n = Array.length a in
    let j = ref 0 in
    for i = 1 to n - 1 do
      let bit = ref (n lsr 1) in
      while !j land !bit <> 0 do
        j := !j lxor !bit;
        bit := !bit lsr 1
      done;
      j := !j lor !bit;
      if i < !j then begin
        let t = a.(i) in
        a.(i) <- a.(!j);
        a.(!j) <- t
      end
    done

  (* [tw] is a twiddle table with tw.(i) = root^i, length >= n/2 (the
     domain's cached elements array). The classic per-block recurrence
     [w := w * wlen] is replaced by the table lookup
     [w = tw.(j * (n/len))], which removes the sequential dependency so
     each stage's butterflies can be chunked across domains. Butterfly
     pairs of one stage touch disjoint indices, so the writes race-free;
     values are canonical residues either way, hence bit-identical to
     the sequential transform at any job count.

     This stage-major loop is kept verbatim as the differential
     reference for the cache-blocked [ntt_core] below (test_poly checks
     them equal on every size up to the largest model domain). *)
  let ntt_reference a tw =
    let n = Array.length a in
    assert (n land (n - 1) = 0);
    bit_reverse_permute a;
    let len = ref 2 in
    while !len <= n do
      let len_ = !len in
      let half = len_ / 2 in
      let stride = n / len_ in
      (* butterfly b covers (block, j) = (b / half, b mod half) *)
      Pool.parallel_for_ranges ~seq_below:(1 lsl 13) ~chunk:(1 lsl 11) (n / 2)
        (fun lo hi ->
          let blk = ref (lo / half) and j = ref (lo mod half) in
          let idx = ref ((!blk * len_) + !j) in
          for _ = lo to hi - 1 do
            let w = tw.(!j * stride) in
            let u = a.(!idx) and v = F.mul a.(!idx + half) w in
            a.(!idx) <- F.add u v;
            a.(!idx + half) <- F.sub u v;
            incr j;
            incr idx;
            if !j = half then begin
              j := 0;
              incr blk;
              idx := !blk * len_
            end
          done);
      len := !len * 2
    done

  (* Elements per phase-1 block of the cache-blocked transform. A block
     of 2^11 four-limb elements is ~100 KB including boxing — resident
     in L2 across all ~11 early stages, where the stage-major loop would
     stream the whole array from memory once per stage. *)
  let ntt_block_log = 11

  (* Cache-blocked NTT. Two phases:

     - phase 1 runs every stage with butterfly span [len <= block size]
       one block at a time: a block's data is loaded once and all early
       stages run over it while it is cache-resident (blocks are aligned
       to [len], so a butterfly never crosses a block boundary, and the
       twiddle index [j * (n / len)] depends only on the position within
       the sub-block, not on the block offset);
     - phase 2 runs the remaining global stages stage-major, exactly
       like [ntt_reference].

     Both phases execute the same butterflies on the same indices with
     the same twiddles as the reference — only the traversal order over
     independent butterflies changes — so results are bit-identical. *)
  let ntt_core a tw =
    let n = Array.length a in
    assert (n land (n - 1) = 0);
    bit_reverse_permute a;
    if n >= 2 then begin
      let bsz = min n (1 lsl ntt_block_log) in
      let nblocks = n / bsz in
      Zkml_obs.Obs.count "ntt.blocks" nblocks;
      let seq_below = if n >= 1 lsl 13 then 2 else max_int in
      Pool.parallel_for ~chunk:1 ~seq_below nblocks (fun b ->
          let base = b * bsz in
          let len = ref 2 in
          while !len <= bsz do
            let len_ = !len in
            let half = len_ / 2 in
            let stride = n / len_ in
            let sb = ref base in
            while !sb < base + bsz do
              let s = !sb in
              for j = 0 to half - 1 do
                let w = tw.(j * stride) in
                let u = a.(s + j) and v = F.mul a.(s + j + half) w in
                a.(s + j) <- F.add u v;
                a.(s + j + half) <- F.sub u v
              done;
              sb := s + len_
            done;
            len := !len * 2
          done);
      let len = ref (2 * bsz) in
      while !len <= n do
        let len_ = !len in
        let half = len_ / 2 in
        let stride = n / len_ in
        Pool.parallel_for_ranges ~seq_below:(1 lsl 13) ~chunk:(1 lsl 11)
          (n / 2) (fun lo hi ->
            let blk = ref (lo / half) and j = ref (lo mod half) in
            let idx = ref ((!blk * len_) + !j) in
            for _ = lo to hi - 1 do
              let w = tw.(!j * stride) in
              let u = a.(!idx) and v = F.mul a.(!idx + half) w in
              a.(!idx) <- F.add u v;
              a.(!idx + half) <- F.sub u v;
              incr j;
              incr idx;
              if !j = half then begin
                j := 0;
                incr blk;
                idx := !blk * len_
              end
            done);
        len := !len * 2
      done
    end

  (* Every forward/inverse/coset transform funnels through this leaf, so
     one span covers the whole "fft" op class of the cost model. *)
  let ntt_with_table a tw =
    Zkml_obs.Obs.Span.with_ ~name:"ntt" @@ fun () ->
    Zkml_obs.Obs.count "ntt.size" (Array.length a);
    ntt_core a tw

  (** Forward NTT: coefficients -> evaluations over the domain, in place.
      [Array.length a] must equal the domain size. *)
  let ntt (d : Domain.t) a =
    assert (Array.length a = d.n);
    ntt_with_table a d.elements

  (** Inverse NTT: evaluations -> coefficients, in place. *)
  let intt (d : Domain.t) a =
    assert (Array.length a = d.n);
    ntt_with_table a d.elements_inv;
    Pool.parallel_for_ranges ~seq_below:(1 lsl 14) d.n (fun lo hi ->
        for i = lo to hi - 1 do
          a.(i) <- F.mul a.(i) d.n_inv
        done)

  (** Evaluate coefficient array [coeffs] (length <= d.n) on the coset
      [shift * H]; returns a fresh array of evaluations. Passing a
      precomputed [?shift_pows] table (shift^i, length >= the coefficient
      count) lets batch callers share it across columns. *)
  let coset_ntt (d : Domain.t) ?shift_pows ~shift coeffs =
    let m = Array.length coeffs in
    assert (m <= d.n);
    let sp = match shift_pows with Some t -> t | None -> powers shift m in
    let a = Array.make d.n F.zero in
    Pool.parallel_for_ranges ~seq_below:(1 lsl 14) m (fun lo hi ->
        for i = lo to hi - 1 do
          a.(i) <- F.mul coeffs.(i) sp.(i)
        done);
    ntt d a;
    a

  (** Inverse of {!coset_ntt}: evaluations on [shift * H] -> coefficients. *)
  let coset_intt (d : Domain.t) ?shift_inv_pows ~shift evals =
    assert (Array.length evals = d.n);
    let a = Array.copy evals in
    intt d a;
    let sp =
      match shift_inv_pows with
      | Some t -> t
      | None -> powers (F.inv shift) d.n
    in
    Pool.parallel_for_ranges ~seq_below:(1 lsl 14) d.n (fun lo hi ->
        for i = lo to hi - 1 do
          a.(i) <- F.mul a.(i) sp.(i)
        done);
    a

  (** {1 Coefficient-form operations} *)

  type t = F.t array
  (** Coefficients, lowest degree first. Not necessarily normalized. *)

  let degree p =
    let rec go i = if i < 0 then -1 else if F.is_zero p.(i) then go (i - 1) else i in
    go (Array.length p - 1)

  let zero : t = [||]

  let add p q =
    let n = max (Array.length p) (Array.length q) in
    Array.init n (fun i ->
        let a = if i < Array.length p then p.(i) else F.zero in
        let b = if i < Array.length q then q.(i) else F.zero in
        F.add a b)

  let sub p q =
    let n = max (Array.length p) (Array.length q) in
    Array.init n (fun i ->
        let a = if i < Array.length p then p.(i) else F.zero in
        let b = if i < Array.length q then q.(i) else F.zero in
        F.sub a b)

  let scale c p = Array.map (F.mul c) p

  let mul p q =
    let dp = degree p and dq = degree q in
    if dp < 0 || dq < 0 then zero
    else begin
      let n = dp + dq + 1 in
      if n <= 64 then begin
        (* schoolbook for small products *)
        let r = Array.make n F.zero in
        for i = 0 to dp do
          if not (F.is_zero p.(i)) then
            for j = 0 to dq do
              r.(i + j) <- F.add r.(i + j) (F.mul p.(i) q.(j))
            done
        done;
        r
      end
      else begin
        let k =
          let rec go k = if 1 lsl k >= n then k else go (k + 1) in
          go 1
        in
        let d = Domain.create k in
        let pa = Array.make d.n F.zero and qa = Array.make d.n F.zero in
        Array.blit p 0 pa 0 (dp + 1);
        Array.blit q 0 qa 0 (dq + 1);
        ntt d pa;
        ntt d qa;
        for i = 0 to d.n - 1 do
          pa.(i) <- F.mul pa.(i) qa.(i)
        done;
        intt d pa;
        Array.sub pa 0 n
      end
    end

  let eval p x =
    let r = ref F.zero in
    for i = Array.length p - 1 downto 0 do
      r := F.add (F.mul !r x) p.(i)
    done;
    !r

  (** Synthetic division by (X - z): returns the quotient; the remainder
      (= p(z)) is discarded, so this is exact when p(z) = 0 and otherwise
      implements the KZG witness polynomial (p(X) - p(z)) / (X - z). *)
  let div_by_linear p z =
    let n = Array.length p in
    if n = 0 then zero
    else begin
      let q = Array.make (max 1 (n - 1)) F.zero in
      let acc = ref F.zero in
      for i = n - 1 downto 1 do
        acc := F.add (F.mul !acc z) p.(i);
        q.(i - 1) <- !acc
      done;
      q
    end

  (** Interpolate through the domain from evaluations (fresh array). *)
  let interpolate (d : Domain.t) evals =
    let a = Array.copy evals in
    intt d a;
    a

  let random rng n = Array.init n (fun _ -> F.random rng)

  (** {1 Batch transforms}

      Whole column sets distributed over the pool, one column per task;
      the per-column transforms detect the enclosing parallel region and
      run their stages sequentially, so nesting is safe. Results are
      identical to mapping the singleton API. Domains below 2^12 stay
      sequential: a 4096-point NTT is microseconds of work, less than a
      pool-region dispatch costs. *)

  let col_seq_below (d : Domain.t) = if d.n >= 1 lsl 12 then 2 else max_int

  let ntt_many (d : Domain.t) arrays =
    Pool.parallel_for ~chunk:1 ~seq_below:(col_seq_below d)
      (Array.length arrays) (fun i -> ntt d arrays.(i))

  let intt_many (d : Domain.t) arrays =
    Pool.parallel_for ~chunk:1 ~seq_below:(col_seq_below d)
      (Array.length arrays) (fun i -> intt d arrays.(i))

  let interpolate_many (d : Domain.t) evals =
    Pool.parallel_map_array ~seq_below:(col_seq_below d) (interpolate d) evals

  (** [coset_ntt_many d ~shift columns] = per-column {!coset_ntt} with
      the shift-power table computed once and shared. *)
  let coset_ntt_many (d : Domain.t) ~shift columns =
    let m =
      Array.fold_left (fun acc c -> max acc (Array.length c)) 0 columns
    in
    let sp = powers shift m in
    Pool.parallel_map_array ~seq_below:(col_seq_below d)
      (fun c -> coset_ntt d ~shift_pows:sp ~shift c)
      columns

  let coset_intt_many (d : Domain.t) ~shift columns =
    let sp = powers (F.inv shift) d.n in
    Pool.parallel_map_array ~seq_below:(col_seq_below d)
      (fun c -> coset_intt d ~shift_inv_pows:sp ~shift c)
      columns
end
