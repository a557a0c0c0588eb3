(* A fixed-size pool of OCaml 5 domains for data-parallel loops.

   Design notes:

   - The pool is lazy and global: the first parallel call (with jobs>1)
     spawns [jobs-1] worker domains; they sleep on a condition variable
     between regions, so idle cost is one blocked domain each. The
     calling domain always participates as worker 0, so [jobs] is the
     true parallel width.

   - Work distribution is dynamic: a region exposes [nchunks] chunks
     behind one atomic cursor and every participant (caller included)
     pulls the next chunk until the cursor runs out. Chunk boundaries
     depend only on (n, chunk) — never on scheduling — so any
     chunk-shaped intermediate state (see [parallel_reduce]) is
     deterministic for a fixed chunk size.

   - Nested regions run sequentially: a global [busy] flag makes an
     inner parallel call from a worker (or from the caller inside a
     region) fall back to the plain loop instead of deadlocking on the
     pool. This keeps composite kernels (batch-of-NTTs calling the
     parallel NTT) safe without any configuration.

   - Exceptions: the first exception raised by any chunk is kept (by
     atomic race, then stably re-raised by the caller after every
     participant has drained), so [parallel_for] has the same "raises
     what the body raises" contract as a plain for loop, up to choice
     among simultaneous failures.

   - Minor heaps: with more than one domain every minor collection is
     a stop-the-world barrier across all of them, and on a loaded host
     each barrier waits for whichever domain's core is descheduled.
     The pool grows the minor heap of every domain that runs regions
     (the spawning caller and each worker) to [minor_heap_words], a
     quarter of the barriers at the runtime's 256k-word default. Field
     arithmetic allocates nothing, so a proof fills the default heap
     only a few dozen times, but set-up (compile and keygen) measured
     slower without the growth (DESIGN.md, "Minor heaps"). [Gc.set]
     only resizes the calling domain's heap, hence the call on each
     side.

   - Tracing: worker domains have no Obs sink, so each region forks an
     [Obs.Par] capture handle; worker bodies run inside
     [Zkml_obs.Obs.Par.worker_run] and the caller splices captures back in
     worker order at the end of the region, keeping traces
     deterministic. *)

let env_jobs () =
  match Sys.getenv_opt "ZKML_JOBS" with
  | None -> 1
  | Some s -> ( match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | _ -> 1)

let configured : int option ref = ref None

let jobs () =
  match !configured with
  | Some n -> n
  | None ->
      let n = env_jobs () in
      configured := Some n;
      n

(* ------------------------------------------------------------------ *)
(* The worker pool *)

type pool = {
  nworkers : int;  (* spawned domains; parallel width is nworkers+1 *)
  mutex : Mutex.t;
  work_c : Condition.t;  (* signalled when a region starts or at stop *)
  done_c : Condition.t;  (* signalled when the last worker finishes *)
  mutable generation : int;
  mutable work : (int -> unit) option;  (* slot -> unit; slots 1..nworkers *)
  mutable active : int;
  mutable stop : bool;
  mutable domains : unit Domain.t list;
}

let the_pool : pool option ref = ref None

(* 8 MB per domain; never shrinks a heap set larger (OCAMLRUNPARAM=s) *)
let minor_heap_words = 1 lsl 20

let grow_minor_heap () =
  let g = Gc.get () in
  if g.Gc.minor_heap_size < minor_heap_words then
    Gc.set { g with Gc.minor_heap_size = minor_heap_words }

(* true while a region is running anywhere; inner calls go sequential *)
let busy = Atomic.make false

let worker_loop p slot =
  grow_minor_heap ();
  let last = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    Mutex.lock p.mutex;
    while (not p.stop) && p.generation = !last do
      Condition.wait p.work_c p.mutex
    done;
    if p.stop then begin
      Mutex.unlock p.mutex;
      continue_ := false
    end
    else begin
      last := p.generation;
      let w = p.work in
      Mutex.unlock p.mutex;
      (match w with
      | Some f -> ( try f slot with _ -> () )
        (* the chunk runner records exceptions itself; this catch only
           guards the pool against a broken runner *)
      | None -> ());
      Mutex.lock p.mutex;
      p.active <- p.active - 1;
      if p.active = 0 then Condition.broadcast p.done_c;
      Mutex.unlock p.mutex
    end
  done

let shutdown () =
  match !the_pool with
  | None -> ()
  | Some p ->
      Mutex.lock p.mutex;
      p.stop <- true;
      Condition.broadcast p.work_c;
      Mutex.unlock p.mutex;
      List.iter Domain.join p.domains;
      the_pool := None

let exit_hook_installed = ref false

let get_pool () =
  match !the_pool with
  | Some p -> p
  | None ->
      let nworkers = jobs () - 1 in
      let p =
        {
          nworkers;
          mutex = Mutex.create ();
          work_c = Condition.create ();
          done_c = Condition.create ();
          generation = 0;
          work = None;
          active = 0;
          stop = false;
          domains = [];
        }
      in
      grow_minor_heap ();
      p.domains <-
        List.init nworkers (fun i ->
            Domain.spawn (fun () -> worker_loop p (i + 1)));
      the_pool := Some p;
      if not !exit_hook_installed then begin
        exit_hook_installed := true;
        at_exit shutdown
      end;
      p

let set_jobs n =
  let n = max 1 n in
  if n <> jobs () then begin
    shutdown ();
    configured := Some n
  end

(* Run [f slot] on every participant: slots 1..nworkers on the pool
   domains, slot 0 on the caller; returns when all are done. *)
let run_region p f =
  Mutex.lock p.mutex;
  p.work <- Some f;
  p.generation <- p.generation + 1;
  p.active <- p.nworkers;
  Condition.broadcast p.work_c;
  Mutex.unlock p.mutex;
  (try f 0 with _ -> ());
  Mutex.lock p.mutex;
  while p.active > 0 do
    Condition.wait p.done_c p.mutex
  done;
  p.work <- None;
  Mutex.unlock p.mutex

(* ------------------------------------------------------------------ *)
(* Parallel loops *)

let default_seq_below = 2048

let parallel_for_ranges ?chunk ?(seq_below = default_seq_below) n body =
  if n <= 0 then ()
  else
    let j = jobs () in
    if j <= 1 || n < seq_below || not (Atomic.compare_and_set busy false true)
    then body 0 n
    else begin
      let release () = Atomic.set busy false in
      match
        let chunk =
          match chunk with
          | Some c -> max 1 c
          | None -> max 1 ((n + (4 * j) - 1) / (4 * j))
        in
        let nchunks = (n + chunk - 1) / chunk in
        let next = Atomic.make 0 in
        let err : exn option Atomic.t = Atomic.make None in
        let run_chunks () =
          let continue_ = ref true in
          while !continue_ do
            let c = Atomic.fetch_and_add next 1 in
            if c >= nchunks || Atomic.get err <> None then continue_ := false
            else
              let lo = c * chunk in
              let hi = min n (lo + chunk) in
              try body lo hi
              with e -> ignore (Atomic.compare_and_set err None (Some e))
          done
        in
        let h = Zkml_obs.Obs.Par.fork j in
        let p = get_pool () in
        run_region p (fun slot ->
            if slot = 0 then run_chunks ()
            else Zkml_obs.Obs.Par.worker_run h (slot - 1) run_chunks);
        Zkml_obs.Obs.Par.join h;
        Atomic.get err
      with
      | None -> release ()
      | Some e ->
          release ();
          raise e
      | exception e ->
          release ();
          raise e
    end

let parallel_for ?chunk ?seq_below n f =
  parallel_for_ranges ?chunk ?seq_below n (fun lo hi ->
      for i = lo to hi - 1 do
        f i
      done)

let parallel_map_array ?(chunk = 1) ?(seq_below = 2) f a =
  (* unlike the index loops, elements here are assumed expensive (whole
     columns), so default to chunk 1 and no sequential cutoff *)
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    (* element 0 on the caller seeds the result array *)
    let out = Array.make n (f a.(0)) in
    parallel_for ~chunk ~seq_below (n - 1) (fun i -> out.(i + 1) <- f a.(i + 1));
    out
  end

let parallel_reduce ?(chunk = 1024) ?seq_below n ~init ~map ~combine =
  if n <= 0 then init
  else begin
    let chunk = max 1 chunk in
    let nchunks = (n + chunk - 1) / chunk in
    let parts = Array.make nchunks None in
    (* chunk geometry is fixed by [chunk] alone, and [combine] is
       required associative, so the fold below yields the same value at
       any job count *)
    parallel_for_ranges ~chunk ?seq_below n (fun lo hi ->
        parts.(lo / chunk) <- Some (map lo hi));
    let acc = ref init in
    Array.iter
      (function Some v -> acc := combine !acc v | None -> ())
      parts;
    !acc
  end
