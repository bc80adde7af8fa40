(* Fork-join speculation scheduler.

   One domain (the node's replay loop) calls every function here.  With
   jobs = 1 a job runs at [submit]; with jobs > 1 it waits in [pending]
   until [barrier] (or the batch bound) runs the batch: the jobs are
   grouped into per-hash chains; this domain and up to [jobs - 1] helpers
   spawned for the batch take whole chains off an atomic index — which is
   what serialises same-tx jobs (they mutate the same spec record)
   without any locking — and each result lands in the slot of its
   sequence number.  Joining the helpers publishes their slots to this
   domain. *)

type 'r req = { seq : int; hash : string; job : unit -> 'r }

type 'r result = { r_seq : int; r_hash : string; r_value : ('r, exn) Stdlib.result }

type stats = { jobs : int; submitted : int; completed : int; deduped : int; high_water : int }

type 'r t = {
  n_jobs : int;
  memo : (string, string) Hashtbl.t; (* hash -> dedupe key of latest live submission *)
  mutable pending : 'r req list; (* newest first; always [] when n_jobs = 1 *)
  mutable n_pending : int;
  mutable published : 'r result list; (* newest first *)
  mutable next_seq : int;
  mutable s_completed : int;
  mutable s_deduped : int;
  mutable high_water : int;
}

let empty_stats = { jobs = 1; submitted = 0; completed = 0; deduped = 0; high_water = 0 }

let obs_submitted = Obs.counter "sched.submitted"
let obs_completed = Obs.counter "sched.completed"
let obs_deduped = Obs.counter "sched.deduped"

(* A batch this large runs at once rather than waiting for the barrier. *)
let batch_bound = 4096

let jobs t = t.n_jobs

let create ~jobs () =
  if jobs < 1 then invalid_arg "Sched.create: jobs must be >= 1";
  {
    n_jobs = jobs;
    memo = Hashtbl.create 256;
    pending = [];
    n_pending = 0;
    published = [];
    next_seq = 0;
    s_completed = 0;
    s_deduped = 0;
    high_water = 0;
  }

let run req =
  {
    r_seq = req.seq;
    r_hash = req.hash;
    r_value = (try Ok (Obs.span "sched.job" req.job) with e -> Error e);
  }

(* Run the pending batch.  Chains are ordered by their first submission
   and each keeps submission order; sequence numbers within a batch are
   contiguous, so [seq - base] indexes the result slots. *)
let run_batch t =
  let reqs = List.rev t.pending in
  let n = t.n_pending in
  t.pending <- [];
  t.n_pending <- 0;
  let base = (List.hd reqs).seq in
  let by_hash = Hashtbl.create 64 in
  let chains = ref [] in
  List.iter
    (fun r ->
      match Hashtbl.find_opt by_hash r.hash with
      | Some c -> c := r :: !c
      | None ->
        let c = ref [ r ] in
        Hashtbl.add by_hash r.hash c;
        chains := c :: !chains)
    reqs;
  let chains = Array.of_list (List.rev_map (fun c -> List.rev !c) !chains) in
  let slots = Array.make n None in
  let next = Atomic.make 0 in
  let rec work () =
    let i = Atomic.fetch_and_add next 1 in
    if i < Array.length chains then begin
      List.iter (fun r -> slots.(r.seq - base) <- Some (run r)) chains.(i);
      work ()
    end
  in
  let helpers = List.init (min t.n_jobs (Array.length chains) - 1) (fun _ -> Domain.spawn work) in
  work ();
  List.iter Domain.join helpers;
  Array.iter
    (function Some r -> t.published <- r :: t.published | None -> assert false)
    slots;
  t.s_completed <- t.s_completed + n;
  Obs.add obs_completed n

(* A submission is a duplicate when its [dedupe_key] matches the latest
   live submission for the hash: that job's result is already published
   (or will be at the next barrier), so running the identical work again
   would only burn a domain.  Keyless submissions never dedupe and clear
   the memo (they will publish a fresh result). *)
let memo_check t hash = function
  | None ->
    Hashtbl.remove t.memo hash;
    false
  | Some k ->
    if Hashtbl.find_opt t.memo hash = Some k then true
    else begin
      Hashtbl.replace t.memo hash k;
      false
    end

let submit ?dedupe_key t ~hash job =
  if memo_check t hash dedupe_key then begin
    t.s_deduped <- t.s_deduped + 1;
    Obs.incr obs_deduped
  end
  else begin
    let req = { seq = t.next_seq; hash; job } in
    t.next_seq <- t.next_seq + 1;
    Obs.incr obs_submitted;
    if t.n_jobs = 1 then begin
      t.published <- run req :: t.published;
      t.s_completed <- t.s_completed + 1;
      Obs.incr obs_completed
    end
    else begin
      t.pending <- req :: t.pending;
      t.n_pending <- t.n_pending + 1;
      t.high_water <- max t.high_water t.n_pending;
      if t.n_pending >= batch_bound then run_batch t
    end
  end

let drain t =
  let rs = List.rev t.published in
  t.published <- [];
  rs

let barrier t = if t.n_pending > 0 then run_batch t

(* Bookkeeping only: pending work is untouched, so this is safe to call
   for hashes with pending jobs — although the node only calls it for
   retired ones. *)
let forget t hashes = List.iter (Hashtbl.remove t.memo) hashes

let memo_size t = Hashtbl.length t.memo

let stats t =
  {
    jobs = t.n_jobs;
    submitted = t.next_seq;
    completed = t.s_completed;
    deduped = t.s_deduped;
    high_water = t.high_water;
  }
