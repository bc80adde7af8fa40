(* Worker-pool speculation scheduler.

   Concurrency structure: one producer (the node's replay loop), [jobs]
   worker domains.  The work queue carries only tx hashes; the requests
   themselves live in per-hash [cell]s under [t.mu].  A hash is in the
   queue at most once per cell generation — a worker that pops it claims
   the cell and then runs the cell's whole chain to empty, which is what
   serialises same-tx jobs (they mutate the same spec record) without any
   per-job locking.  Stale queue entries (their cell was claimed
   meanwhile) are simply skipped on pop. *)

(* re-exported: the library wrapper hides sibling modules behind [Sched] *)
module Workq = Workq
module Mailbox = Mailbox

type 'r req = { seq : int; hash : string; prio : U256.t; job : unit -> 'r }

type 'r result = { r_seq : int; r_hash : string; r_value : ('r, exn) Stdlib.result }

type 'r cell = {
  mutable chain : 'r req list; (* submission order *)
  mutable running : bool;
  mutable in_queue : bool;
}

type stats = {
  jobs : int;
  submitted : int;
  completed : int;
  merged : int;
  deduped : int;
  queued : int;
  running : int;
  high_water : int;
}

type 'r t = {
  n_jobs : int;
  q : string Workq.t;
  mu : Mutex.t;
  idle : Condition.t;
  cells : (string, 'r cell) Hashtbl.t;
  memo : (string, string) Hashtbl.t; (* hash -> dedupe key of latest live submission *)
  results : 'r result Mailbox.t;
  mutable next_seq : int;
  mutable n_queued : int; (* requests sitting in chains *)
  mutable n_running : int;
  mutable s_submitted : int;
  mutable s_completed : int;
  mutable s_merged : int;
  mutable s_deduped : int;
  mutable domains : unit Domain.t list;
  mutable stopped : bool;
}

let empty_stats =
  {
    jobs = 1;
    submitted = 0;
    completed = 0;
    merged = 0;
    deduped = 0;
    queued = 0;
    running = 0;
    high_water = 0;
  }

let obs_submitted = Obs.counter "sched.submitted"
let obs_completed = Obs.counter "sched.completed"
let obs_deduped = Obs.counter "sched.deduped"
let obs_depth = Obs.gauge "sched.queue_depth"

let jobs t = t.n_jobs

let run_job job = try Ok (Obs.span "sched.job" job) with e -> Error e

let publish t req value =
  Mailbox.push t.results { r_seq = req.seq; r_hash = req.hash; r_value = value }

(* under [t.mu] *)
let signal_if_idle t = if t.n_queued = 0 && t.n_running = 0 then Condition.broadcast t.idle

(* Worker side.  [claim] pops the head request of [hash]'s cell, if the cell
   is still live and unclaimed; [run_chain] then executes requests for that
   hash until the chain is empty. *)

let claim t hash =
  match Hashtbl.find_opt t.cells hash with
  | None -> None
  | Some c ->
    c.in_queue <- false;
    if c.running then None (* fresher queue entry already claimed it *)
    else (
      match c.chain with
      | [] ->
        Hashtbl.remove t.cells hash;
        None
      | req :: rest ->
        c.chain <- rest;
        c.running <- true;
        t.n_queued <- t.n_queued - 1;
        t.n_running <- t.n_running + 1;
        Some (c, req))

(* under [t.mu]; releases it *)
let retire t hash (c : _ cell) =
  c.running <- false;
  if c.chain = [] && not c.in_queue then Hashtbl.remove t.cells hash;
  t.n_running <- t.n_running - 1;
  if !Obs.enabled then Obs.set obs_depth (float_of_int t.n_queued);
  signal_if_idle t;
  Mutex.unlock t.mu

let rec run_chain t hash (c : _ cell) req =
  let value = run_job req.job in
  Mutex.lock t.mu;
  publish t req value;
  t.s_completed <- t.s_completed + 1;
  Obs.incr obs_completed;
  match c.chain with
  | next :: rest ->
    c.chain <- rest;
    t.n_queued <- t.n_queued - 1;
    Mutex.unlock t.mu;
    run_chain t hash c next
  | [] -> retire t hash c

let rec worker t =
  match Workq.pop t.q with
  | None -> () (* closed and drained: exit the domain *)
  | Some hash ->
    Mutex.lock t.mu;
    (match claim t hash with
    | None -> Mutex.unlock t.mu
    | Some (c, req) ->
      Mutex.unlock t.mu;
      run_chain t hash c req);
    worker t

let create ~jobs () =
  if jobs < 1 then invalid_arg "Sched.create: jobs must be >= 1";
  let t =
    {
      n_jobs = jobs;
      q = Workq.create ();
      mu = Mutex.create ();
      idle = Condition.create ();
      cells = Hashtbl.create 256;
      memo = Hashtbl.create 256;
      results = Mailbox.create ();
      next_seq = 0;
      n_queued = 0;
      n_running = 0;
      s_submitted = 0;
      s_completed = 0;
      s_merged = 0;
      s_deduped = 0;
      domains = [];
      stopped = false;
    }
  in
  if jobs > 1 then
    t.domains <- List.init jobs (fun _ -> Domain.spawn (fun () -> worker t));
  t

(* under [t.mu].  A submission is a duplicate when its [dedupe_key]
   matches the latest live submission for the hash: that job's result is
   already in the Mailbox (or on its way there), so running the identical
   work again would only burn a worker — the jobs=4 merged-waste
   regression.  Keyless submissions never dedupe and clear the memo (they
   will publish a fresh result). *)
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

(* One bookkeeping path for both modes; inline mode differs only in who
   runs the fresh cell's chain: this domain, before [submit] returns,
   exactly as a worker would after popping the hash. *)
let submit ?dedupe_key t ~hash ~priority job =
  if t.stopped then invalid_arg "Sched.submit: scheduler is shut down";
  Mutex.lock t.mu;
  if memo_check t hash dedupe_key then begin
    t.s_deduped <- t.s_deduped + 1;
    Obs.incr obs_deduped;
    Mutex.unlock t.mu
  end
  else begin
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    t.s_submitted <- t.s_submitted + 1;
    Obs.incr obs_submitted;
    let req = { seq; hash; prio = priority; job } in
    let fresh =
      match Hashtbl.find_opt t.cells hash with
      | Some c ->
        (* live cell: a worker owns it (running) or will pop it (in_queue)
           or will continue its chain — just append *)
        c.chain <- c.chain @ [ req ];
        t.n_queued <- t.n_queued + 1;
        t.s_merged <- t.s_merged + 1;
        false
      | None ->
        Hashtbl.add t.cells hash { chain = [ req ]; running = false; in_queue = true };
        t.n_queued <- t.n_queued + 1;
        true
    in
    if t.n_jobs = 1 then
      (* inline deterministic mode: run now, on this domain *)
      match claim t hash with
      | Some (c, req) ->
        Mutex.unlock t.mu;
        run_chain t hash c req
      | None -> Mutex.unlock t.mu
    else begin
      if !Obs.enabled then Obs.set obs_depth (float_of_int t.n_queued);
      Mutex.unlock t.mu;
      (* push outside the lock: it may block on backpressure *)
      if fresh then ignore (Workq.push t.q ~priority hash : bool)
    end
  end

let drain t =
  List.sort
    (fun a b -> compare a.r_seq b.r_seq)
    (Mailbox.drain t.results)

(* No-op in inline mode, where nothing is ever left queued or running. *)
let barrier t =
  Mutex.lock t.mu;
  while t.n_queued > 0 || t.n_running > 0 do
    Condition.wait t.idle t.mu
  done;
  Mutex.unlock t.mu

(* Bookkeeping-only: no queue or cell state is touched, so this is safe
   to call for hashes with live work — although the node only calls it
   for retired ones.  The memo grows monotonically with
   the set of hashes ever submitted otherwise. *)
let forget t hashes =
  Mutex.lock t.mu;
  List.iter (Hashtbl.remove t.memo) hashes;
  Mutex.unlock t.mu

let memo_size t =
  Mutex.lock t.mu;
  let n = Hashtbl.length t.memo in
  Mutex.unlock t.mu;
  n

let stats t =
  Mutex.lock t.mu;
  let s =
    {
      jobs = t.n_jobs;
      submitted = t.s_submitted;
      completed = t.s_completed;
      merged = t.s_merged;
      deduped = t.s_deduped;
      queued = t.n_queued;
      running = t.n_running;
      high_water = Workq.high_water t.q;
    }
  in
  Mutex.unlock t.mu;
  s

let shutdown t =
  if not t.stopped then begin
    t.stopped <- true;
    Workq.close t.q;
    List.iter Domain.join t.domains;
    t.domains <- []
  end
