(* lib/sched tests: qcheck properties over the bounded priority work queue
   (ordering, nothing lost under concurrent producers/consumers, the
   backpressure bound), scheduler semantics (inline mode, per-hash
   chaining, dedupe, forget, barrier quiescence), the 4-domain
   observability hammer, and the parallel-speculation determinism oracle
   on generated EVM scenarios. *)

let t name f = Alcotest.test_case name `Quick f
let u = U256.of_int

(* Wait (bounded) for a cross-domain predicate to become true. *)
let await ?(timeout_s = 20.0) msg pred =
  let t0 = Obs.now_ns () in
  let deadline = Int64.add t0 (Int64.of_float (timeout_s *. 1e9)) in
  while (not (pred ())) && Int64.compare (Obs.now_ns ()) deadline < 0 do
    Domain.cpu_relax ()
  done;
  Alcotest.(check bool) msg true (pred ())

(* A one-shot gate worker jobs park on, so tests can pin jobs in-flight
   while they poke the queue behind them. *)
let gate () =
  let mu = Mutex.create () and cv = Condition.create () and opened = ref false in
  let wait () =
    Mutex.lock mu;
    while not !opened do
      Condition.wait cv mu
    done;
    Mutex.unlock mu
  in
  let release () =
    Mutex.lock mu;
    opened := true;
    Condition.broadcast cv;
    Mutex.unlock mu
  in
  (wait, release)

(* ---- Workq properties ---- *)

(* Sequential model: popping drains in (priority desc, insertion asc)
   order — exactly a stable sort of the submissions by descending
   priority. *)
let arb_batch = QCheck.(list_of_size Gen.(int_range 0 60) (int_range 0 7))

let prop_ordering prios =
  let q = Sched.Workq.create ~capacity:(max 1 (List.length prios)) () in
  List.iteri (fun i p -> assert (Sched.Workq.push q ~priority:(u p) (i, p))) prios;
  Sched.Workq.close q;
  let rec drain acc =
    match Sched.Workq.pop q with None -> List.rev acc | Some x -> drain (x :: acc)
  in
  let got = drain [] in
  let expect =
    List.stable_sort
      (fun (_, p1) (_, p2) -> compare p2 p1)
      (List.mapi (fun i p -> (i, p)) prios)
  in
  got = expect

(* Two producer domains block-push disjoint ids through a deliberately
   tiny queue while two consumer domains drain it: every id must come out
   exactly once, and the high-water mark must respect the capacity bound
   even under contention. *)
let prop_concurrent prios =
  let cap = 4 in
  let q = Sched.Workq.create ~capacity:cap () in
  let items = List.mapi (fun i p -> (i, p)) prios in
  let half = List.length items / 2 in
  let chunk1 = List.filteri (fun i _ -> i < half) items in
  let chunk2 = List.filteri (fun i _ -> i >= half) items in
  let producer chunk =
    Domain.spawn (fun () ->
        List.iter (fun (id, p) -> ignore (Sched.Workq.push q ~priority:(u p) id)) chunk)
  in
  let consumer () =
    Domain.spawn (fun () ->
        let rec go acc =
          match Sched.Workq.pop q with None -> acc | Some id -> go (id :: acc)
        in
        go [])
  in
  let p1 = producer chunk1 and p2 = producer chunk2 in
  let c1 = consumer () and c2 = consumer () in
  Domain.join p1;
  Domain.join p2;
  Sched.Workq.close q;
  let got = Domain.join c1 @ Domain.join c2 in
  List.sort compare got = List.init (List.length items) Fun.id
  && Sched.Workq.high_water q <= cap

let test_backpressure () =
  let q = Sched.Workq.create ~capacity:3 () in
  for i = 0 to 2 do
    Alcotest.(check bool) "push under capacity" true (Sched.Workq.push q ~priority:(u i) i)
  done;
  Alcotest.(check bool) "full refuses" true (Sched.Workq.try_push q ~priority:(u 9) 9 = `Full);
  Alcotest.(check int) "length at bound" 3 (Sched.Workq.length q);
  Alcotest.(check int) "high water at bound" 3 (Sched.Workq.high_water q);
  Alcotest.(check (option int)) "pop highest" (Some 2) (Sched.Workq.try_pop q);
  Alcotest.(check bool) "room again" true (Sched.Workq.try_push q ~priority:(u 9) 9 = `Ok);
  Sched.Workq.close q;
  Alcotest.(check bool) "closed refuses try_push" true
    (Sched.Workq.try_push q ~priority:(u 1) 1 = `Closed);
  Alcotest.(check bool) "closed refuses push" false (Sched.Workq.push q ~priority:(u 1) 1);
  Alcotest.(check (option int)) "drains after close" (Some 9) (Sched.Workq.try_pop q);
  Alcotest.(check (option int)) "drains after close" (Some 1) (Sched.Workq.try_pop q);
  Alcotest.(check (option int)) "drains after close" (Some 0) (Sched.Workq.try_pop q);
  Alcotest.(check (option int)) "empty after drain" None (Sched.Workq.pop q)

(* ---- Sched semantics ---- *)

let r_hash (r : _ Sched.result) = r.Sched.r_hash

let r_ok (r : _ Sched.result) =
  match r.Sched.r_value with Ok v -> v | Error e -> raise e

let test_inline () =
  let s : int Sched.t = Sched.create ~jobs:1 () in
  for i = 0 to 9 do
    Sched.submit s
      ~hash:(Printf.sprintf "h%d" i)
      ~root:"r"
      ~priority:(u (i mod 3))
      (fun () -> i * i)
  done;
  Sched.barrier s;
  let rs = Sched.drain s in
  Alcotest.(check (list int)) "inline results in submission order"
    (List.init 10 (fun i -> i * i))
    (List.map r_ok rs);
  Alcotest.(check (list int)) "sequence numbers" (List.init 10 Fun.id)
    (List.map (fun (r : _ Sched.result) -> r.Sched.r_seq) rs);
  let st = Sched.stats s in
  Alcotest.(check int) "submitted" 10 st.Sched.submitted;
  Alcotest.(check int) "completed" 10 st.Sched.completed;
  Sched.shutdown s

let test_exn () =
  let s : int Sched.t = Sched.create ~jobs:1 () in
  Sched.submit s ~hash:"boom" ~root:"r" ~priority:(u 1) (fun () -> failwith "boom");
  (match Sched.drain s with
  | [ { Sched.r_value = Error (Failure m); _ } ] ->
    Alcotest.(check string) "exception captured" "boom" m
  | _ -> Alcotest.fail "expected one Error result");
  Sched.shutdown s

(* Jobs submitted for one hash are chained: they run serialized, in
   submission order, so they may mutate shared per-tx state without any
   synchronization of their own — [order] below is a plain ref. *)
let test_chaining () =
  let s : int Sched.t = Sched.create ~jobs:4 () in
  let order = ref [] in
  for i = 0 to 19 do
    Sched.submit s ~hash:"same-tx" ~root:"r" ~priority:(u 1) (fun () ->
        order := i :: !order;
        i)
  done;
  Sched.barrier s;
  Alcotest.(check (list int)) "chained jobs ran in submission order"
    (List.init 20 Fun.id) (List.rev !order);
  Alcotest.(check (list int)) "results drain in submission order"
    (List.init 20 Fun.id)
    (List.map r_ok (Sched.drain s));
  let st = Sched.stats s in
  Alcotest.(check int) "all completed" 20 st.Sched.completed;
  Sched.shutdown s

(* A raising job must not break its hash's chain on a worker domain: the
   error is published in sequence and the jobs chained behind it still run,
   in order. *)
let test_chain_survives_exn () =
  let s : int Sched.t = Sched.create ~jobs:2 () in
  let wait, release = gate () in
  Sched.submit s ~hash:"tx" ~root:"r" ~priority:(u 1) (fun () ->
      wait ();
      0);
  Sched.submit s ~hash:"tx" ~root:"r" ~priority:(u 1) (fun () -> failwith "boom");
  Sched.submit s ~hash:"tx" ~root:"r" ~priority:(u 1) (fun () -> 2);
  release ();
  Sched.barrier s;
  let outcome (r : int Sched.result) =
    match r.Sched.r_value with Ok v -> string_of_int v | Error e -> Printexc.to_string e
  in
  Alcotest.(check (list string)) "error published in place, chain continues"
    [ "0"; Printexc.to_string (Failure "boom"); "2" ]
    (List.map outcome (Sched.drain s));
  Alcotest.(check int) "all three completed" 3 (Sched.stats s).Sched.completed;
  Sched.shutdown s

(* ---- dedupe memo (the jobs=4 merged-waste regression) ---- *)

(* Run one submission script against a scheduler and return (result hashes
   in drain order, stats).  The script exercises every memo transition:
   duplicate key (skipped), changed key (runs), keyless (runs, clears the
   memo), re-submission after forget (runs). *)
let dedupe_script jobs =
  let s : string Sched.t = Sched.create ~jobs () in
  let sub ?dedupe_key hash =
    Sched.submit s ?dedupe_key ~hash ~root:"r" ~priority:(u 1) (fun () -> hash)
  in
  sub ~dedupe_key:"k1" "x";
  sub ~dedupe_key:"k1" "x" (* duplicate: must be skipped, not chained *);
  sub ~dedupe_key:"k1" "x" (* still duplicate *);
  sub ~dedupe_key:"k2" "x" (* context changed: runs *);
  sub "x" (* keyless: always runs, clears the memo *);
  sub ~dedupe_key:"k2" "x" (* after keyless clear: runs again *);
  sub ~dedupe_key:"k9" "y";
  Sched.barrier s;
  Sched.forget s [ "y" ];
  sub ~dedupe_key:"k9" "y" (* forget dropped the memo: runs again *);
  Sched.barrier s;
  let rs = List.map r_hash (Sched.drain s) in
  let st = Sched.stats s in
  Sched.shutdown s;
  (rs, st)

let test_dedupe () =
  let rs, st = dedupe_script 1 in
  Alcotest.(check (list string)) "only non-duplicates published"
    [ "x"; "x"; "x"; "x"; "y"; "y" ] rs;
  Alcotest.(check int) "duplicates skipped" 2 st.Sched.deduped;
  Alcotest.(check int) "submitted excludes duplicates" 6 st.Sched.submitted;
  Alcotest.(check int) "completed" 6 st.Sched.completed

(* The regression itself: at jobs>1 a duplicate used to be *merged* into
   the hash's chain and re-executed (merged=6881 wasted on a jobs=4 replay).
   Now it must be skipped before touching the cell, and the memo decisions
   must be identical to jobs=1. *)
let test_dedupe_jobs4_parity () =
  let rs1, st1 = dedupe_script 1 in
  let rs4, st4 = dedupe_script 4 in
  Alcotest.(check (list string)) "jobs=4 publishes exactly what jobs=1 does" rs1 rs4;
  Alcotest.(check int) "jobs=4 skips the same duplicates" st1.Sched.deduped
    st4.Sched.deduped;
  Alcotest.(check int) "jobs=4 submits the same jobs" st1.Sched.submitted
    st4.Sched.submitted;
  (* before the fix a duplicate was chained and re-executed: completed
     would read 8 here (and merged counted the waste) *)
  Alcotest.(check int) "no redundant execution at jobs=4" st1.Sched.completed
    st4.Sched.completed

(* The memo-growth regression (lib/apstore PR): the dedupe memo used to
   keep one entry per hash ever submitted, for the life of the scheduler.
   The node now calls [forget] for every retired hash at block commit, so
   the memo is bounded by the live pending set — pin the API contract that
   makes that possible. *)
let memo_bound_script jobs =
  let s : int Sched.t = Sched.create ~jobs () in
  Fun.protect ~finally:(fun () -> Sched.shutdown s) @@ fun () ->
  for i = 0 to 9 do
    Sched.submit s ~dedupe_key:"ctx" ~hash:(string_of_int i) ~root:"r" ~priority:(u 1)
      (fun () -> i)
  done;
  Sched.barrier s;
  Alcotest.(check int) "memo holds one entry per live hash" 10 (Sched.memo_size s);
  (* a duplicate submission is deduped without growing the memo *)
  Sched.submit s ~dedupe_key:"ctx" ~hash:"3" ~root:"r" ~priority:(u 1) (fun () -> 3);
  Alcotest.(check int) "dedupe does not grow the memo" 10 (Sched.memo_size s);
  (* block commit: the node forgets every retired hash (absent ones are a
     no-op), bounding the memo to what is still pending *)
  Sched.forget s [ "0"; "1"; "2"; "absent" ];
  Alcotest.(check int) "forget drops retired hashes" 7 (Sched.memo_size s);
  (* a forgotten hash speculates again instead of being deduped stale *)
  Sched.submit s ~dedupe_key:"ctx" ~hash:"0" ~root:"r" ~priority:(u 1) (fun () -> 0);
  Sched.barrier s;
  Alcotest.(check int) "forgotten hash re-memoizes on resubmission" 8 (Sched.memo_size s);
  let st = Sched.stats s in
  Alcotest.(check int) "only the duplicate was deduped" 1 st.Sched.deduped;
  Alcotest.(check int) "resubmission after forget executed" 11 st.Sched.completed

let test_memo_bound () = memo_bound_script 1
let test_memo_bound_jobs4 () = memo_bound_script 4

let test_barrier_quiesces () =
  let s : int Sched.t = Sched.create ~jobs:3 () in
  for round = 0 to 2 do
    for i = 0 to 49 do
      Sched.submit s
        ~hash:(Printf.sprintf "r%d-j%d" round i)
        ~root:"r" ~priority:(u (i mod 5))
        (fun () -> i)
    done;
    Sched.barrier s;
    let st = Sched.stats s in
    Alcotest.(check int) "queued after barrier" 0 st.Sched.queued;
    Alcotest.(check int) "running after barrier" 0 st.Sched.running;
    Alcotest.(check int) "results all published" 50 (List.length (Sched.drain s))
  done;
  Sched.shutdown s;
  Sched.shutdown s (* idempotent *)

(* ---- Obs under domains (the thread-safety satellite's smoke test) ---- *)

let test_obs_hammer () =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled false)
    (fun () ->
      let c = Obs.counter "sched.test.hammer" in
      let g = Obs.gauge "sched.test.max" in
      let n = 25_000 in
      let ds =
        List.init 4 (fun d ->
            Domain.spawn (fun () ->
                for i = 1 to n do
                  Obs.incr c;
                  if i land 1023 = 0 then Obs.set_max g (float_of_int ((d * n) + i))
                done))
      in
      List.iter Domain.join ds;
      Alcotest.(check int) "no increments lost across 4 domains" (4 * n) (Obs.count c))

(* ---- parallel speculation determinism (generated scenarios) ---- *)

let test_parallel_oracle () =
  for iter = 0 to 1 do
    let label = Printf.sprintf "iter %d" iter in
    Alcotest.(check (list string))
      (label ^ ": jobs=4 matches jobs=1")
      []
      (List.map (Fmt.str "%a" Fuzz.Runner.pp_finding)
         (Fuzz.Runner.run ~lanes:[ Fuzz.Runner.Sched ] ~label (Fuzz.Generate.seeded ~seed:7 iter)))
  done

let suite =
  [ QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:200 ~name:"workq pops (priority desc, fifo)" arb_batch
         prop_ordering);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:20
         ~name:"workq loses nothing under 2 producers + 2 consumers" arb_batch
         prop_concurrent);
    t "workq backpressure bound and close semantics" test_backpressure;
    t "inline mode runs at submit, in order" test_inline;
    t "job exceptions are captured, not propagated" test_exn;
    t "same-hash jobs chain in submission order" test_chaining;
    t "a raising job does not break its hash's chain" test_chain_survives_exn;
    t "parallel speculation is deterministic on fuzz scenarios" test_parallel_oracle;
    t "dedupe memo skips duplicate submissions" test_dedupe;
    t "dedupe decisions identical at jobs=1 and jobs=4 (merged-waste)"
      test_dedupe_jobs4_parity;
    t "forget bounds the dedupe memo to the live pending set" test_memo_bound;
    t "forget bounds the memo at jobs=4 too" test_memo_bound_jobs4;
    t "barrier quiesces; shutdown is idempotent" test_barrier_quiesces;
    t "obs counters are exact under 4 hammering domains" test_obs_hammer ]
