(* lib/sched tests: scheduler semantics (inline mode, per-hash chaining
   within and across barriers, the batch bound, dedupe, forget, barrier
   quiescence), the 4-domain observability hammer, and the
   parallel-speculation determinism oracle on generated EVM scenarios. *)

let t name f = Alcotest.test_case name `Quick f

(* ---- Sched semantics ---- *)

let r_hash (r : _ Sched.result) = r.Sched.r_hash

let r_ok (r : _ Sched.result) =
  match r.Sched.r_value with Ok v -> v | Error e -> raise e

let test_inline () =
  let s : int Sched.t = Sched.create ~jobs:1 () in
  for i = 0 to 9 do
    Sched.submit s ~hash:(Printf.sprintf "h%d" i) (fun () -> i * i)
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
  Alcotest.(check int) "completed" 10 st.Sched.completed

let test_exn () =
  let s : int Sched.t = Sched.create ~jobs:1 () in
  Sched.submit s ~hash:"boom" (fun () -> failwith "boom");
  match Sched.drain s with
  | [ { Sched.r_value = Error (Failure m); _ } ] ->
    Alcotest.(check string) "exception captured" "boom" m
  | _ -> Alcotest.fail "expected one Error result"

(* Jobs submitted for one hash are chained: they run serialized, in
   submission order, so they may mutate shared per-tx state without any
   synchronization of their own — [order] below is a plain ref. *)
let test_chaining () =
  let s : int Sched.t = Sched.create ~jobs:4 () in
  let order = ref [] in
  for i = 0 to 19 do
    Sched.submit s ~hash:"same-tx" (fun () ->
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
  Alcotest.(check int) "all completed" 20 st.Sched.completed

(* One hash's chain spans two barriers at jobs=4, interleaved with other
   hashes' jobs: it still runs in submission order, every job runs
   exactly once, and the results drain in submission order. *)
let test_chain_spans_barriers () =
  let s : int Sched.t = Sched.create ~jobs:4 () in
  let n = 40 in
  let runs = Array.init n (fun _ -> Atomic.make 0) in
  let order = ref [] in
  let sub i =
    let hash = if i mod 2 = 0 then "same-tx" else Printf.sprintf "other%d" i in
    Sched.submit s ~hash (fun () ->
        Atomic.incr runs.(i);
        if i mod 2 = 0 then order := i :: !order;
        i)
  in
  for i = 0 to (n / 2) - 1 do
    sub i
  done;
  Sched.barrier s;
  for i = n / 2 to n - 1 do
    sub i
  done;
  Sched.barrier s;
  Alcotest.(check (list int)) "chain ran in submission order across barriers"
    (List.init (n / 2) (fun k -> 2 * k))
    (List.rev !order);
  Alcotest.(check (list int)) "every job ran exactly once" (List.init n (fun _ -> 1))
    (Array.to_list (Array.map Atomic.get runs));
  Alcotest.(check (list int)) "results drain in submission order" (List.init n Fun.id)
    (List.map r_ok (Sched.drain s))

(* The batch bound: without a barrier, the 4096th pending job runs the
   batch at once, so pending work never exceeds 4096 jobs. *)
let test_batch_bound () =
  let s : int Sched.t = Sched.create ~jobs:2 () in
  for i = 0 to 4096 do
    Sched.submit s ~hash:(string_of_int i) (fun () -> i)
  done;
  let st = Sched.stats s in
  Alcotest.(check int) "a full batch ran at submit" 4096 st.Sched.completed;
  Alcotest.(check int) "high water at the bound" 4096 st.Sched.high_water;
  Sched.barrier s;
  let st = Sched.stats s in
  Alcotest.(check int) "the barrier ran the rest" 4097 st.Sched.completed;
  Alcotest.(check int) "high water stays at the bound" 4096 st.Sched.high_water;
  Alcotest.(check (list int)) "results drain in submission order" (List.init 4097 Fun.id)
    (List.map r_ok (Sched.drain s))

(* A raising job must not break its hash's chain in a batch: the error is
   published in sequence and the jobs chained behind it still run, in
   order.  Four chains at jobs=2, so the caller and a helper both run
   some. *)
let test_chain_survives_exn () =
  let s : int Sched.t = Sched.create ~jobs:2 () in
  let hashes = [ "a"; "b"; "c"; "d" ] in
  List.iter (fun hash -> Sched.submit s ~hash (fun () -> 0)) hashes;
  List.iter (fun hash -> Sched.submit s ~hash (fun () -> failwith hash)) hashes;
  List.iter (fun hash -> Sched.submit s ~hash (fun () -> 2)) hashes;
  Sched.barrier s;
  let outcome (r : int Sched.result) =
    match r.Sched.r_value with Ok v -> string_of_int v | Error e -> Printexc.to_string e
  in
  Alcotest.(check (list string)) "errors published in place, chains continue"
    (List.concat_map
       (fun row -> List.map row hashes)
       [ (fun _ -> "0"); (fun h -> Printexc.to_string (Failure h)); (fun _ -> "2") ])
    (List.map outcome (Sched.drain s));
  Alcotest.(check int) "all twelve completed" 12 (Sched.stats s).Sched.completed

(* ---- dedupe memo (the jobs=4 merged-waste regression) ---- *)

(* Run one submission script against a scheduler and return (result hashes
   in drain order, stats).  The script exercises every memo transition:
   duplicate key (skipped), changed key (runs), keyless (runs, clears the
   memo), re-submission after forget (runs). *)
let dedupe_script jobs =
  let s : string Sched.t = Sched.create ~jobs () in
  let sub ?dedupe_key hash =
    Sched.submit s ?dedupe_key ~hash (fun () -> hash)
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
  (rs, Sched.stats s)

let test_dedupe () =
  let rs, st = dedupe_script 1 in
  Alcotest.(check (list string)) "only non-duplicates published"
    [ "x"; "x"; "x"; "x"; "y"; "y" ] rs;
  Alcotest.(check int) "duplicates skipped" 2 st.Sched.deduped;
  Alcotest.(check int) "submitted excludes duplicates" 6 st.Sched.submitted;
  Alcotest.(check int) "completed" 6 st.Sched.completed

(* The regression itself: at jobs>1 a duplicate used to be *merged* into
   the hash's chain and re-executed (merged=6881 wasted on a jobs=4 replay).
   Now it must be skipped before it is recorded, and the memo decisions
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
  for i = 0 to 9 do
    Sched.submit s ~dedupe_key:"ctx" ~hash:(string_of_int i) (fun () -> i)
  done;
  Sched.barrier s;
  Alcotest.(check int) "memo holds one entry per live hash" 10 (Sched.memo_size s);
  (* a duplicate submission is deduped without growing the memo *)
  Sched.submit s ~dedupe_key:"ctx" ~hash:"3" (fun () -> 3);
  Alcotest.(check int) "dedupe does not grow the memo" 10 (Sched.memo_size s);
  (* block commit: the node forgets every retired hash (absent ones are a
     no-op), bounding the memo to what is still pending *)
  Sched.forget s [ "0"; "1"; "2"; "absent" ];
  Alcotest.(check int) "forget drops retired hashes" 7 (Sched.memo_size s);
  (* a forgotten hash speculates again instead of being deduped stale *)
  Sched.submit s ~dedupe_key:"ctx" ~hash:"0" (fun () -> 0);
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
      Sched.submit s ~hash:(Printf.sprintf "r%d-j%d" round i) (fun () -> i)
    done;
    Sched.barrier s;
    Alcotest.(check int) "every job ran" (50 * (round + 1)) (Sched.stats s).Sched.completed;
    Alcotest.(check int) "results all published" 50 (List.length (Sched.drain s))
  done

(* A batch of one chain runs on the calling domain: the barrier spawns a
   helper only for a second chain. *)
let test_one_chain_on_caller () =
  let s : int Sched.t = Sched.create ~jobs:4 () in
  for _ = 1 to 5 do
    Sched.submit s ~hash:"tx" (fun () -> (Domain.self () :> int))
  done;
  Sched.barrier s;
  Alcotest.(check (list int)) "every job ran on the caller"
    (List.init 5 (fun _ -> (Domain.self () :> int)))
    (List.map r_ok (Sched.drain s))

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
  [ t "inline mode runs at submit, in order" test_inline;
    t "job exceptions are captured, not propagated" test_exn;
    t "same-hash jobs chain in submission order" test_chaining;
    t "a chain spans barriers in order at jobs=4" test_chain_spans_barriers;
    t "a batch of 4096 pending jobs runs at once" test_batch_bound;
    t "a raising job does not break its hash's chain" test_chain_survives_exn;
    t "parallel speculation is deterministic on fuzz scenarios" test_parallel_oracle;
    t "dedupe memo skips duplicate submissions" test_dedupe;
    t "dedupe decisions identical at jobs=1 and jobs=4 (merged-waste)"
      test_dedupe_jobs4_parity;
    t "forget bounds the dedupe memo to the live pending set" test_memo_bound;
    t "forget bounds the memo at jobs=4 too" test_memo_bound_jobs4;
    t "barrier runs and quiesces the batch" test_barrier_quiesces;
    t "a one-chain batch runs on the caller" test_one_chain_on_caller;
    t "obs counters are exact under 4 hammering domains" test_obs_hammer ]
