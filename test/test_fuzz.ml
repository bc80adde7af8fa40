(* lib/fuzz: the conformance fuzzer's own tests — corpus serialization,
   deterministic generation, a bounded clean pass, corpus replay, the
   mutation smoke test proving the oracle has teeth, and the seeded-fault
   table proving every lane does. *)

let check = Alcotest.check
let checkb = Alcotest.(check bool)

let t name f = Alcotest.test_case name `Quick f

let sexp_roundtrip () =
  for i = 0 to 30 do
    let s = Fuzz.Generate.seeded ~seed:1234 i in
    match Fuzz.Scenario.of_string (Fuzz.Scenario.to_string s) with
    | Error m -> Alcotest.failf "iteration %d does not parse back: %s" i m
    | Ok s' ->
      checkb (Printf.sprintf "iteration %d round-trips" i) true (Fuzz.Scenario.equal s s')
  done

let deterministic_generation () =
  for i = 0 to 20 do
    let a = Fuzz.Generate.seeded ~seed:7 i in
    let b = Fuzz.Generate.seeded ~seed:7 i in
    checkb (Printf.sprintf "seed 7 iteration %d reproduces" i) true (Fuzz.Scenario.equal a b)
  done;
  (* different seeds must not all collide *)
  let differs = ref false in
  for i = 0 to 5 do
    if not (Fuzz.Scenario.equal (Fuzz.Generate.seeded ~seed:7 i) (Fuzz.Generate.seeded ~seed:8 i))
    then differs := true
  done;
  checkb "seeds 7 and 8 generate different scenarios" true !differs

open Fuzz

let clean_pass () =
  let s = Driver.fuzz ~seed:42 ~iters:60 () in
  (match s.counterexample with
  | None -> ()
  | Some f ->
    Alcotest.failf "divergence at iteration %d: %s" f.iter (Scenario.to_string f.scenario));
  check Alcotest.int "all iterations ran" 60 s.iters_run;
  checkb "transactions were executed" true (s.tally.txs > 0);
  checkb "perturbed contexts were exercised" true
    (s.tally.perturbed_hits + s.tally.perturbed_violations > 0)

let corpus_replays_clean () =
  let r = Runner.sweep ~lanes:Runner.oracle ~corpus:"corpus" ~seed:0 ~iters:0 () in
  checkb "corpus directory has entries" true (r.corpus_files >= 2);
  List.iter (fun (f, e) -> Alcotest.failf "%s: %s" f e) r.corpus_errors;
  List.iter (fun f -> Alcotest.failf "%a" Runner.pp_finding f) r.findings

let mutation_smoke () =
  (* A miscompiled C_add in the AP executor must be detected within a small
     fixed budget, and the shrunk counterexample must still reproduce. *)
  let s = Driver.fuzz ~fault:Runner.Add ~seed:42 ~iters:25 () in
  match s.counterexample with
  | None -> Alcotest.fail "mutated AP executor survived 25 iterations undetected"
  | Some f ->
    checkb "shrunk scenario still diverges" true
      (Runner.with_fault (Some Runner.Add) (fun () -> Driver.diverges f.scenario));
    checkb "shrinking did not grow the scenario" true
      (Scenario.size f.scenario <= Scenario.size f.original);
    checkb "divergences were reported" true (f.findings <> [])

let mutation_gone_after_reset () =
  (* the smoke test's fault must not leak: the same scenario is clean now *)
  let s = Generate.seeded ~seed:42 0 in
  checkb "scenario is clean without the mutation" false (Driver.diverges s)

(* Every seeded fault through [sweep]: each must be rejected by every
   (lane, kind) its contract names, the same sweep without a fault must
   find nothing, and no fault switch may stay set afterwards. *)
let fault_table () =
  let hook = !Ap.Program.add_path_hook in
  let lanes = [ Runner.Ap; Runner.Verifier; Runner.Footprint ] in
  let sweep ?fault () = Runner.sweep ~lanes ?fault ~corpus:"corpus" ~seed:42 ~iters:2 () in
  List.iter (fun f -> Alcotest.failf "clean run: %a" Runner.pp_finding f) (sweep ()).findings;
  List.iter
    (fun fault ->
      let r = sweep ~fault () in
      List.iter
        (fun ((lane, field) as want) ->
          checkb
            (Printf.sprintf "fault %s rejected by %s (%s)" (Runner.fault_name fault)
               (Runner.lane_name lane)
               (Option.value field ~default:"any"))
            true
            (List.exists (Runner.rejects want) r.findings))
        (Runner.rejected_by fault))
    Runner.faults;
  checkb "ADD miscompile switched off" false !Ap.Exec.miscompile_add_for_tests;
  checkb "no bca narrowing left seeded" true (!Bca.seeded_narrowing = None);
  checkb "drop-guard switched off" false !Runner.drop_guard_fault;
  checkb "add_path hook restored" true (!Ap.Program.add_path_hook == hook)

let suite =
  [ t "scenario sexp round-trips" sexp_roundtrip;
    t "generation is deterministic per (seed, iteration)" deterministic_generation;
    t "bounded fuzz pass: three engines agree" clean_pass;
    t "corpus counterexamples replay clean" corpus_replays_clean;
    t "mutation smoke: miscompiled ADD is caught and shrunk" mutation_smoke;
    t "mutation flag does not leak" mutation_gone_after_reset;
    t "seeded faults: each rejected by its named lane" fault_table ]
