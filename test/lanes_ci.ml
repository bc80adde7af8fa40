(* The CI lane aliases: `lanes_ci.exe <alias>` runs one lane selection of
   Fuzz.Runner over the checked-in corpus and a fixed-seed generated
   sweep, and exits non-zero on any finding or on a seeded fault that
   slips through.

     fuzz      the oracle lanes (legacy, S-EVM, AP, verifier) over the
               corpus, then a bounded fuzz pass with shrinking
     parallel  the Apply lane: conflict-aware parallel block apply
               byte-identical to the sequential apply
     analysis  the Verifier lane, a qcheck property that the verifier
               accepts builder output, and the add / drop-guard faults
     bca       the Footprint lane (sentinels + corpus + 200 scenarios per
               fork), the four narrowing faults, and the 4-domain
               analysis-cache hammer *)

open Fuzz

let fail fmt = Printf.ksprintf (fun m -> print_endline m; exit 1) fmt

let print_findings name fs =
  List.iter (fun f -> Fmt.pr "%s:   %a@." name Runner.pp_finding f) fs

(* The sweep's findings and unreadable corpus entries fail the alias. *)
let clean name (r : Runner.sweep_result) =
  List.iter
    (fun (f, e) -> Printf.printf "%s: CORPUS ERROR %s: %s\n%!" name f e)
    r.corpus_errors;
  print_findings name r.findings;
  if r.findings <> [] || r.corpus_errors <> [] then
    fail "%s: %d finding(s), %d unreadable corpus entries" name (List.length r.findings)
      (List.length r.corpus_errors)

(* A fault must be rejected by every (lane, kind) its contract names among
   the [lanes] swept. *)
let rejected name ~lanes fault (r : Runner.sweep_result) =
  List.iter
    (fun ((lane, field) as want) ->
      let hits = List.filter (Runner.rejects want) r.findings in
      let kind = Option.value field ~default:"any" in
      if hits = [] then
        fail "%s: FAULT %s NOT REJECTED by %s (%s)" name (Runner.fault_name fault)
          (Runner.lane_name lane) kind;
      Printf.printf "%s: fault %-9s rejected by %s: %d %s finding(s), e.g. %s\n%!" name
        (Runner.fault_name fault) (Runner.lane_name lane) (List.length hits) kind
        (List.hd hits).ctx)
    (List.filter (fun (lane, _) -> List.mem lane lanes) (Runner.rejected_by fault))

let fuzz () =
  let r = Runner.sweep ~lanes:Runner.oracle ~corpus:"corpus" ~seed:0 ~iters:0 () in
  Printf.printf "fuzz-ci: corpus %d/%d entries clean\n%!"
    (r.corpus_files - List.length r.corpus_failed)
    r.corpus_files;
  clean "fuzz-ci" r;
  let seed = 42 and iters = 500 in
  let s = Driver.fuzz ~seed ~iters () in
  let t = s.tally in
  Printf.printf
    "fuzz-ci: %d iterations (seed %d): %d txs, %d fallbacks, %d perturbed violations, %d \
     perturbed hits, %d warm-built cold-replay violations\n%!"
    s.iters_run seed t.txs t.fallbacks t.perturbed_violations t.perturbed_hits
    t.warm_violations;
  match s.counterexample with
  | None -> print_string "fuzz-ci: all engines agree\n"
  | Some f ->
    Printf.printf "fuzz-ci: DIVERGENCE at iteration %d, shrunk scenario:\n%s%!" f.iter
      (Scenario.to_string f.scenario);
    print_findings "fuzz-ci" f.findings;
    exit 1

let parallel () =
  let r = Runner.sweep ~lanes:[ Runner.Apply ] ~corpus:"corpus" ~seed:1301 ~iters:8 () in
  clean "parallel-ci" r;
  let t = r.tally in
  Printf.printf
    "parallel-ci: %d scenarios (%d corpus files, all forks, + 8 generated), %d txs applied \
     at jobs=1 and jobs=4, static partitioning off and on; %d aborts, %d forced reruns\n"
    t.scenarios r.corpus_files t.txs t.aborted t.forced;
  print_string "parallel-ci: parallel apply = sequential apply everywhere\n"

let analysis () =
  let seed = 42 and iters = 8 in
  let r = Runner.sweep ~lanes:[ Runner.Verifier ] ~corpus:"corpus" ~seed ~iters () in
  Printf.printf
    "analysis-ci: verified %d programs from %d corpus files (all forks) + %d generated \
     scenarios, %d fallbacks\n%!"
    r.tally.programs r.corpus_files iters r.tally.fallbacks;
  clean "analysis-ci" r;
  (* for any generator seed, builder output verifies *)
  let prop =
    QCheck.Test.make ~count:40 ~name:"verifier accepts builder output"
      QCheck.(int_bound 10_000)
      (fun s ->
        let s = Generate.seeded ~seed:s 0 in
        let fs = Runner.run ~lanes:[ Runner.Verifier ] ~label:"prop" s in
        print_findings "analysis-ci" fs;
        fs = [])
  in
  (try QCheck.Test.check_exn prop
   with exn -> fail "analysis-ci: PROPERTY FAILED: %s" (Printexc.to_string exn));
  let lanes = [ Runner.Verifier ] in
  List.iter
    (fun fault ->
      let r = Runner.sweep ~lanes ~fault ~corpus:"corpus" ~seed ~iters () in
      if r.tally.mutated = 0 then
        fail "analysis-ci: fault %s was in effect on no program" (Runner.fault_name fault);
      rejected "analysis-ci" ~lanes fault r)
    [ Runner.Add; Runner.Drop_guard ];
  print_string "analysis-ci: verifier clean on corpus + generated, both faults rejected\n"

(* Concurrent [Bca.facts_for] calls — one domain repeatedly clearing the
   cache to force racing re-analyses — must always return facts identical
   to the single-threaded reference. *)
let cache_hammer () =
  let codes =
    List.concat_map
      (fun i ->
        let s = Generate.seeded ~seed:7 i in
        List.map (Scenario.compile s) s.Scenario.contracts)
      [ 0; 1; 2; 3 ]
  in
  let spec = Spec.resolve Spec.Istanbul in
  Bca.clear_cache ();
  let reference = List.map (fun c -> Bca.facts_for ~spec c) codes in
  let mismatches = Atomic.make 0 in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for _ = 1 to 50 do
              if d = 0 then Bca.clear_cache ();
              List.iter2
                (fun c r -> if Bca.facts_for ~spec c <> r then Atomic.incr mismatches)
                codes reference
            done))
  in
  List.iter Domain.join domains;
  if Atomic.get mismatches > 0 then
    fail "bca-ci: CACHE HAMMER: %d facts mismatches under 4-domain contention"
      (Atomic.get mismatches);
  Printf.printf "bca-ci: 4-domain analysis-cache hammer holds (%d codes x 200 lookups)\n%!"
    (List.length codes)

let bca () =
  let seed = 42 and iters_per_fork = 200 in
  let lanes = [ Runner.Footprint ] in
  let r = Runner.sweep ~lanes ~corpus:"corpus" ~seed ~iters:iters_per_fork () in
  let t = r.tally in
  Printf.printf
    "bca-ci: %d scenarios (%d corpus files, %d/fork generated x %d forks), %d txs: %d \
     touches + %d changes covered, %d wild, %d witness flips\n%!"
    t.scenarios r.corpus_files iters_per_fork Spec.n_forks t.txs t.touches t.changes t.wild
    t.flips;
  clean "bca-ci" r;
  if t.touches = 0 || t.changes = 0 || t.flips = 0 then
    fail "bca-ci: sweep checked nothing (touches=%d changes=%d flips=%d)" t.touches t.changes
      t.flips;
  (* a small sweep suffices: the sentinels trip each narrowed domain *)
  List.iter
    (fun n ->
      let fault = Runner.Narrow n in
      rejected "bca-ci" ~lanes fault
        (Runner.sweep ~lanes ~fault ~corpus:"corpus" ~seed ~iters:2 ()))
    [ Bca.N_cfg; Bca.N_stack; Bca.N_footprint; Bca.N_calldata ];
  if !Bca.seeded_narrowing <> None then
    fail "bca-ci: narrowing leaked out of the rejection runs";
  cache_hammer ();
  print_string "bca-ci: all passes green\n"

let () =
  match Sys.argv with
  | [| _; "fuzz" |] -> fuzz ()
  | [| _; "parallel" |] -> parallel ()
  | [| _; "analysis" |] -> analysis ()
  | [| _; "bca" |] -> bca ()
  | _ -> fail "usage: lanes_ci.exe fuzz|parallel|analysis|bca"
