(* Command-line front end: simulate DiCE traffic, replay it under any
   execution policy, inspect per-kind outcomes, or disassemble the bundled
   contracts.

     forerunner run --seed 7 --duration 300 --policy forerunner
     forerunner compare --seed 7 --duration 300
     forerunner contracts *)

open Cmdliner

let policy_conv =
  let parse = function
    | "baseline" -> Ok Core.Node.Baseline
    | "forerunner" -> Ok Core.Node.Forerunner
    | "perfect" -> Ok Core.Node.Perfect_match
    | "perfect-multi" -> Ok Core.Node.Perfect_multi
    | s -> Error (`Msg (Printf.sprintf "unknown policy %S" s))
  in
  Arg.conv (parse, fun ppf p -> Fmt.string ppf (Core.Node.policy_name p))

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Traffic random seed.")

let duration_arg =
  Arg.(
    value & opt float 300.0
    & info [ "duration" ] ~docv:"SECONDS" ~doc:"Simulated traffic duration.")

let rate_arg =
  Arg.(value & opt float 12.0 & info [ "rate" ] ~docv:"TPS" ~doc:"Transaction rate per second.")

let policy_arg =
  Arg.(
    value
    & opt policy_conv Core.Node.Forerunner
    & info [ "policy" ] ~docv:"POLICY"
        ~doc:"Execution policy: baseline, forerunner, perfect, perfect-multi.")

let validate_arg =
  Arg.(
    value & flag
    & info [ "validate" ] ~doc:"Cross-check every AP hit against a full EVM execution.")

let jobs_arg ~default =
  Arg.(
    value & opt int default
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Speculation worker domains. 1 runs every speculation inline (the \
           deterministic sequential pipeline); N>1 drains the pending set on N OCaml \
           domains in parallel.")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"Enable the Obs instrument registry and print it as a table after the run.")

let metrics_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-json" ] ~docv:"FILE"
        ~doc:"Enable the Obs instrument registry and dump it as JSON to $(docv).")

(* Run [f] with the observability registry enabled when either flag asks for
   it, then render the readout.  Enabling resets the registry so the dump
   covers exactly this invocation. *)
let with_metrics ~metrics ~metrics_json f =
  let wanted = metrics || metrics_json <> None in
  if wanted then begin
    Obs.reset ();
    Obs.set_enabled true
  end;
  let r = f () in
  if wanted then begin
    Obs.set_enabled false;
    if metrics then print_string (Obs.to_table ());
    match metrics_json with
    | Some file ->
      let oc = open_out file in
      output_string oc (Obs.to_json ());
      output_char oc '\n';
      close_out oc;
      Printf.printf "metrics written to %s\n%!" file
    | None -> ()
  end;
  r

let simulate ~seed ~duration ~rate =
  let params =
    { Netsim.Sim.default_params with seed; duration; tx_rate = rate }
  in
  Printf.printf "simulating %.0fs of traffic (seed %d, %.0f tx/s)...\n%!" duration seed rate;
  let record = Netsim.Sim.run ~params () in
  let total, heard, _ = Netsim.Record.heard_stats record in
  Printf.printf "-> %d blocks, %d txs, %.2f%% heard\n%!" record.n_blocks record.n_txs
    (100.0 *. float_of_int heard /. float_of_int (max 1 total));
  record

let print_outcomes (r : Core.Node.result) =
  let count o = List.length (List.filter (fun (t : Core.Node.tx_record) -> t.outcome = o) r.txs) in
  Printf.printf
    "outcomes: perfect=%d imperfect=%d missed=%d unheard=%d (of %d txs)\n"
    (count Core.Node.O_perfect) (count Core.Node.O_imperfect) (count Core.Node.O_missed)
    (count Core.Node.O_unheard) (List.length r.txs);
  Printf.printf "all %d block state roots validated.\n" (List.length r.blocks)

let run_term =
  let run seed duration rate policy validate jobs metrics metrics_json =
    with_metrics ~metrics ~metrics_json @@ fun () ->
    let record = simulate ~seed ~duration ~rate in
    let config = { Core.Node.default_config with validate_hits = validate; jobs } in
    let r = Core.Node.replay ~config ~policy record in
    print_outcomes r;
    (* per-kind table *)
    let kinds = Hashtbl.create 8 in
    List.iter
      (fun (t : Core.Node.tx_record) ->
        match t.kind with
        | Some k ->
          let name = Workload.Gen.kind_name k in
          let hit, total =
            Option.value ~default:(0, 0) (Hashtbl.find_opt kinds name)
          in
          let is_hit =
            t.outcome = Core.Node.O_perfect || t.outcome = Core.Node.O_imperfect
          in
          Hashtbl.replace kinds name ((hit + if is_hit then 1 else 0), total + 1)
        | None -> ())
      r.txs;
    Printf.printf "\n%-16s %10s %10s\n" "kind" "satisfied" "txs";
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) kinds []
    |> List.sort compare
    |> List.iter (fun (k, (hit, total)) ->
           Printf.printf "%-16s %9.1f%% %10d\n"
             k (100.0 *. float_of_int hit /. float_of_int (max 1 total)) total)
  in
  Term.(
    const run $ seed_arg $ duration_arg $ rate_arg $ policy_arg $ validate_arg
    $ jobs_arg ~default:1 $ metrics_arg $ metrics_json_arg)

let run_cmd =
  Cmd.v (Cmd.info "run" ~doc:"Simulate traffic and replay it under one policy.") run_term

let compare_cmd =
  let run seed duration rate jobs metrics metrics_json =
    with_metrics ~metrics ~metrics_json @@ fun () ->
    let record = simulate ~seed ~duration ~rate in
    let config = { Core.Node.default_config with jobs } in
    let baseline = Core.Node.replay ~policy:Core.Node.Baseline record in
    Printf.printf "%-15s %10s %12s %12s\n" "policy" "speedup" "e2e" "%satisfied";
    List.iter
      (fun policy ->
        let r =
          if policy = Core.Node.Baseline then baseline
          else Core.Node.replay ~config ~policy record
        in
        let s = Core.Metrics.summarize ~baseline r in
        Printf.printf "%-15s %9.2fx %11.2fx %11.2f%%\n%!" s.name s.effective_speedup
          s.e2e_speedup s.satisfied_pct)
      [ Core.Node.Baseline; Core.Node.Perfect_match; Core.Node.Perfect_multi;
        Core.Node.Forerunner ]
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Replay the same traffic under all four policies (Table 2).")
    Term.(
      const run $ seed_arg $ duration_arg $ rate_arg $ jobs_arg ~default:1 $ metrics_arg
      $ metrics_json_arg)

let contracts_cmd =
  let run () =
    List.iter
      (fun (name, code) ->
        Printf.printf "=== %s (%d bytes) ===\n%s\n" name (String.length code)
          (Evm.Asm.disassemble code))
      [ ("counter", Contracts.Counter.code); ("pricefeed", Contracts.Pricefeed.code);
        ("erc20", Contracts.Erc20.code); ("amm", Contracts.Amm.code);
        ("registry", Contracts.Registry.code); ("auction", Contracts.Auction.code);
        ("worker", Contracts.Worker.code) ]
  in
  Cmd.v
    (Cmd.info "contracts" ~doc:"Disassemble the bundled workload contracts.")
    Term.(const run $ const ())

(* --fork for the fuzzer: a fork name pins every generated scenario to that
   hardfork; "random" (the default) keeps the generator's per-scenario
   uniform draw over all forks. *)
let fork_names = String.concat ", " (List.map Spec.fork_name Spec.all_forks)

let fuzz_fork_conv =
  let parse = function
    | "random" -> Ok None
    | s -> (
      match Spec.fork_of_string s with
      | Some f -> Ok (Some f)
      | None ->
        Error (`Msg (Printf.sprintf "unknown fork %S (expected random or one of: %s)" s fork_names)))
  in
  let print ppf = function
    | None -> Fmt.string ppf "random"
    | Some f -> Fmt.string ppf (Spec.fork_name f)
  in
  Arg.conv (parse, print)

let fuzz_cmd =
  let iters_arg =
    Arg.(value & opt int 1000 & info [ "iters" ] ~docv:"N" ~doc:"Fuzzing iterations.")
  in
  let fork_arg =
    Arg.(
      value
      & opt fuzz_fork_conv None
      & info [ "fork" ] ~docv:"FORK"
          ~doc:
            (Printf.sprintf
               "Hardfork to fuzz under: one of %s, or $(b,random) (default) to draw a \
                fork per scenario — the N-fork differential matrix.  Unknown names are \
                a CLI error (exit 124); a divergence under any fork exits 1."
               fork_names))
  in
  let corpus_arg =
    Arg.(
      value & opt string "fuzz-corpus"
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "Counterexample corpus directory: existing entries are replayed as regression \
             tests before fuzzing, and new shrunk counterexamples are saved there.")
  in
  let mutate_arg =
    Arg.(
      value & flag
      & info [ "mutate" ]
          ~doc:
            "Intentionally mis-compile ADD in the AP executor (test-only fault injection) \
             to demonstrate that the differential oracle detects divergences.")
  in
  let run seed iters corpus fork mutate metrics metrics_json =
    with_metrics ~metrics ~metrics_json @@ fun () ->
    let fault = if mutate then Some Fuzz.Runner.Add else None in
    let r = Fuzz.Runner.sweep ~lanes:Fuzz.Runner.oracle ?fault ~corpus ~seed ~iters:0 () in
    if r.corpus_files > 0 then begin
      Printf.printf "corpus: replayed %d entries (fork-pinned once, unpinned under all %d \
                     forks), %d diverged\n%!"
        r.corpus_files Spec.n_forks
        (List.length r.corpus_failed + List.length r.corpus_errors);
      List.iter (fun (f, e) -> Printf.printf "  %s: %s\n" f e) r.corpus_errors;
      List.iter (fun f -> Fmt.pr "  %a@." Fuzz.Runner.pp_finding f) r.findings
    end;
    let corpus_broken = r.findings <> [] || r.corpus_errors <> [] in
    Printf.printf "fuzzing: %d iterations, seed %d, fork %s%s\n%!" iters seed
      (match fork with None -> "random" | Some f -> Spec.fork_name f)
      (if mutate then " [AP EXECUTOR MUTATED]" else "");
    let s = Fuzz.Driver.fuzz ~corpus_dir:corpus ?fork ?fault ~seed ~iters () in
    let t = s.tally in
    Printf.printf
      "ran %d iterations: %d txs, %d build fallbacks, %d perturbed violations, %d perturbed \
       hits, %d warm-built cold-replay violations\n%!"
      s.iters_run t.txs t.fallbacks t.perturbed_violations t.perturbed_hits t.warm_violations;
    match s.counterexample with
    | None ->
      Printf.printf "no divergences: EVM, S-EVM replay and AP fast path agree.\n%!";
      if corpus_broken then exit 1
    | Some f ->
      Printf.printf "DIVERGENCE at iteration %d (scenario size %d, shrunk to %d):\n%!" f.iter
        (Fuzz.Scenario.size f.original) (Fuzz.Scenario.size f.scenario);
      List.iter (fun d -> Fmt.pr "  %a@." Fuzz.Runner.pp_finding d) f.findings;
      (match f.file with
      | Some file -> Printf.printf "shrunk counterexample saved to %s\n%!" file
      | None -> ());
      print_string (Fuzz.Scenario.to_string f.scenario);
      exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential conformance fuzzing: random contracts and tx batches executed by the \
          EVM interpreter, S-EVM trace replay, and the AP fast path must agree on receipts, \
          state roots and touched accounts — under a random hardfork per scenario (or one \
          pinned with --fork).")
    Term.(
      const run $ seed_arg $ iters_arg $ corpus_arg $ fork_arg $ mutate_arg $ metrics_arg
      $ metrics_json_arg)

let check_cmd =
  let iters_arg =
    Arg.(
      value & opt int 25
      & info [ "iters" ] ~docv:"N"
          ~doc:"Generated scenarios to verify on top of the corpus (seeded, reproducible).")
  in
  let corpus_arg =
    Arg.(
      value & opt string "test/corpus"
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:"Directory of s-expression scenarios; every AP built from them is verified.")
  in
  let mutate_arg =
    Arg.(
      value
      & opt
          (some (enum [ ("add", Fuzz.Runner.Add); ("drop-guard", Fuzz.Runner.Drop_guard) ]))
          None
      & info [ "mutate" ] ~docv:"KIND"
          ~doc:
            "Seed a miscompilation before verifying: $(b,add) miscompiles ADD in the AP \
             executor (the memo-soundness checker must reject), $(b,drop-guard) removes \
             the first guard from every built path (the guard-coverage checker must \
             reject).  Exits 0 iff the matching checker rejected.")
  in
  let run seed iters corpus mutate metrics metrics_json =
    with_metrics ~metrics ~metrics_json @@ fun () ->
    let r =
      Fuzz.Runner.sweep ~lanes:[ Fuzz.Runner.Verifier ] ?fault:mutate ~corpus ~seed ~iters ()
    in
    List.iter (fun (f, e) -> Printf.printf "corpus error: %s: %s\n" f e) r.corpus_errors;
    let t = r.tally in
    Printf.printf
      "verified %d programs (%d linear paths) from %d corpus entries + %d generated \
       scenarios; %d builder fallbacks%s\n%!"
      t.programs t.programs r.corpus_files iters t.fallbacks
      (match mutate with
      | None -> ""
      | Some m ->
        Printf.sprintf "; mutation %s in effect on %d" (Fuzz.Runner.fault_name m) t.mutated);
    let shown = 12 in
    List.iteri (fun i f -> if i < shown then Fmt.pr "  %a@." Fuzz.Runner.pp_finding f) r.findings;
    if List.length r.findings > shown then
      Printf.printf "  ... and %d more\n" (List.length r.findings - shown);
    let corpus_broken = r.corpus_errors <> [] in
    match mutate with
    | None ->
      if r.findings = [] && not corpus_broken then
        Printf.printf
          "all programs verify: def-before-use, rollback-freedom, guard coverage, memo \
           soundness, well-formedness.\n\
           %!"
      else begin
        Printf.printf "%d violation(s)\n" (List.length r.findings);
        exit 1
      end
    | Some m ->
      (* the verifier kind the fault's rejection contract names *)
      let kind = Option.get (List.assoc Fuzz.Runner.Verifier (Fuzz.Runner.rejected_by m)) in
      let hits = List.filter (Fuzz.Runner.rejects (Fuzz.Runner.Verifier, Some kind)) r.findings in
      if hits = [] || corpus_broken then begin
        Printf.printf "mutation %s NOT rejected: no %s violation reported\n"
          (Fuzz.Runner.fault_name m) kind;
        exit 1
      end
      else
        Printf.printf "mutation %s rejected: %d %s violation(s) with path-level diagnostics\n%!"
          (Fuzz.Runner.fault_name m) (List.length hits) kind
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Statically verify Accelerated Programs: build an AP for every corpus and \
          generated scenario transaction and prove the fast-path invariants \
          (def-before-use, rollback-freedom, guard coverage, memo soundness, \
          well-formedness) instead of sampling for them.  Violations name the path \
          through the program DAG and the offending instruction.")
    Term.(
      const run $ seed_arg $ iters_arg $ corpus_arg $ mutate_arg $ metrics_arg
      $ metrics_json_arg)

let analyze_cmd =
  let iters_arg =
    Arg.(
      value & opt int 25
      & info [ "iters" ] ~docv:"N"
          ~doc:
            "Generated scenarios per hardfork to sweep on top of the corpus and the \
             built-in sentinels (seeded, reproducible).")
  in
  let corpus_arg =
    Arg.(
      value & opt string "test/corpus"
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:"Directory of s-expression scenarios to check the footprints on.")
  in
  let mutate_arg =
    let narrow_conv =
      let parse s =
        match Bca.narrowing_of_string s with
        | Some n -> Ok n
        | None ->
          Error (`Msg (Printf.sprintf "unknown narrowing %S (cfg, stack, footprint, calldata)" s))
      in
      Arg.conv (parse, fun ppf n -> Fmt.string ppf (Bca.narrowing_name n))
    in
    Arg.(
      value
      & opt (some narrow_conv) None
      & info [ "mutate" ] ~docv:"DOMAIN"
          ~doc:
            "Seed an unsound narrowing of one analysis domain ($(b,cfg) drops JUMPI taken \
             edges, $(b,stack) corrupts DUP constant propagation, $(b,footprint) ignores \
             SSTORE, $(b,calldata) claims calldata never reaches control flow) before \
             sweeping.  The oracle must then report violations, so the run exits nonzero \
             — the rejection contract.")
  in
  let run seed iters corpus narrow metrics metrics_json =
    with_metrics ~metrics ~metrics_json @@ fun () ->
    let r =
      Fuzz.Runner.sweep ~lanes:[ Fuzz.Runner.Footprint ]
        ?fault:(Option.map (fun n -> Fuzz.Runner.Narrow n) narrow)
        ~corpus ~seed ~iters ()
    in
    List.iter (fun (f, e) -> Printf.printf "corpus error: %s: %s\n" f e) r.corpus_errors;
    let s = r.tally in
    Printf.printf
      "analyzed %d scenarios (%d corpus entries + sentinels + %d generated per fork x %d \
       forks), %d txs%s\n\
       footprint coverage: %d runtime touches, %d committed changes, %d wild predictions\n\
       calldata witnesses: %d flip re-executions\n%!"
      s.scenarios r.corpus_files iters Spec.n_forks s.txs
      (match narrow with
      | None -> ""
      | Some n -> Printf.sprintf "; narrowing %s SEEDED" (Bca.narrowing_name n))
      s.touches s.changes s.wild s.flips;
    let shown = 12 in
    List.iteri (fun i f -> if i < shown then Fmt.pr "  %a@." Fuzz.Runner.pp_finding f) r.findings;
    if List.length r.findings > shown then
      Printf.printf "  ... and %d more\n" (List.length r.findings - shown);
    let nv = List.length r.findings in
    match narrow with
    | None ->
      if nv = 0 && r.corpus_errors = [] then
        Printf.printf
          "all footprints sound: static analysis ⊇ runtime touch log on every execution.\n%!"
      else begin
        Printf.printf "%d violation(s)\n" nv;
        exit 1
      end
    | Some n ->
      if nv = 0 then
        Printf.printf "narrowing %s produced no violation — the oracle missed it.\n%!"
          (Bca.narrowing_name n)
      else begin
        Printf.printf
          "narrowing %s caught: %d violation(s); exiting nonzero per the rejection \
           contract.\n%!"
          (Bca.narrowing_name n) nv;
        exit 1
      end
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Check lib/bca's static bytecode analysis against real executions: every runtime \
          state touch and committed change must lie inside the per-transaction static \
          footprint, and every calldata-independence claim must survive a witness flip.  \
          --mutate seeds an unsound narrowing the sweep must catch.")
    Term.(
      const run $ seed_arg $ iters_arg $ corpus_arg $ mutate_arg $ metrics_arg
      $ metrics_json_arg)

let main =
  (* no subcommand defaults to [run], so
     [forerunner --metrics-json out.json] measures the default workload *)
  Cmd.group ~default:run_term
    (Cmd.info "forerunner" ~version:"1.0.0"
       ~doc:"Constraint-based speculative transaction execution (SOSP'21) in OCaml.")
    [ run_cmd; compare_cmd; contracts_cmd; fuzz_cmd; check_cmd; analyze_cmd ]

let () = exit (Cmd.eval main)
