(* Command-line front end: simulate DiCE traffic, replay it under any
   execution policy, inspect per-kind outcomes, disassemble the bundled
   contracts, or fuzz the fast path and seed the faults its defences must
   reject.

     forerunner run --seed 7 --duration 300 --policy forerunner
     forerunner compare --dataset L1 --duration 60
     forerunner contracts
     forerunner fuzz --iters 1000 --seed 42
     forerunner fuzz --fault add --iters 0 *)

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

let seed_info = Arg.info [ "seed" ] ~docv:"SEED" ~doc:"Traffic random seed."
let duration_info = Arg.info [ "duration" ] ~docv:"SECONDS" ~doc:"Simulated traffic duration."
let rate_info = Arg.info [ "rate" ] ~docv:"TPS" ~doc:"Transaction rate per second."
let seed_arg = Arg.(value & opt int 1 & seed_info)
let duration_arg = Arg.(value & opt float 300.0 & duration_info)
let rate_arg = Arg.(value & opt float 12.0 & rate_info)

(* The evaluation datasets of the paper's Table 1 as simulator presets: L1
   is the long period the single-dataset figures use; R2-R5 vary seed,
   traffic mix, rate and network conditions.  (The paper's R1 replays L1's
   traffic; here it would be L1's parameters under another tag.) *)
let datasets =
  let base = Netsim.Sim.default_params in
  [ ("L1", { base with seed = 101; duration = 450.0 });
    ("R2", { base with seed = 202; duration = 240.0; tx_rate = 9.0 });
    ("R3", { base with seed = 303; duration = 240.0; mix = Workload.Gen.defi_mix; tx_rate = 10.0 });
    ( "R4",
      { base with seed = 404; duration = 240.0; tx_rate = 6.0; n_miners = 20; gossip_delay_mean = 0.9 }
    );
    ( "R5",
      {
        base with
        seed = 505;
        duration = 240.0;
        tx_rate = 15.0;
        p_never_heard = 0.015;
        observer_delay_mean = 0.4;
      } ) ]

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
          "Speculation domains. 1 runs every speculation inline (the \
           deterministic sequential pipeline); N>1 runs the speculations pending at \
           each tick and block on up to N OCaml domains, the extra ones spawned for \
           that batch only, applying the same results at the same events as 1.")

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

let simulate (params : Netsim.Sim.params) =
  Printf.printf "simulating %.0fs of traffic (seed %d, %.0f tx/s)...\n%!" params.duration
    params.seed params.tx_rate;
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
    let record =
      simulate { Netsim.Sim.default_params with seed; duration; tx_rate = rate }
    in
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
  let dataset_arg =
    Arg.(
      value
      & opt (some (enum (List.map (fun (tag, p) -> (tag, (tag, p))) datasets))) None
      & info [ "dataset" ] ~docv:"TAG"
          ~doc:
            "Simulate one of the paper's Table 1 datasets: $(b,L1), $(b,R2), $(b,R3), \
             $(b,R4) or $(b,R5).  An explicit --seed, --duration or --rate overrides that \
             field of the preset.  Without a preset the record is seed 1, 300 s at 12 tx/s.")
  in
  let run dataset seed duration rate jobs metrics metrics_json =
    with_metrics ~metrics ~metrics_json @@ fun () ->
    let tag, (preset : Netsim.Sim.params) =
      match dataset with
      | Some d -> d
      | None -> ("-", { Netsim.Sim.default_params with seed = 1; duration = 300.0 })
    in
    let record =
      simulate
        {
          preset with
          seed = Option.value seed ~default:preset.seed;
          duration = Option.value duration ~default:preset.duration;
          tx_rate = Option.value rate ~default:preset.tx_rate;
        }
    in
    let config = { Core.Node.default_config with jobs } in
    let replay config policy = Core.Node.replay ~config ~policy record in
    let baseline = Core.Node.replay ~policy:Core.Node.Baseline record in
    let perfect = replay config Core.Node.Perfect_match in
    let perfect_multi = replay config Core.Node.Perfect_multi in
    let forerunner = replay config Core.Node.Forerunner in
    let ppf = Format.std_formatter in
    Core.Metrics.pp_table1 ppf ~tag record ~baseline;
    Core.Metrics.pp_fig11 ppf record;
    Core.Metrics.pp_table2 ppf ~baseline [ perfect; perfect_multi; forerunner ];
    Core.Metrics.pp_table3 ppf ~baseline forerunner;
    Core.Metrics.pp_fig12 ppf ~baseline forerunner;
    Core.Metrics.pp_fig13 ppf ~baseline forerunner;
    Core.Metrics.pp_fig15 ppf forerunner;
    Core.Metrics.pp_sec55 ppf forerunner;
    Core.Metrics.pp_sec56 ppf forerunner;
    Core.Metrics.pp_ablation ppf ~baseline
      [ ("forerunner (full)", forerunner);
        ("  - memoization", replay { config with use_memos = false } Core.Node.Forerunner);
        ("  - prefetching", replay { config with prefetch = false } Core.Node.Forerunner);
        ( "  - multi-future (1 ctx)",
          replay { Core.Node.single_future_config with jobs } Core.Node.Forerunner );
        ("  - constraints (perfect)", perfect_multi) ]
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:
         "Replay the same traffic under all four policies and print the paper's \
          evaluation: Table 1's row, Figs. 11-13 and 15, Tables 2 and 3, Sec. 5.5, 5.6 \
          and the ablations.")
    Term.(
      const run $ dataset_arg
      $ Arg.(value & opt (some int) None & seed_info)
      $ Arg.(value & opt (some float) None & duration_info)
      $ Arg.(value & opt (some float) None & rate_info)
      $ jobs_arg ~default:1 $ metrics_arg $ metrics_json_arg)

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
    Arg.(
      value & opt int 1000
      & info [ "iters" ] ~docv:"N"
          ~doc:
            "Generated scenarios after the corpus (seeded, reproducible).  A fault run \
             sweeping the footprint lane generates $(docv) per hardfork.")
  in
  let corpus_arg =
    Arg.(
      value & opt string "test/corpus"
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "Counterexample corpus directory: every entry is replayed first (fanned out \
             across forks), and a clean run saves its shrunk counterexample there.")
  in
  let fork_arg =
    Arg.(
      value
      & opt fuzz_fork_conv None
      & info [ "fork" ] ~docv:"FORK"
          ~doc:
            (Printf.sprintf
               "Hardfork for a clean run's generated scenarios: one of %s, or \
                $(b,random) (default) to draw a fork per scenario.  A fault run follows \
                the sweep's own fork rule."
               fork_names))
  in
  let fault_arg =
    Arg.(
      value
      & opt
          (some
             (enum (List.map (fun f -> (Fuzz.Runner.fault_name f, f)) Fuzz.Runner.faults)))
          None
      & info [ "fault" ] ~docv:"NAME"
          ~doc:
            "Seed one fault and sweep the lanes its rejection contract names: $(b,add) \
             miscompiles ADD in the AP executor (the AP lane and the verifier's memo \
             soundness must reject), $(b,drop-guard) removes the first guard of every \
             built path (guard coverage must reject), $(b,cfg), $(b,stack), \
             $(b,footprint) and $(b,calldata) narrow one static-analysis domain (the \
             footprint lane must reject).  Nothing is shrunk or saved.")
  in
  let print_findings fs =
    let shown = 12 in
    List.iteri (fun i f -> if i < shown then Fmt.pr "  %a@." Fuzz.Runner.pp_finding f) fs;
    if List.length fs > shown then Printf.printf "  ... and %d more\n" (List.length fs - shown)
  in
  (* the sweep's verdict: print its lines, or its reason and exit 1 *)
  let judge ~lanes fault (r : Fuzz.Runner.sweep_result) =
    List.iter (fun (f, e) -> Printf.printf "corpus error: %s: %s\n" f e) r.corpus_errors;
    match Fuzz.Runner.verdict ~lanes fault r with
    | Ok lines -> List.iter print_endline lines
    | Error e ->
      print_findings r.findings;
      print_endline e;
      exit 1
  in
  let run seed iters corpus fork fault metrics metrics_json =
    with_metrics ~metrics ~metrics_json @@ fun () ->
    match fault with
    | Some fault ->
      let lanes = List.sort_uniq compare (List.map fst (Fuzz.Runner.rejected_by fault)) in
      let r = Fuzz.Runner.sweep ~lanes ~fault ~corpus ~seed ~iters () in
      let t = r.tally in
      Printf.printf
        "fault %s: swept %d scenarios from %d corpus entries and --iters %d (seed %d), %d \
         txs; %d finding(s) in lanes %s\n%!"
        (Fuzz.Runner.fault_name fault) t.scenarios r.corpus_files iters seed t.txs
        (List.length r.findings)
        (String.concat ", " (List.map Fuzz.Runner.lane_name lanes));
      judge ~lanes (Some fault) r
    | None ->
      let lanes = Fuzz.Runner.oracle @ [ Fuzz.Runner.Footprint ] in
      let r = Fuzz.Runner.sweep ~lanes ~corpus ~seed ~iters:0 () in
      Printf.printf
        "corpus: replayed %d entries (fork-pinned once, unpinned under all %d forks) and \
         %d footprint sentinels\n%!"
        r.corpus_files Spec.n_forks (List.length Fuzz.Runner.sentinels);
      judge ~lanes None r;
      Printf.printf "fuzzing: %d iterations, seed %d, fork %s\n%!" iters seed
        (match fork with None -> "random" | Some f -> Spec.fork_name f);
      let s = Fuzz.Driver.fuzz ~corpus_dir:corpus ?fork ~lanes ~seed ~iters () in
      let t = s.tally in
      Printf.printf
        "ran %d iterations: %d txs, %d build fallbacks, %d perturbed violations, %d perturbed \
         hits, %d warm-built cold-replay violations, %d footprint touches\n%!"
        s.iters_run t.txs t.fallbacks t.perturbed_violations t.perturbed_hits
        t.warm_violations t.touches;
      (match s.counterexample with
      | None ->
        print_endline
          "no divergences: EVM, S-EVM replay and AP fast path agree, every AP verifies, \
           and static footprints cover every runtime touch."
      | Some f ->
        Printf.printf "DIVERGENCE at iteration %d (scenario size %d, shrunk to %d):\n%!"
          f.iter (Fuzz.Scenario.size f.original) (Fuzz.Scenario.size f.scenario);
        List.iter (fun d -> Fmt.pr "  %a@." Fuzz.Runner.pp_finding d) f.findings;
        Option.iter (Printf.printf "shrunk counterexample saved to %s\n") f.file;
        print_string (Fuzz.Scenario.to_string f.scenario);
        exit 1)
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential conformance fuzzing and the seeded-fault rejection contract.  A \
          clean run replays the corpus, then fuzzes generated scenarios: the EVM \
          interpreter, S-EVM trace replay and the AP fast path must agree on receipts, \
          state roots and touched accounts, every AP must pass the static verifier, and \
          every runtime touch must lie inside lib/bca's static footprint.  With --fault \
          the named lanes must reject the seeded fault instead.  Exits 0 iff every \
          defence did its job.")
    Term.(
      const run $ seed_arg $ iters_arg $ corpus_arg $ fork_arg $ fault_arg $ metrics_arg
      $ metrics_json_arg)

let main =
  (* no subcommand defaults to [run], so
     [forerunner --metrics-json out.json] measures the default workload *)
  Cmd.group ~default:run_term
    (Cmd.info "forerunner" ~version:"1.0.0"
       ~doc:"Constraint-based speculative transaction execution (SOSP'21) in OCaml.")
    [ run_cmd; compare_cmd; contracts_cmd; fuzz_cmd ]

let () = exit (Cmd.eval main)
