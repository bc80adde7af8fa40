(* Forerunner-core tests: predictor behaviour, perfect-match execution, and
   full node replays under every policy — including a validated run where
   every AP hit is cross-checked against the EVM. *)

open State

let t name f = Alcotest.test_case name `Quick f
let u = U256.of_int

let mk ?(sender = Address.of_int 0xA11CE) ?(nonce = 0) ?(price = 100) to_ : Evm.Env.tx =
  {
    sender;
    to_ = Some to_;
    nonce;
    value = U256.zero;
    data = "";
    gas_limit = 21_000;
    gas_price = u (price * 1_000_000_000);
  }

let pend ?(heard = 1.0) tx : Core.Predictor.pending =
  { tx; hash = Evm.Env.tx_hash tx; heard_at = heard }

let header ~n ~ts ~cb : Chain.Block.header =
  {
    number = n;
    parent_hash = "";
    coinbase = cb;
    timestamp = ts;
    gas_limit = 12_000_000;
    difficulty = u 1;
    state_root = "";
    tx_root = "";
  }

let predictor_tests =
  [ t "observes intervals and coinbase frequencies" (fun () ->
        let p = Core.Predictor.create ~seed:1 in
        let cb1 = Address.of_int 1 and cb2 = Address.of_int 2 in
        Core.Predictor.observe_block p { header = header ~n:1L ~ts:100L ~cb:cb1; txs = [] };
        Core.Predictor.observe_block p { header = header ~n:2L ~ts:110L ~cb:cb1; txs = [] };
        Core.Predictor.observe_block p { header = header ~n:3L ~ts:124L ~cb:cb2; txs = [] };
        Alcotest.(check int) "mean interval" 12 (Core.Predictor.mean_interval p);
        Alcotest.(check bool) "most frequent miner first" true
          (Address.equal (List.hd (Core.Predictor.top_coinbases p ~n:2)) cb1));
    t "predicted envs advance the head" (fun () ->
        let p = Core.Predictor.create ~seed:1 in
        Core.Predictor.observe_block p
          { header = header ~n:7L ~ts:1000L ~cb:(Address.of_int 1); txs = [] };
        let envs = Core.Predictor.predict_envs p ~n:4 in
        Alcotest.(check int) "requested count" 4 (List.length envs);
        List.iter
          (fun (e : Evm.Env.block_env) ->
            Alcotest.(check int64) "next number" 8L e.number;
            Alcotest.(check bool) "future timestamp" true (e.timestamp > 1000L))
          envs);
    t "dependency group: same sender lower nonce is required" (fun () ->
        let s = Address.of_int 0xF00 in
        let target = mk ~sender:s ~nonce:2 (Address.of_int 1) in
        let dep0 = pend (mk ~sender:s ~nonce:0 (Address.of_int 9)) in
        let dep1 = pend (mk ~sender:s ~nonce:1 ~price:1 (Address.of_int 9)) in
        let other = pend (mk ~sender:(Address.of_int 0xF01) (Address.of_int 8)) in
        let required, _ =
          Core.Predictor.dependency_group
            ~pool:[ dep0; dep1; other ]
            ~tx_hash:(Evm.Env.tx_hash target) target
        in
        Alcotest.(check int) "both nonces required" 2 (List.length required));
    t "dependency group: same receiver with lower price excluded" (fun () ->
        let to_ = Address.of_int 0xCC in
        let target = mk ~price:100 to_ in
        let cheap = pend (mk ~sender:(Address.of_int 2) ~price:50 to_) in
        let rich = pend (mk ~sender:(Address.of_int 3) ~price:150 to_) in
        let required, optional =
          Core.Predictor.dependency_group ~pool:[ cheap; rich ]
            ~tx_hash:(Evm.Env.tx_hash target) target
        in
        Alcotest.(check int) "no required" 0 (List.length required);
        Alcotest.(check int) "one optional" 1 (List.length optional));
    t "orderings are deduped and nonce-sorted" (fun () ->
        let p = Core.Predictor.create ~seed:1 in
        let s = Address.of_int 0xF00 in
        let req =
          [ pend (mk ~sender:s ~nonce:1 (Address.of_int 9));
            pend (mk ~sender:s ~nonce:0 (Address.of_int 9)) ]
        in
        let ords = Core.Predictor.orderings p ~required:req ~optional:[] ~n:4 in
        (* with no optional txs every candidate collapses to one ordering *)
        Alcotest.(check int) "single ordering" 1 (List.length ords);
        match ords with
        | [ [ tx0; tx1 ] ] ->
          Alcotest.(check int) "nonce 0 first" 0 tx0.nonce;
          Alcotest.(check int) "nonce 1 second" 1 tx1.nonce
        | _ -> Alcotest.fail "expected one ordering of two txs");
    t "contexts are capped" (fun () ->
        let p = Core.Predictor.create ~seed:1 in
        Core.Predictor.observe_block p
          { header = header ~n:1L ~ts:50L ~cb:(Address.of_int 1); txs = [] };
        let target = mk (Address.of_int 5) in
        let ctxs =
          Core.Predictor.contexts p ~pool:[] ~max_contexts:3
            ~tx_hash:(Evm.Env.tx_hash target) target
        in
        Alcotest.(check bool) "within cap" true (List.length ctxs <= 3 && List.length ctxs > 0))
  ]

let perfect_tests =
  (* a contract that stores COINBASE: the miner identity is real context
     here, so perfect matching must NOT exempt the read *)
  let cb_reader = Address.of_int 0xCBCB in
  let cb_code =
    let open Evm.Asm in
    assemble [ op Evm.Op.COINBASE; push_int 0; op Evm.Op.SSTORE; op Evm.Op.STOP ]
  in
  let benv ~cb : Evm.Env.block_env =
    {
      coinbase = cb;
      timestamp = 1_600_000_000L;
      number = 5L;
      difficulty = u 1;
      gas_limit = 12_000_000;
      chain_id = 1;
      block_hash = (fun _ -> U256.zero);
    }
  in
  let setup () =
    let bk = Statedb.Backend.create () in
    let st = Statedb.create bk ~root:Statedb.empty_root in
    let alice = Address.of_int 0xA11CE in
    Statedb.set_balance st alice (U256.of_string "1000000000000000000");
    Statedb.set_code st cb_reader cb_code;
    let root = Statedb.commit st in
    let tx : Evm.Env.tx =
      { sender = alice; to_ = Some cb_reader; nonce = 0; value = U256.zero; data = "";
        gas_limit = 100_000; gas_price = u 1 }
    in
    (bk, root, tx)
  in
  let build bk root env tx =
    let st = Statedb.create bk ~root in
    let snap = Statedb.snapshot st in
    let sink, get = Evm.Trace.collector () in
    let receipt = Evm.Processor.execute_tx ~trace:sink st env tx in
    Statedb.revert st snap;
    match Sevm.Builder.build tx env (get ()) receipt st with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  [ t "perfect matching exempts only the fee coinbase read" (fun () ->
        let bk, root, tx = setup () in
        let env_a = benv ~cb:(Address.of_int 0xAAAA) in
        let path = build bk root env_a tx in
        (* same coinbase: perfect commit succeeds *)
        let st1 = Statedb.create bk ~root in
        Alcotest.(check bool) "same miner matches" true
          (Core.Perfect.try_path path st1 env_a tx <> None);
        (* different coinbase: the contract READ it, so no perfect match *)
        let st2 = Statedb.create bk ~root in
        Alcotest.(check bool) "different miner rejected" true
          (Core.Perfect.try_path path st2 (benv ~cb:(Address.of_int 0xBBBB)) tx = None));
    t "fee-only coinbase read is exempt" (fun () ->
        let bk, root, _ = setup () in
        (* plain transfer: the only coinbase use is the fee payment *)
        let tx : Evm.Env.tx =
          { sender = Address.of_int 0xA11CE; to_ = Some (Address.of_int 0xD1); nonce = 0;
            value = u 5; data = ""; gas_limit = 30_000; gas_price = u 1 }
        in
        let env_a = benv ~cb:(Address.of_int 0xAAAA) in
        let path = build bk root env_a tx in
        let env_b = benv ~cb:(Address.of_int 0xBBBB) in
        let st = Statedb.create bk ~root in
        match Core.Perfect.try_path path st env_b tx with
        | Some r ->
          Alcotest.(check int) "gas" 21_000 r.gas_used;
          (* the fee landed on the ACTUAL miner *)
          Alcotest.(check bool) "actual miner paid" true
            (U256.equal (Statedb.get_balance st (Address.of_int 0xBBBB)) (u 21_000))
        | None -> Alcotest.fail "expected perfect commit")
  ]

(* ---- node replays ---- *)

let small_record =
  lazy
    (Netsim.Sim.run
       ~params:
         { Netsim.Sim.default_params with duration = 80.0; tx_rate = 7.0; seed = 77; n_users = 80 }
       ())

let replay policy =
  Core.Node.replay ~policy (Lazy.force small_record)

let node_tests =
  [ t "baseline replay validates every state root" (fun () ->
        let r = replay Core.Node.Baseline in
        Alcotest.(check bool) "has blocks" true (List.length r.blocks > 0);
        List.iter
          (fun (b : Core.Node.block_record) ->
            Alcotest.(check bool) "root ok" true b.root_ok)
          r.blocks);
    t "forerunner replay validates and accelerates" (fun () ->
        let r = replay Core.Node.Forerunner in
        List.iter
          (fun (b : Core.Node.block_record) -> Alcotest.(check bool) "root ok" true b.root_ok)
          r.blocks;
        let hits =
          List.length
            (List.filter
               (fun (t : Core.Node.tx_record) ->
                 t.outcome = Core.Node.O_perfect || t.outcome = Core.Node.O_imperfect)
               r.txs)
        in
        let heard =
          List.length (List.filter (fun (t : Core.Node.tx_record) -> t.heard) r.txs)
        in
        Alcotest.(check bool) "most heard txs hit" true
          (float_of_int hits > 0.7 *. float_of_int heard));
    t "validated run: every AP hit agrees with the EVM" (fun () ->
        let config = { Core.Node.default_config with validate_hits = true } in
        let r = Core.Node.replay ~config ~policy:Core.Node.Forerunner (Lazy.force small_record) in
        (* replay itself raises if any hit diverges; roots checked too *)
        Alcotest.(check bool) "completed" true (List.length r.txs > 0));
    t "perfect policies also validate roots" (fun () ->
        List.iter
          (fun policy ->
            let r = replay policy in
            List.iter
              (fun (b : Core.Node.block_record) -> Alcotest.(check bool) "root ok" true b.root_ok)
              r.blocks)
          [ Core.Node.Perfect_match; Core.Node.Perfect_multi ]);
    t "policies execute the same transactions" (fun () ->
        let b = replay Core.Node.Baseline and f = replay Core.Node.Forerunner in
        Alcotest.(check int) "same count" (List.length b.txs) (List.length f.txs);
        List.iter2
          (fun (x : Core.Node.tx_record) (y : Core.Node.tx_record) ->
            Alcotest.(check string) "same order" (Khash.Keccak.to_hex x.hash)
              (Khash.Keccak.to_hex y.hash);
            Alcotest.(check int) "same gas" x.gas_used y.gas_used)
          b.txs f.txs);
    t "unheard txs are marked unheard" (fun () ->
        let r = replay Core.Node.Forerunner in
        let unheard = List.filter (fun (t : Core.Node.tx_record) -> not t.heard) r.txs in
        List.iter
          (fun (t : Core.Node.tx_record) ->
            Alcotest.(check bool) "outcome unheard" true (t.outcome = Core.Node.O_unheard))
          unheard);
    t "metrics join and summarize" (fun () ->
        let b = replay Core.Node.Baseline and f = replay Core.Node.Forerunner in
        let s = Core.Metrics.summarize ~baseline:b f in
        Alcotest.(check bool) "speedup > 1" true (s.effective_speedup > 1.0);
        Alcotest.(check bool) "satisfied > 50%" true (s.satisfied_pct > 50.0);
        let rows = Core.Metrics.outcome_breakdown ~baseline:b f in
        let total = List.fold_left (fun acc (r : Core.Metrics.outcome_row) -> acc +. r.tx_pct) 0.0 rows in
        Alcotest.(check bool) "percentages sum to ~100" true (total > 99.0 && total < 101.0));
    t "ablation configs still validate and run" (fun () ->
        List.iter
          (fun config ->
            let r =
              Core.Node.replay ~config ~policy:Core.Node.Forerunner (Lazy.force small_record)
            in
            List.iter
              (fun (b : Core.Node.block_record) -> Alcotest.(check bool) "root ok" true b.root_ok)
              r.blocks)
          [ { Core.Node.default_config with use_memos = false };
            { Core.Node.default_config with prefetch = false };
            Core.Node.single_future_config ]);
    t "synthesis report percentages are sane" (fun () ->
        let f = replay Core.Node.Forerunner in
        let s = Core.Metrics.synthesis_report f in
        Alcotest.(check bool) "paths built" true (s.n_paths > 0);
        Alcotest.(check bool) "AP smaller than trace" true (s.pct_ap < 100.0);
        Alcotest.(check bool) "constraint+fast = ap" true
          (abs_float (s.pct_constraint +. s.pct_fastpath -. s.pct_ap) < 0.01))
  ]

(* ---- metrics regressions ---- *)

(* A hand-built replay result with one transaction executed both on the
   canonical chain and again on a fork branch: §5.5 statistics must count
   the canonical execution only. *)
let metrics_tests =
  let txr ?(canonical = true) ~hash ~executed ~skipped ~paths () : Core.Node.tx_record =
    {
      hash;
      kind = None;
      gas_used = 21_000;
      heard = true;
      outcome = Core.Node.O_imperfect;
      exec_ns = 1_000;
      instrs_executed = executed;
      instrs_skipped = skipped;
      ap_paths = paths;
      ap_futures = 1;
      ap_contexts = 1;
      ap_shortcuts = 2;
      block_number = 1L;
      canonical;
    }
  in
  let result txs : Core.Node.result =
    {
      policy = Core.Node.Forerunner;
      txs;
      blocks = [];
      spec_total_ns = 0;
      spec_base_exec_ns = 0;
      spec_contexts = 0;
      spec_build_errors = 0;
      reorgs = 0;
      fork_blocks = 1;
      synth = Core.Speculator.empty_acc ();
      sched = Sched.empty_stats;
      apstore = None;
    }
  in
  [ t "ap_shape counts canonical executions only" (fun () ->
        let run =
          result
            [ txr ~hash:"aa" ~executed:50 ~skipped:50 ~paths:1 ();
              (* the same traffic re-executed on a fork branch, with a very
                 different shape: must not influence the statistics *)
              txr ~canonical:false ~hash:"aa" ~executed:0 ~skipped:100 ~paths:2 ();
              txr ~canonical:false ~hash:"bb" ~executed:0 ~skipped:100 ~paths:2 () ]
        in
        let s = Core.Metrics.ap_shape run in
        Alcotest.(check (float 0.001)) "skip%% from the canonical tx alone" 50.0 s.skip_pct;
        Alcotest.(check (float 0.001)) "single-path share" 100.0 s.paths_1;
        Alcotest.(check (float 0.001)) "no two-path txs" 0.0 s.paths_2;
        Alcotest.(check (float 0.001)) "shortcut average over canonical heard" 2.0
          s.avg_shortcuts);
    t "ap_shape on a forked replay stays within bounds" (fun () ->
        let params =
          { Netsim.Sim.default_params with
            duration = 200.0; tx_rate = 4.0; seed = 99; p_fork = 0.5; n_users = 60 }
        in
        let record = Netsim.Sim.run ~params () in
        let r = Core.Node.replay ~policy:Core.Node.Forerunner record in
        Alcotest.(check bool) "record has fork blocks" true (r.fork_blocks > 0);
        let s = Core.Metrics.ap_shape r in
        Alcotest.(check bool) "skip%% within [0,100]" true
          (s.skip_pct >= 0.0 && s.skip_pct <= 100.0);
        let shares = s.paths_1 +. s.paths_2 +. s.paths_3 +. s.paths_more in
        Alcotest.(check bool) "path shares sum to ~100" true
          (shares > 99.0 && shares < 101.0));
    t "heard_delay_rcdf is monotone and matches a linear scan" (fun () ->
        let record = Lazy.force small_record in
        let points = [ 0; 1; 2; 4; 8; 16; 32 ] in
        let rcdf = Core.Metrics.heard_delay_rcdf record ~points in
        let _, _, delays = Netsim.Record.heard_stats record in
        let n = List.length delays in
        List.iter
          (fun (x, p) ->
            (* reference: brute-force count of delays above the threshold *)
            let above =
              List.length (List.filter (fun d -> d > float_of_int x) delays)
            in
            let expect = 100.0 *. float_of_int above /. float_of_int (max 1 n) in
            Alcotest.(check (float 0.0001)) (Printf.sprintf "point %d" x) expect p)
          rcdf;
        let rec monotone = function
          | (_, a) :: ((_, b) :: _ as rest) -> a >= b && monotone rest
          | [ _ ] | [] -> true
        in
        Alcotest.(check bool) "reverse CDF decreases" true (monotone rcdf))
  ]

(* ---- the report path: one Core.Metrics printer per table and figure ---- *)

(* The four policy replays [forerunner compare] prints from. *)
let four_results () =
  ( replay Core.Node.Baseline,
    replay Core.Node.Perfect_match,
    replay Core.Node.Perfect_multi,
    replay Core.Node.Forerunner )

(* Every printer, keyed by the heading it must write. *)
let printers (baseline, perfect, perfect_multi, forerunner) =
  let record = Lazy.force small_record in
  Core.Metrics.
    [ ("Table 1", fun ppf -> pp_table1 ppf ~tag:"S" record ~baseline);
      ("Figure 11", fun ppf -> pp_fig11 ppf record);
      ("Table 2", fun ppf -> pp_table2 ppf ~baseline [ perfect; perfect_multi; forerunner ]);
      ("Table 3", fun ppf -> pp_table3 ppf ~baseline forerunner);
      ("Figure 12", fun ppf -> pp_fig12 ppf ~baseline forerunner);
      ("Figure 13", fun ppf -> pp_fig13 ppf ~baseline forerunner);
      ("Figure 15", fun ppf -> pp_fig15 ppf forerunner);
      ("Sec 5.5", fun ppf -> pp_sec55 ppf forerunner);
      ("Sec 5.6", fun ppf -> pp_sec56 ppf forerunner);
      ("Ablations", fun ppf -> pp_ablation ppf ~baseline [ ("forerunner (full)", forerunner) ])
    ]

let render print =
  let buf = Buffer.create 1024 in
  print (Format.formatter_of_buffer buf);
  Buffer.contents buf

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* The whitespace-separated cells of each line whose first cell is in [rows]. *)
let rows_of text rows =
  String.split_on_char '\n' text
  |> List.map (fun l -> List.filter (( <> ) "") (String.split_on_char ' ' l))
  |> List.filter (function c :: _ -> List.mem c rows | [] -> false)

let outcome_rows = [ "satisfied/perfect"; "satisfied/imperfect"; "unsatisfied/missed" ]
let policy_rows = [ "perfect"; "perfect+multi"; "forerunner" ]
let strip_pct c = String.concat "" (String.split_on_char '%' c)

(* The report lines that do not depend on wall time: Table 2's %satisfied
   and Table 3's % txs cells, Fig. 11, Fig. 15 and Sec 5.5. *)
let deterministic ps =
  let r h = render (List.assoc h ps) in
  ( List.map (fun cells -> List.nth cells 3) (rows_of (r "Table 2") policy_rows),
    List.map (fun cells -> List.nth cells 1) (rows_of (r "Table 3") outcome_rows),
    r "Figure 11" ^ r "Figure 15" ^ r "Sec 5.5" )

let report_tests =
  [ t "report: every printer writes its heading; deterministic lines repeat" (fun () ->
        let ps = printers (four_results ()) in
        List.iter
          (fun (heading, print) ->
            Alcotest.(check bool) (heading ^ " heading") true (contains (render print) heading))
          ps;
        let sat, shares, figs = deterministic ps in
        Alcotest.(check int) "three policy rows" 3 (List.length sat);
        Alcotest.(check int) "three outcome rows" 3 (List.length shares);
        let total = List.fold_left (fun a c -> a +. float_of_string (strip_pct c)) 0.0 shares in
        Alcotest.(check bool) "Table 3 % txs sums to 100" true
          (abs_float (total -. 100.0) <= 0.01 +. 1e-9);
        (* the printers read nothing but their arguments *)
        let sat', shares', figs' = deterministic ps in
        Alcotest.(check (list string)) "%satisfied" sat sat';
        Alcotest.(check (list string)) "outcome shares" shares shares';
        Alcotest.(check string) "Fig. 11, Fig. 15 and Sec 5.5" figs figs')
  ]

let suite = predictor_tests @ perfect_tests @ node_tests @ metrics_tests @ report_tests
