(* The Forerunner node / emulator: replays a recorded observer feed (heard
   transactions + arriving blocks) under an execution policy, measuring the
   critical-path execution time of every transaction.

   Policies implement the four rows of the paper's Table 2:
   - [Baseline]: plain EVM execution, per-block StateDB with cold caches.
   - [Perfect_match]: traditional speculative execution — commit memoized
     results only when the actual context matches the (single) speculated
     context exactly.
   - [Perfect_multi]: perfect matching over all speculated futures.
   - [Forerunner]: constraint-based APs with memoization + prefetching, EVM
     fallback on violation.

   State roots are validated against every block header (paper §5.2). *)

open State

type policy = Baseline | Forerunner | Perfect_match | Perfect_multi

let policy_name = function
  | Baseline -> "baseline"
  | Forerunner -> "forerunner"
  | Perfect_match -> "perfect"
  | Perfect_multi -> "perfect+multi"

type outcome =
  | O_unheard
  | O_missed (* heard, but no usable AP / constraints unsatisfied *)
  | O_imperfect (* AP hit; context differed from every speculated one *)
  | O_perfect (* AP hit; context identical to a speculated one *)

type tx_record = {
  hash : string;
  kind : Workload.Gen.kind option;
  gas_used : int;
  heard : bool;
  outcome : outcome;
  exec_ns : int;
  instrs_executed : int;
  instrs_skipped : int;
  ap_paths : int;
  ap_futures : int;
  ap_contexts : int;
  ap_shortcuts : int;
  block_number : int64;
  canonical : bool; (* executed as part of the canonical chain *)
}

type block_record = {
  number : int64;
  n_txs : int;
  gas_used : int;
  gas_limit : int;
  root_ok : bool;
  canonical : bool;
  exec_ns : int;
}

type result = {
  policy : policy;
  txs : tx_record list; (* execution order *)
  blocks : block_record list;
  spec_total_ns : int;
  spec_base_exec_ns : int;
  spec_contexts : int;
  spec_build_errors : int;
  reorgs : int; (* head switches onto a previously non-head branch *)
  fork_blocks : int; (* side blocks processed *)
  synth : Speculator.synth_acc; (* summed per-path synthesis stats *)
  sched : Sched.stats; (* speculation scheduler accounting *)
  apstore : Apstore.stats option; (* template store accounting, when enabled *)
}

type config = {
  max_contexts_initial : int;
  max_contexts_respec : int;
  max_respec_per_block : int;
  validate_hits : bool; (* cross-check every AP hit against the EVM *)
  use_memos : bool; (* ablation: disable memoization shortcuts *)
  prefetch : bool; (* ablation: disable StateDB warming *)
  seed : int;
  jobs : int; (* speculation worker domains; 1 = inline, fully sequential *)
  use_apstore : bool;
      (* the shared template store (lib/apstore): speculation publishes
         input-lifted template APs keyed by call shape; execution serves
         them to structurally-equivalent txs that have no usable per-tx AP *)
}

let default_config =
  {
    max_contexts_initial = 4;
    max_contexts_respec = 2;
    max_respec_per_block = 64;
    validate_hits = false;
    use_memos = true;
    prefetch = true;
    seed = 7;
    jobs = 1;
    use_apstore = false;
  }

(* Single-future ablation: the traditional one-prediction pipeline. *)
let single_future_config =
  {
    default_config with
    max_contexts_initial = 1;
    max_contexts_respec = 1;
    max_respec_per_block = 0;
  }

type pending_entry = { p : Predictor.pending; spec : Speculator.spec }

(* Why each re-speculation was triggered (paper §4.4: the predictor keeps
   tracking the pool as it shifts). *)
let obs_respec_same_sender = Obs.counter "predictor.respec.same_sender"
let obs_respec_same_receiver = Obs.counter "predictor.respec.same_receiver"
let obs_respec_new_head = Obs.counter "predictor.respec.new_head"

(* Run [f], returning its result and the elapsed monotonic nanoseconds. *)
let time f =
  let t0 = Obs.now_ns () in
  let r = f () in
  (r, Int64.to_int (Int64.sub (Obs.now_ns ()) t0))

let is_speculative = function
  | Forerunner | Perfect_match | Perfect_multi -> true
  | Baseline -> false

let replay ?(config = default_config) ~policy (record : Netsim.Record.t) : result =
  (* per-policy wall-time breakdown by phase (labels precomputed so span
     bookkeeping costs no allocation on the hot path) *)
  let phase_pfx = "replay." ^ policy_name policy in
  let l_speculate = phase_pfx ^ ".speculate" in
  let l_execute = phase_pfx ^ ".execute" in
  let l_commit = phase_pfx ^ ".commit" in
  let l_respec = phase_pfx ^ ".respec" in
  let l_barrier = phase_pfx ^ ".barrier" in
  let bk = record.backend in
  let head_root = ref record.genesis_root in
  let head_hash = ref record.genesis_hash in
  let head_number = ref 0L in
  let roots_by_hash : (string, string) Hashtbl.t = Hashtbl.create 256 in
  Hashtbl.replace roots_by_hash record.genesis_hash record.genesis_root;
  let reorgs = ref 0 in
  let fork_blocks = ref 0 in
  let predictor = Predictor.create ~seed:config.seed in
  let pending : (string, pending_entry) Hashtbl.t = Hashtbl.create 1024 in
  let included = Hashtbl.create 4096 in
  let next_st = ref (Statedb.create bk ~root:!head_root) in
  let txs = ref [] in
  let blocks = ref [] in
  let spec_total = ref 0 and spec_base = ref 0 and spec_ctxs = ref 0 and spec_errs = ref 0 in
  let synth_global = Speculator.empty_acc () in
  let pool () = Hashtbl.fold (fun _ e acc -> e.p :: acc) pending [] in

  (* The speculation scheduler.  Prediction stays on this thread (it draws
     from the replay's RNG stream, so its order must not depend on worker
     timing); the pre-execution + AP synthesis runs as a scheduler job.
     With jobs = 1 the job executes inline at submit — the sequential
     pipeline — so worker count never changes what gets speculated, only
     where and when. *)
  let sched : pending_entry Sched.t = Sched.create ~jobs:(max 1 config.jobs) () in

  (* The shared template store (lib/apstore).  All three touch points run
     on this thread at deterministic pipeline positions — reservations
     during prediction, publications while draining results in submission
     order, serves after the pre-block barrier — so store contents at
     every serve are independent of worker timing and jobs=1 ≡ jobs=N
     parity survives.  Workers only ever *build* templates (into their
     entry's own spec record), never touch the store. *)
  let store =
    if config.use_apstore && is_speculative policy then Some (Apstore.create ())
    else None
  in
  let retire_template (e : pending_entry) =
    match (store, e.spec.template_key) with
    | Some s, Some k when not e.spec.template_published -> Apstore.abandon s k
    | _ -> ()
  in

  (* Fingerprint of one speculation's inputs: the head root plus every
     predicted future (the deterministic env fields and the ordered tx
     hashes; [block_hash] is always [Netsim.Record.block_hash]).  Equal keys
     mean the speculation would recompute the tx's spec record to the
     identical state, so [Sched.submit] skips the duplicate — the jobs>1
     merged-waste fix.  Prediction still runs first (it draws from the
     replay's RNG stream), so dedupe never changes what later predictions
     see. *)
  let spec_key ~root ctxs =
    let b = Buffer.create 256 in
    Buffer.add_string b root;
    List.iter
      (fun ((e : Evm.Env.block_env), ctx_txs) ->
        Buffer.add_char b '|';
        Buffer.add_string b (Address.to_bytes e.coinbase);
        Buffer.add_string b (Printf.sprintf "%Ld:%Ld:%d:" e.timestamp e.number e.gas_limit);
        Buffer.add_string b (U256.to_bytes_be e.difficulty);
        List.iter (fun tx -> Buffer.add_string b (Evm.Env.tx_hash tx)) ctx_txs)
      ctxs;
    Khash.Keccak.digest (Buffer.contents b)
  in

  let speculate_tx now entry n_contexts =
    (* Single-flight template reservation, in prediction order: the first
       pending tx of each call shape owns the template build; later
       same-shape txs coalesce and just consume the published template. *)
    (match store with
    | Some s when entry.spec.template_key = None -> (
      match Apstore.key_of_tx !next_st !Spec.current entry.p.tx with
      | Some k when Apstore.reserve s k -> entry.spec.template_key <- Some k
      | Some _ | None -> ())
    | Some _ | None -> ());
    let ctxs =
      Predictor.contexts predictor ~pool:(pool ()) ~max_contexts:n_contexts
        ~tx_hash:entry.p.hash entry.p.tx
    in
    let root = !head_root in
    Sched.submit sched ~dedupe_key:(spec_key ~root ctxs) ~hash:entry.p.hash
      ~priority:entry.p.tx.gas_price (fun () ->
        Speculator.speculate entry.spec bk ~root ~now ctxs entry.p.tx;
        entry)
  in

  (* Collect finished speculations and warm the next execution StateDB with
     their read sets (the prefetcher).  Results are applied in submission
     order, so the cache fill order is independent of worker timing. *)
  let apply_results () =
    List.iter
      (fun (r : pending_entry Sched.result) ->
        match r.r_value with
        | Error e -> raise e
        | Ok entry ->
          if config.prefetch then Statedb.warm !next_st entry.spec.touches;
          (match (store, entry.spec.template_key) with
          | Some s, Some k when not entry.spec.template_published -> (
            match entry.spec.template_ready with
            | Some tp ->
              Apstore.publish s k tp;
              entry.spec.template_published <- true
            | None -> ())
          | _ -> ()))
      (Sched.drain sched)
  in

  let exec_one st ~canonical benv t_block (tx : Evm.Env.tx) : tx_record * Evm.Processor.receipt =
    let hash = Evm.Env.tx_hash tx in
    let entry = Hashtbl.find_opt pending hash in
    let heard = entry <> None in
    let record_of receipt outcome exec_ns (stats : Ap.Exec.stats option) =
      let executed, skipped =
        match stats with Some s -> (s.executed, s.skipped) | None -> (0, 0)
      in
      let ap_paths, ap_futures, ap_contexts, ap_shortcuts =
        match entry with
        | Some e -> (e.spec.ap.n_paths, e.spec.ap.n_futures, e.spec.contexts, e.spec.ap.shortcut_count)
        | None -> (0, 0, 0, 0)
      in
      ( {
          hash;
          kind = Hashtbl.find_opt record.tx_kinds hash;
          gas_used = receipt.Evm.Processor.gas_used;
          heard;
          outcome;
          exec_ns;
          instrs_executed = executed;
          instrs_skipped = skipped;
          ap_paths;
          ap_futures;
          ap_contexts;
          ap_shortcuts;
          block_number = benv.Evm.Env.number;
          canonical;
        },
        receipt )
    in
    let full_exec outcome =
      let receipt, ns = time (fun () -> Evm.Processor.execute_tx st benv tx) in
      record_of receipt outcome ns None
    in
    match policy with
    | Baseline -> full_exec (if heard then O_missed else O_unheard)
    | Perfect_match | Perfect_multi -> (
      let paths =
        match entry with
        | Some e when e.spec.ready_at <= t_block ->
          if policy = Perfect_match then
            (match e.spec.paths with p :: _ -> [ p ] | [] -> [])
          else e.spec.paths
        | Some _ | None -> []
      in
      let res, ns = time (fun () ->
          match Perfect.try_paths paths st benv tx with
          | Some receipt -> `Hit receipt
          | None -> `Miss (Evm.Processor.execute_tx st benv tx))
      in
      match res with
      | `Hit receipt -> record_of receipt O_perfect ns None
      | `Miss receipt ->
        record_of receipt (if heard then O_missed else O_unheard) ns None)
    | Forerunner -> (
      let ap_usable =
        match entry with
        | Some e when e.spec.ready_at <= t_block && e.spec.ap.roots <> [] -> Some e
        | Some _ | None -> None
      in
      (* Shared AP-execution arm: per-tx APs classify a guard violation as
         O_missed (the tx was heard and speculated); template serves pass
         the heard-sensitive outcome through [miss_outcome]. *)
      let run_ap ~paths ~miss_outcome ap =
        (* outcome classification (Table 3) must look at the pre-write
           context; it runs before the timed execution and outside it *)
        let was_perfect =
          List.exists (fun p -> Perfect.context_matches p st benv) paths
        in
        let reference =
          if config.validate_hits then begin
            (* shadow-execute on a journal snapshot for validation *)
            let snap = Statedb.snapshot st in
            let r = Evm.Processor.execute_tx st benv tx in
            Statedb.revert st snap;
            Some r
          end
          else None
        in
        let (receipt, stats), ns =
          time (fun () -> Ap.Exec.execute_or_fallback ~use_memos:config.use_memos ap st benv tx)
        in
        match stats with
        | Some stats ->
          (match reference with
          | Some r ->
            if
              not
                (Evm.Processor.status_equal r.status receipt.status
                && r.gas_used = receipt.gas_used
                && String.equal r.output receipt.output
                && List.length r.logs = List.length receipt.logs
                && List.for_all2 Evm.Env.log_equal r.logs receipt.logs)
            then
              invalid_arg
                (Printf.sprintf "AP hit diverged from EVM for tx %s"
                   (Khash.Keccak.to_hex hash))
          | None -> ());
          record_of receipt (if was_perfect then O_perfect else O_imperfect) ns (Some stats)
        | None -> record_of receipt miss_outcome ns None
      in
      match ap_usable with
      | Some e -> run_ap ~paths:e.spec.paths ~miss_outcome:O_missed e.spec.ap
      | None -> (
        let missed = if heard then O_missed else O_unheard in
        (* no usable per-tx AP: a template built from some structurally
           equivalent transaction may still serve this one *)
        let template =
          match store with
          | Some s -> (
            match Apstore.key_of_tx st !Spec.current tx with
            | Some k -> Apstore.find s k
            | None -> None)
          | None -> None
        in
        match template with
        | Some tp -> run_ap ~paths:[] ~miss_outcome:missed tp
        | None -> full_exec missed))
  in

  Fun.protect
    ~finally:(fun () -> Sched.shutdown sched)
    (fun () ->
  Array.iter
    (fun ev ->
      match ev with
      | Netsim.Record.Heard (t, tx) ->
        let hash = Evm.Env.tx_hash tx in
        if (not (Hashtbl.mem included hash)) && not (Hashtbl.mem pending hash) then begin
          let entry =
            { p = { Predictor.tx; hash; heard_at = t }; spec = Speculator.create_spec () }
          in
          Hashtbl.replace pending hash entry;
          if is_speculative policy then begin
            Obs.span l_speculate (fun () ->
                speculate_tx t entry config.max_contexts_initial);
            (* The new arrival may belong to the dependency group of already
               pending transactions whose contexts are now stale: re-speculate
               them (the paper's predictor continuously tracks the pool).
               Same-sender higher-nonce txs always requalify (nonce order);
               same-receiver txs requalify up to a small budget. *)
            let same_sender = ref [] and same_to = ref [] in
            Hashtbl.iter
              (fun h (e : pending_entry) ->
                if h <> hash then begin
                  if
                    Address.equal e.p.tx.sender tx.sender && e.p.tx.nonce > tx.nonce
                  then same_sender := e :: !same_sender
                  else
                    match (e.p.tx.to_, tx.to_) with
                    | Some a, Some b
                      when Address.equal a b && U256.le e.p.tx.gas_price tx.gas_price ->
                      same_to := e :: !same_to
                    | (Some _ | None), _ -> ()
                end)
              pending;
            Obs.span l_respec (fun () ->
                Obs.add obs_respec_same_sender (List.length !same_sender);
                List.iter (fun e -> speculate_tx t e config.max_contexts_respec) !same_sender;
                let recent =
                  List.sort
                    (fun (a : pending_entry) b -> compare b.p.heard_at a.p.heard_at)
                    !same_to
                in
                List.iteri
                  (fun i e ->
                    if i < 3 then begin
                      Obs.incr obs_respec_same_receiver;
                      speculate_tx t e config.max_contexts_respec
                    end)
                  recent)
          end
        end
      | Netsim.Record.Tick _ ->
        (* speculation-budget boundary: collect whatever the workers have
           finished so prefetching proceeds between deliveries *)
        if is_speculative policy then apply_results ()
      | Netsim.Record.Block (t, b) -> (
        match Hashtbl.find_opt roots_by_hash b.header.parent_hash with
        | None -> () (* orphan: parent never seen; a real node would fetch it *)
        | Some parent_root ->
          let extends_head = String.equal b.header.parent_hash !head_hash in
          (* Block boundary: quiesce the workers before executing — the
             commit below writes trie nodes into the shared backend the
             workers read. *)
          if is_speculative policy then begin
            Obs.span l_barrier (fun () -> Sched.barrier sched);
            apply_results ()
          end;
          let exec_st =
            if extends_head then !next_st else Statedb.create bk ~root:parent_root
          in
          let canonical = Netsim.Record.is_canonical record b in
          if not extends_head then incr fork_blocks;
          let benv =
            Chain.Stf.block_env_of_header b.header ~block_hash:Netsim.Record.block_hash
          in
          let block_ns = ref 0 in
          let gas = ref 0 in
          List.iter
            (fun tx ->
              let tr, _receipt =
                Obs.span l_execute (fun () -> exec_one exec_st ~canonical benv t tx)
              in
              block_ns := !block_ns + tr.exec_ns;
              gas := !gas + tr.gas_used;
              txs := tr :: !txs)
            b.txs;
          let root = Obs.span l_commit (fun () -> Statedb.commit exec_st) in
          let root_ok = String.equal root b.header.state_root in
          if not root_ok then
            invalid_arg
              (Printf.sprintf "state root mismatch at block %Ld under policy %s"
                 b.header.number (policy_name policy));
          let bhash = Chain.Block.hash b in
          Hashtbl.replace roots_by_hash bhash root;
          blocks :=
            {
              number = b.header.number;
              n_txs = List.length b.txs;
              gas_used = !gas;
              gas_limit = b.header.gas_limit;
              root_ok;
              canonical;
              exec_ns = !block_ns;
            }
            :: !blocks;
          (* head selection: strictly higher blocks win; the first block seen
             at a given height keeps the head otherwise *)
          if b.header.number > !head_number then begin
            if not extends_head then incr reorgs;
            head_number := b.header.number;
            head_hash := bhash;
            head_root := root;
            Predictor.observe_block predictor b;
            next_st := Statedb.create bk ~root;
            (* account and retire the included pending txs *)
            List.iter
              (fun tx ->
                let h = Evm.Env.tx_hash tx in
                Hashtbl.replace included h ();
                match Hashtbl.find_opt pending h with
                | Some e ->
                  spec_total := !spec_total + e.spec.spec_time_ns;
                  spec_base := !spec_base + e.spec.base_exec_ns;
                  spec_ctxs := !spec_ctxs + e.spec.contexts;
                  spec_errs := !spec_errs + e.spec.build_errors;
                  synth_global.paths_built <- synth_global.paths_built + e.spec.synth.paths_built;
                  synth_global.sum <- Sevm.Ir.add_stats synth_global.sum e.spec.synth.sum;
                  retire_template e;
                  Hashtbl.remove pending h
                | None -> ())
              b.txs;
            (* drop pending txs made stale by this block *)
            let stale = ref [] in
            Hashtbl.iter
              (fun h (e : pending_entry) ->
                if e.p.tx.nonce < Statedb.get_nonce !next_st e.p.tx.sender then begin
                  retire_template e;
                  stale := h :: !stale
                end)
              pending;
            List.iter (Hashtbl.remove pending) !stale;
            (* bound the scheduler's dedupe memo: retired hashes never
               resubmit, so their entries would otherwise pile up forever *)
            Sched.forget sched (List.map Evm.Env.tx_hash b.txs @ !stale);
            (* re-speculate the hottest pending txs against the new head *)
            if is_speculative policy then begin
              let entries = Hashtbl.fold (fun _ e acc -> e :: acc) pending [] in
              let entries =
                List.sort
                  (fun (a : pending_entry) b ->
                    U256.compare b.p.tx.gas_price a.p.tx.gas_price)
                  entries
              in
              let entries =
                List.filteri (fun i _ -> i < config.max_respec_per_block) entries
              in
              Obs.span l_respec (fun () ->
                  Obs.add obs_respec_new_head (List.length entries);
                  List.iter (fun e -> speculate_tx t e config.max_contexts_respec) entries)
            end
          end))
    record.events;
  (* settle the tail: finish outstanding speculation and surface any
     worker-side exception before the domains are joined *)
  if is_speculative policy then begin
    Sched.barrier sched;
    apply_results ()
  end);
  {
    policy;
    txs = List.rev !txs;
    blocks = List.rev !blocks;
    spec_total_ns = !spec_total;
    spec_base_exec_ns = !spec_base;
    spec_contexts = !spec_ctxs;
    spec_build_errors = !spec_errs;
    reorgs = !reorgs;
    fork_blocks = !fork_blocks;
    synth = synth_global;
    sched = Sched.stats sched;
    apstore = Option.map Apstore.stats store;
  }
