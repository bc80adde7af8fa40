(* airdrop: ERC-20 airdrop storms served through the shared template store.

   Each campaign is a [Workload.Airdrop] storm of 64 senders into its own
   ERC-20; the campaigns run back to back and state is committed every
   block-sized batch of 200 transactions, so fresh recipients keep
   inserting slots and commit hashing stays busy.  Every transaction is
   keyed ([Apstore.key_of_tx]), looked up ([Apstore.find]) and served by
   the template ([Ap.Exec.execute]), falling back to the interpreter on a
   violation; a lookup miss builds the campaign's template off the clock
   and runs the transaction on the interpreter.

   Why many campaigns rather than one long storm: a template only serves
   gas limits at or above the one it was traced at, so one storm's hit
   rate is decided by its first transaction's gas level (25/50/75/100%).
   Sixty-four campaigns average over that draw, which keeps the figures
   steady from seed to seed; campaign 0 alone reproduces the single-storm
   behaviour and is printed separately. *)

open Common
module Statedb = State.Statedb
module Address = State.Address

let default_seed = 31337 (* the storm seed bench/main.exe's apstore experiment uses *)
let held_out_seed = 4242
let n_senders = 64
let txs_per_campaign = 50
let batch_size = 200
let spec = !Spec.current

type t = {
  bk : Statedb.Backend.t;
  genesis : string;
  blocks : block list;  (** the stream in batches, with the interpreter's roots *)
  stream_ns : int;
  writes_per_block : float;  (** trie nodes the oracle pass stored per batch *)
}

let rec chunks n = function
  | [] -> []
  | l ->
    let rec take k acc = function
      | x :: rest when k > 0 -> take (k - 1) (x :: acc) rest
      | rest -> (List.rev acc, rest)
    in
    let c, rest = take n [] l in
    c :: chunks n rest

let benv number : Evm.Env.block_env =
  {
    coinbase = Address.of_int 0xC0FFEE;
    timestamp = Int64.add 1_700_000_000L (Int64.mul 13L (Int64.of_int number));
    number = Int64.of_int number;
    difficulty = U256.one;
    gas_limit = 30_000_000;
    chain_id = 1;
    block_hash;
  }

let setup tally ~seed ~scale =
  let n_campaigns = max 2 (int_of_float (64.0 *. scale)) in
  let storms =
    List.init n_campaigns (fun i ->
        Workload.Airdrop.create ~n_senders
          ~seed:(if i = 0 then seed else Hashtbl.hash (seed, i))
          ~token:(Address.of_int (0x70C0 + i))
          ())
  in
  let bk = Statedb.Backend.create () in
  let st = Statedb.create bk ~root:Statedb.empty_root in
  List.iteri
    (fun i s ->
      Contracts.Deploy.install_code st (Address.of_int (0x70C0 + i)) Contracts.Erc20.code;
      Workload.Airdrop.fund s st)
    storms;
  let genesis = Statedb.commit st in
  let genesis_writes = Trie.Db.node_writes (Statedb.Backend.trie_db bk) in
  (* every storm draws from the same sender accounts, so nonces continue
     across campaigns *)
  let nonces = Address.Tbl.create n_senders in
  let stream, stream_ns =
    time (fun () ->
        let out = ref [] in
        List.iter
          (fun s ->
            for _ = 1 to txs_per_campaign do
              let tx = Workload.Airdrop.tx s in
              let n = Option.value ~default:0 (Address.Tbl.find_opt nonces tx.sender) in
              Address.Tbl.replace nonces tx.sender (n + 1);
              out := { tx with nonce = n } :: !out
            done)
          storms;
        List.rev !out)
  in
  (* the oracle: an interpreter-only pass, committing every batch *)
  let st = Statedb.create bk ~root:genesis in
  let blocks =
    List.mapi
      (fun i txs ->
        let benv = benv (i + 1) in
        let parent = Statedb.root st in
        List.iter
          (fun tx ->
            let r = Evm.Processor.execute_tx st benv tx in
            check tally
              (Evm.Processor.status_equal r.status Evm.Processor.Success)
              "airdrop oracle: transfer did not succeed")
          txs;
        { bk; parent; benv; txs; root = Statedb.commit st })
      (chunks batch_size stream)
  in
  let writes = Trie.Db.node_writes (Statedb.Backend.trie_db bk) - genesis_writes in
  { bk; genesis; blocks; stream_ns; writes_per_block = ratio writes (List.length blocks) }

(* One store pass's end-to-end figures. *)
type pass_stats = {
  p_txs : int;
  p_wall : int;
  p_crit : int;  (** summed per-tx critical path *)
  p_batches : int;  (** summed batch critical path, commits included *)
  p_per_tx : int array;  (** each transaction's critical path, in stream order *)
}

type acc = {
  mutable txs : int;
  mutable crit : int list;  (** per-tx key + find + execution *)
  mutable batch_ns : int list;  (** per batch: summed crit plus commit *)
  mutable commit_ns : int;
  mutable wall_ns : int;  (** store passes, end to end *)
  mutable hits : int;
  mutable violations : int;
  mutable misses : int;
  mutable key_ns : int;
  mutable find_ns : int;
  mutable ap_ns : int;
  mutable builds : int;
  mutable build_ns : int;
  mutable build_exec_ns : int;
  mutable build_errors : int;
  mutable hit_crit : int list;
  mutable violation_crit : int list;
  mutable miss_crit : int list;
  mutable interp_txs : int;
  mutable interp_ns : int;
  mutable passes : int;
  mutable campaign0_hits : int;  (** template hits in campaign 0 of the first pass *)
  mutable per_pass : pass_stats list;
  mutable interp_per_pass : (int * int) list;  (** interpreter pass: txs, summed exec *)
  host : host;  (** probed after every batch of both passes *)
}

let acc () =
  {
    txs = 0; crit = []; batch_ns = []; commit_ns = 0; wall_ns = 0; hits = 0; violations = 0; misses = 0;
    key_ns = 0; find_ns = 0; ap_ns = 0; builds = 0; build_ns = 0; build_exec_ns = 0;
    build_errors = 0; hit_crit = []; violation_crit = []; miss_crit = []; interp_txs = 0;
    interp_ns = 0; passes = 0; campaign0_hits = 0; per_pass = []; interp_per_pass = [];
    host = host ();
  }

(* Trace the transaction and publish its template: the speculation a node
   runs off the critical path. *)
let build_template a store st benv key tx =
  if Apstore.reserve store key then begin
    let receipt, trace, exec_ns = pre_execute st benv tx in
    let r, ns = time (fun () -> Sevm.Builder.build ~template:true tx benv trace receipt st) in
    a.builds <- a.builds + 1;
    a.build_ns <- a.build_ns + exec_ns + ns;
    a.build_exec_ns <- a.build_exec_ns + exec_ns;
    match r with
    | Ok path -> Apstore.publish store key (ap_of_path path)
    | Error _ ->
      a.build_errors <- a.build_errors + 1;
      Apstore.abandon store key
  end

let interp st benv tx = snd (time (fun () -> Evm.Processor.execute_tx st benv tx))

let store_pass tally t a =
  let store = Apstore.create () in
  let st = Statedb.create t.bk ~root:t.genesis in
  let first_pass = a.passes = 0 and position = ref 0 in
  let serve benv (tx : Evm.Env.tx) =
    incr position;
    let key, key_ns = time (fun () -> Apstore.key_of_tx st spec tx) in
    a.key_ns <- a.key_ns + key_ns;
    let crit =
      match key with
      | None -> key_ns + interp st benv tx
      | Some k -> (
        let tp, find_ns = time (fun () -> Apstore.find store k) in
        a.find_ns <- a.find_ns + find_ns;
        match tp with
        | None ->
          a.misses <- a.misses + 1;
          build_template a store st benv k tx;
          let c = key_ns + find_ns + interp st benv tx in
          a.miss_crit <- c :: a.miss_crit;
          c
        | Some tp -> (
          match time (fun () -> Ap.Exec.execute tp st benv tx) with
          | Ap.Exec.Hit _, ns ->
            a.hits <- a.hits + 1;
            if first_pass && !position <= txs_per_campaign then
              a.campaign0_hits <- a.campaign0_hits + 1;
            a.ap_ns <- a.ap_ns + ns;
            let c = key_ns + find_ns + ns in
            a.hit_crit <- c :: a.hit_crit;
            c
          | Ap.Exec.Violation, ns ->
            a.violations <- a.violations + 1;
            let c = key_ns + find_ns + ns + interp st benv tx in
            a.violation_crit <- c :: a.violation_crit;
            c))
    in
    a.crit <- crit :: a.crit;
    crit
  in
  (* the pass wall leaves out the template builds, which a node runs off
     the critical path, and the host probes between batches *)
  List.iter
    (fun b ->
      let build_ns = a.build_ns in
      let (), wall =
        time (fun () ->
            let crit = List.fold_left (fun s tx -> s + serve b.benv tx) 0 b.txs in
            let root, commit_ns = time (fun () -> Statedb.commit st) in
            check tally (String.equal root b.root) "airdrop: store pass root differs from the oracle";
            a.batch_ns <- (crit + commit_ns) :: a.batch_ns;
            a.commit_ns <- a.commit_ns + commit_ns;
            a.txs <- a.txs + List.length b.txs)
      in
      a.wall_ns <- a.wall_ns + wall - (a.build_ns - build_ns);
      probe a.host)
    t.blocks;
  a.passes <- a.passes + 1

let interp_pass tally t a =
  let st = Statedb.create t.bk ~root:t.genesis in
  List.iter
    (fun b ->
      List.iter (fun tx -> a.interp_ns <- a.interp_ns + interp st b.benv tx) b.txs;
      a.interp_txs <- a.interp_txs + List.length b.txs;
      check tally (String.equal (Statedb.commit st) b.root) "airdrop: interpreter pass root";
      probe a.host)
    t.blocks

(* Store pass and interpreter pass alternate until [seconds] is spent,
   after one untimed store pass that lets the heap and the process-wide
   decode and analysis caches settle (set-up's oracle warmed only the
   interpreter).  Each pass starts from a compacted heap. *)
let timed tally (t : t) ~seconds =
  store_pass tally t (acc ());
  let a = acc () in
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let rec loop () =
    let txs, wall, batches = (a.txs, a.wall_ns, List.length a.batch_ns) in
    Gc.compact ();
    store_pass tally t a;
    let crit = List.filteri (fun i _ -> i < a.txs - txs) a.crit in
    a.per_pass <-
      {
        p_txs = a.txs - txs;
        p_wall = a.wall_ns - wall;
        p_crit = sum crit;
        p_batches = sum (List.filteri (fun i _ -> i < List.length a.batch_ns - batches) a.batch_ns);
        p_per_tx = Array.of_list (List.rev crit);
      }
      :: a.per_pass;
    let itxs, ins = (a.interp_txs, a.interp_ns) in
    Gc.compact ();
    interp_pass tally t a;
    a.interp_per_pass <- (a.interp_txs - itxs, a.interp_ns - ins) :: a.interp_per_pass;
    if now_ns () < deadline then loop ()
  in
  loop ();
  a

let run tally t ~seconds =
  let a = timed tally t ~seconds in
  let lookups = a.hits + a.violations + a.misses in
  Printf.printf "airdrop: %d txs served; template hits %d, violations %d, misses %d (%.2f%% hits)\n"
    a.txs a.hits a.violations a.misses (pct a.hits lookups);
  Printf.printf "airdrop: campaign 0 alone: %d of %d served by its template\n" a.campaign0_hits
    txs_per_campaign;
  Printf.printf "airdrop: per tx: key %.1f us, find %.2f us, template exec %.1f us (hits); commit %.1f%% of the batch critical path\n"
    (ratio a.key_ns a.txs /. 1e3)
    (ratio a.find_ns lookups /. 1e3)
    (ratio a.ap_ns a.hits /. 1e3)
    (pct a.commit_ns (sum a.batch_ns));
  let k = host_scale a.host in
  Printf.printf "airdrop: host probe median %.0f us; times below are scaled by %.3f\n" (probe_us a.host) k;
  let per_pass f = median (List.map f a.per_pass) in
  let per_tx = List.map (fun p -> p.p_per_tx) a.per_pass in
  let batches = List.length t.blocks in
  [ m "tx_per_s" "1/s" (per_pass (fun p -> float_of_int p.p_txs /. secs p.p_wall) /. k);
    m "crit_us_per_tx" "us" (per_pass (fun p -> ratio p.p_crit p.p_txs /. 1e3) *. k);
    m "crit_p50_us" "us" (float_of_int (steady_percentile per_tx 50.0) /. 1e3 *. k);
    m "crit_p99_us" "us" (float_of_int (steady_percentile per_tx 99.0) /. 1e3 *. k);
    m "block_crit_ms" "ms" (per_pass (fun p -> ratio p.p_batches batches /. 1e6) *. k);
    m "baseline_us_per_tx" "us"
      (median (List.map (fun (n, ns) -> ratio ns n /. 1e3) a.interp_per_pass) *. k);
    m "hit_pct" "%" (pct a.hits lookups);
    m "spec_ctx_per_s" "1/s" (ratio a.builds a.build_ns *. 1e9 /. k);
    m "peak_heap_mb" "MB" (peak_heap_mb ()) ]

(* The store pass's outcomes stand in for the node's: a template hit is an
   imperfect hit, a violation a miss, a store miss an unheard transaction;
   nothing is ever perfect. *)
let node_metrics a =
  let k = host_scale a.host in
  let mean l = ratio (sum l) (List.length l) /. 1e3 *. k in
  let outcome name l =
    [ m ("node.crit_us." ^ name) "us" (mean l); m ("node.txs." ^ name) "count" (float_of_int (List.length l)) ]
  in
  outcome "perfect" [] @ outcome "imperfect" a.hit_crit @ outcome "missed" a.violation_crit
  @ outcome "unheard" a.miss_crit
  @ [ m "node.speedup_e2e" "x"
        (fratio (ratio a.interp_ns a.interp_txs) (ratio (sum a.crit) a.txs));
      m "predictor.contexts_per_tx" "count" (ratio a.builds a.txs);
      m "speculator.ctx_us" "us" (ratio a.build_ns a.builds /. 1e3 *. k);
      m "speculator.base_exec_share" "%" (pct a.build_exec_ns a.build_ns);
      m "speculator.build_error_pct" "%" (pct a.build_errors a.builds) ]

let pass_wall a = median (List.map (fun p -> float_of_int p.p_wall) a.per_pass) *. host_scale a.host

let trace tally t ~seconds =
  let untraced = timed tally t ~seconds:(seconds /. 2.0) in
  Layers.reset_trie [ t.bk ];
  let a = traced (fun () -> timed tally t ~seconds:(seconds /. 2.0)) in
  let counters = Layers.counters ~txs:a.txs ~writes_per_block:t.writes_per_block [ t.bk ] in
  let lookups = a.hits + a.violations + a.misses in
  let k = host_scale a.host in
  (* the served stream's own keying, lookup and template execution; the
     layer pass leaves these out *)
  let own =
    [ m "apstore.key_us" "us" (ratio a.key_ns a.txs /. 1e3 *. k);
      m "apstore.find_us" "us" (ratio a.find_ns lookups /. 1e3 *. k);
      m "ap.exec_us" "us" (ratio a.ap_ns a.hits /. 1e3 *. k) ]
  in
  let first_batches = List.filteri (fun i _ -> i < 4) t.blocks in
  node_metrics a @ counters @ own
  @ Layers.pass ~store:false tally first_batches
  @ [ m "host.probe_us" "us" (probe_us a.host);
      m "netsim.record_s" "s" (secs t.stream_ns);
      m "obs.overhead_pct" "%" (100.0 *. (fratio (pass_wall a) (pass_wall untraced) -. 1.0)) ]
