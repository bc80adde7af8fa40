(* jobs=1 vs jobs=N comparison harness for the speculation scheduler.

   The same Record.t is replayed twice under Forerunner: inline (jobs=1)
   and parallel with barrier semantics (jobs=N, the default node
   configuration — bitwise-identical speculation results, just produced on
   worker domains).  Replays share the backend (the trie store is
   content-addressed and append-only), so later runs see a warmer node
   database — which favours the FIRST run, so a throughput ratio above 1
   understates, never overstates, the parallel speedup. *)

open State

type run_stats = {
  jobs : int;
  replay_wall_ns : int;
  speculated : int;
  spec_txs_per_sec : float;
  hit_rate_pct : float;
  perfect : int;
  imperfect : int;
  missed : int;
  unheard : int;
  cancelled : int;
  merged : int;
  deduped : int;
  high_water : int;
}

type par_workload = {
  pw_name : string;
  pw_jobs : int;
  pw_static : bool;
  pw_blocks : int;
  pw_txs : int;
  pw_aborted : int;
  pw_forced : int;
  pw_reruns : int;
  pw_static_serial : int;
  pw_ap_hits : int;
  pw_abort_rate_pct : float;
  pw_seq_wall_ns : int;
  pw_par_wall_ns : int;
  pw_speedup : float;
  pw_roots_match : bool;
}

type comparison = {
  seq : run_stats;
  par : run_stats;
  throughput_ratio : float;
  outcomes_match : bool;
  blocks_match : bool;
  parallel : par_workload list;
}

let count_outcome (r : Node.result) o =
  List.length (List.filter (fun (t : Node.tx_record) -> t.outcome = o) r.txs)

let one_run ~jobs ~config record =
  let config = { config with Node.jobs } in
  let result, wall_ns =
    Clock.time (fun () -> Node.replay ~config ~policy:Node.Forerunner record)
  in
  let perfect = count_outcome result Node.O_perfect in
  let imperfect = count_outcome result Node.O_imperfect in
  let missed = count_outcome result Node.O_missed in
  let unheard = count_outcome result Node.O_unheard in
  let heard = perfect + imperfect + missed in
  let s = result.sched in
  ( result,
    {
      jobs;
      replay_wall_ns = wall_ns;
      speculated = s.completed;
      spec_txs_per_sec =
        float_of_int s.completed /. (float_of_int (max 1 wall_ns) /. 1e9);
      hit_rate_pct =
        100.0 *. float_of_int (perfect + imperfect) /. float_of_int (max 1 heard);
      perfect;
      imperfect;
      missed;
      unheard;
      cancelled = s.cancelled;
      merged = s.merged;
      deduped = s.deduped;
      high_water = s.high_water;
    } )

let tx_key (t : Node.tx_record) = (t.hash, t.outcome, t.gas_used, t.block_number)
let block_key (b : Node.block_record) = (b.number, b.root_ok, b.gas_used)

(* ---- conflict-aware parallel block apply (DESIGN.md §10) ---- *)

let canonical_blocks (record : Netsim.Record.t) =
  Array.to_list record.events
  |> List.filter_map (fun ev ->
         match ev with
         | Netsim.Record.Block (_, b) when Netsim.Record.is_canonical record b -> Some b
         | Netsim.Record.Block _ | Netsim.Record.Heard _ | Netsim.Record.Tick _ -> None)
  |> List.sort (fun (a : Chain.Block.t) b -> compare a.header.number b.header.number)

(* Per-block AP construction — the speculation that, in the live node, ran
   off the critical path while the txs sat in the pool: each tx is traced
   against the parent state under the block's own env, so its constraints
   hold at execution time and the parallel phase goes through the fast
   path; conflicts are then detected at commit, not by guard violations. *)
let build_aps bk ~parent_root benv (txs : Evm.Env.tx list) =
  let table : (string, Ap.Program.t) Hashtbl.t = Hashtbl.create 64 in
  let st = Statedb.create bk ~root:parent_root in
  List.iter
    (fun (tx : Evm.Env.tx) ->
      if tx.to_ <> None then begin
        let snap = Statedb.snapshot st in
        let sink, get = Evm.Trace.collector () in
        let receipt = Evm.Processor.execute_tx ~trace:sink st benv tx in
        Statedb.revert st snap;
        match receipt.status with
        | Evm.Processor.Invalid _ -> () (* valid only later in the block *)
        | Evm.Processor.Success | Evm.Processor.Reverted -> (
          match Sevm.Builder.build tx benv (get ()) receipt st with
          | Ok path ->
            let ap = Ap.Program.create () in
            Ap.Program.add_path ap path;
            Hashtbl.replace table (Evm.Env.tx_hash tx) ap
          | Error _ -> ())
      end)
    txs;
  table

let run_parallel_blocks ?(with_ap = true) ?(static_partition = false) ~jobs ~name
    (record : Netsim.Record.t) =
  let bk = record.backend in
  let blocks = canonical_blocks record in
  let pool = Chain.Stf.create_pool ~jobs () in
  Fun.protect ~finally:(fun () -> Chain.Stf.shutdown_pool pool) @@ fun () ->
  let parent = ref record.genesis_root in
  let seq_ns = ref 0 and par_ns = ref 0 in
  let n_txs = ref 0 and aborted = ref 0 and forced = ref 0 in
  let reruns = ref 0 and ap_hits = ref 0 and static_serial = ref 0 in
  let roots_ok = ref true in
  List.iter
    (fun (b : Chain.Block.t) ->
      let benv =
        Chain.Stf.block_env_of_header b.header ~block_hash:(fun n -> U256.of_int64 n)
      in
      let ap_table =
        if with_ap then build_aps bk ~parent_root:!parent benv b.txs else Hashtbl.create 1
      in
      let ap (tx : Evm.Env.tx) = Hashtbl.find_opt ap_table (Evm.Env.tx_hash tx) in
      let st_seq = Statedb.create bk ~root:!parent in
      let r_seq, ns = Clock.time (fun () -> Chain.Stf.apply_txs st_seq benv b.txs) in
      seq_ns := !seq_ns + ns;
      let st_par = Statedb.create bk ~root:!parent in
      let (r_par, stats), nsp =
        Clock.time (fun () ->
            Chain.Stf.apply_txs_parallel ~pool ~ap ~static_partition st_par benv b.txs)
      in
      par_ns := !par_ns + nsp;
      n_txs := !n_txs + stats.par_txs;
      aborted := !aborted + stats.par_aborted;
      forced := !forced + stats.par_forced;
      reruns := !reruns + stats.par_reruns;
      ap_hits := !ap_hits + stats.par_ap_hits;
      static_serial := !static_serial + stats.par_static_serial;
      if
        not
          (String.equal r_par.state_root r_seq.state_root
          && String.equal r_seq.state_root b.header.state_root)
      then roots_ok := false;
      parent := b.header.state_root)
    blocks;
  {
    pw_name = name;
    pw_jobs = jobs;
    pw_static = static_partition;
    pw_blocks = List.length blocks;
    pw_txs = !n_txs;
    pw_aborted = !aborted;
    pw_forced = !forced;
    pw_reruns = !reruns;
    pw_static_serial = !static_serial;
    pw_ap_hits = !ap_hits;
    pw_abort_rate_pct = 100.0 *. float_of_int (!aborted + !forced) /. float_of_int (max 1 !n_txs);
    pw_seq_wall_ns = !seq_ns;
    pw_par_wall_ns = !par_ns;
    pw_speedup = float_of_int !seq_ns /. float_of_int (max 1 !par_ns);
    pw_roots_match = !roots_ok;
  }

(* AMM-heavy blocks serialize on the pair's reserves and should conflict
   hard; disjoint transfers should barely conflict at all.  The mixed
   record sits in between. *)
let parallel_suite ?(with_ap = true) ?(scale = 1.0) ~jobs () =
  let mk ~seed ~mix ~n_users duration =
    {
      Netsim.Sim.default_params with
      seed;
      duration = Float.max 20.0 (duration *. scale);
      tx_rate = 14.0;
      n_users;
      mix;
    }
  in
  (* Each workload runs twice on the same record: static pre-partitioning
     off, then on.  The partitioner is a pure scheduling heuristic, so the
     on/off pair must agree on every committed root (pw_roots_match checks
     each run against the canonical header roots, which the off run already
     matched — so agreement there is byte-identity between the two) while
     the abort/rerun counts show what the static footprints bought. *)
  let work name params =
    let record = Netsim.Sim.run ~params () in
    [ run_parallel_blocks ~with_ap ~static_partition:false ~jobs ~name record;
      run_parallel_blocks ~with_ap ~static_partition:true ~jobs ~name record ]
  in
  (* The transfer record draws senders/recipients uniformly, so the user
     pool sets the collision rate: a ~200-tx block over 2000 users touches
     mostly-disjoint accounts (the real-Ethereum shape Saraph & Herlihy
     measured), while the same block over 120 users is one big nonce/
     balance pile-up.  The AMM record conflicts through the shared pair
     reserves no matter how many users swap. *)
  List.concat
    [
      work "transfer"
        (mk ~seed:7001 ~mix:[ (Workload.Gen.Eth_transfer, 1.0) ] ~n_users:2000 60.0);
      work "amm" (mk ~seed:7002 ~mix:[ (Workload.Gen.Amm_swap, 1.0) ] ~n_users:120 60.0);
      work "mixed" (mk ~seed:7003 ~mix:Workload.Gen.default_mix ~n_users:120 60.0);
    ]

let compare_jobs ?(config = Node.default_config) ?(par_suite = true) ~jobs record =
  let r_seq, seq = one_run ~jobs:1 ~config record in
  let r_par, par = one_run ~jobs ~config record in
  {
    seq;
    par;
    throughput_ratio = par.spec_txs_per_sec /. Float.max 1e-9 seq.spec_txs_per_sec;
    outcomes_match =
      List.map tx_key r_seq.txs = List.map tx_key r_par.txs;
    blocks_match =
      List.map block_key r_seq.blocks = List.map block_key r_par.blocks;
    parallel = (if par_suite then parallel_suite ~scale:(Datasets.scale ()) ~jobs () else []);
  }

let print c =
  (* the throughput ratio is bounded by available cores: on a single-core
     host the parallel replays timeshare (and pay the multi-domain GC
     sync), so only a multicore run can show the scaling *)
  Printf.printf "host parallelism: %d recommended domain(s)\n\n"
    (Domain.recommended_domain_count ());
  Printf.printf "%-22s %8s %10s %12s %9s %9s %8s %8s\n" "variant" "jobs" "wall (s)"
    "spec tx/s" "hit rate" "cancelled" "merged" "deduped";
  let row name (s : run_stats) =
    Printf.printf "%-22s %8d %10.2f %12.1f %8.2f%% %9d %8d %8d\n" name s.jobs
      (float_of_int s.replay_wall_ns /. 1e9)
      s.spec_txs_per_sec s.hit_rate_pct s.cancelled s.merged s.deduped
  in
  row "sequential" c.seq;
  row "parallel (barrier)" c.par;
  Printf.printf "\nthroughput ratio (parallel/sequential): %.2fx\n" c.throughput_ratio;
  Printf.printf "per-tx outcomes identical: %b; per-block results identical: %b\n"
    c.outcomes_match c.blocks_match;
  if c.parallel <> [] then begin
    Printf.printf "\nconflict-aware parallel block apply (jobs=%d):\n"
      (match c.parallel with pw :: _ -> pw.pw_jobs | [] -> 0);
    Printf.printf "%-10s %6s %7s %7s %8s %8s %7s %8s %11s %9s %6s\n" "workload" "static"
      "blocks" "txs" "aborted" "forced" "serial" "ap hits" "abort rate" "speedup" "roots";
    List.iter
      (fun pw ->
        Printf.printf "%-10s %6s %7d %7d %8d %8d %7d %8d %10.2f%% %8.2fx %6s\n" pw.pw_name
          (if pw.pw_static then "on" else "off")
          pw.pw_blocks pw.pw_txs pw.pw_aborted pw.pw_forced pw.pw_static_serial
          pw.pw_ap_hits pw.pw_abort_rate_pct pw.pw_speedup
          (if pw.pw_roots_match then "ok" else "FAIL"))
      c.parallel
  end

(* ---- shared BENCH_*.json artifact header (schema + run metadata) ----

   Every benchmark artifact the repo emits (BENCH_sched.json,
   BENCH_interp.json, BENCH_apstore.json) opens with the same fields so
   downstream tooling can dispatch on one stable prefix:

     {"schema_version":N,"experiment":"...","fork":"...",...}

   Bump [schema_version] whenever a field of any artifact changes meaning
   or disappears; adding fields is backward compatible.

   v2: BENCH_sched.json's parallel_blocks array carries each workload
   twice, keyed by the new static_partition field (the lib/bca
   pre-partitioning comparison), so per-workload consumers must group by
   (workload, static_partition) instead of workload alone.

   v3: BENCH_sched.json drops the drop-stale replay object and the per-run
   drop-stale flag and requeue count, with the drop-stale mode itself. *)

let schema_version = 3

let meta_header ?(extra = []) ~experiment () =
  let kvs =
    [ ("schema_version", string_of_int schema_version);
      ("experiment", Printf.sprintf "%S" experiment);
      ("fork", Printf.sprintf "%S" !Spec.current.Spec.name) ]
    @ extra
  in
  String.concat "," (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%s" k v) kvs)

let read_file file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Structural check, not a JSON parser: the artifact must be an object
   opening with the exact shared header prefix for [experiment], with a
   fork field right behind it.  Run by the bench binary on every artifact
   it writes, so a header regression fails the benchmark run itself. *)
let validate_header ~experiment file =
  match (try Ok (read_file file) with Sys_error e -> Error e) with
  | Error e -> Error e
  | Ok s ->
    let prefix =
      Printf.sprintf "{\"schema_version\":%d,\"experiment\":%S,\"fork\":\""
        schema_version experiment
    in
    if String.length s >= String.length prefix
       && String.equal (String.sub s 0 (String.length prefix)) prefix
    then Ok ()
    else
      Error
        (Printf.sprintf "%s: missing or stale schema header (want prefix %s)" file
           prefix)

let json_of_run (s : run_stats) =
  Printf.sprintf
    "{\"jobs\":%d,\"replay_wall_ns\":%d,\"speculated\":%d,\
     \"spec_txs_per_sec\":%.3f,\"hit_rate_pct\":%.3f,\"perfect\":%d,\
     \"imperfect\":%d,\"missed\":%d,\"unheard\":%d,\"cancelled\":%d,\
     \"merged\":%d,\"deduped\":%d,\"queue_high_water\":%d}"
    s.jobs s.replay_wall_ns s.speculated s.spec_txs_per_sec s.hit_rate_pct s.perfect
    s.imperfect s.missed s.unheard s.cancelled s.merged s.deduped s.high_water

let json_of_workload (pw : par_workload) =
  Printf.sprintf
    "{\"workload\":\"%s\",\"jobs\":%d,\"static_partition\":%b,\"blocks\":%d,\"txs\":%d,\
     \"aborted\":%d,\"forced\":%d,\"reruns\":%d,\"static_serial\":%d,\"ap_hits\":%d,\
     \"abort_rate_pct\":%.3f,\"seq_wall_ns\":%d,\"par_wall_ns\":%d,\"speedup\":%.3f,\
     \"roots_match\":%b}"
    pw.pw_name pw.pw_jobs pw.pw_static pw.pw_blocks pw.pw_txs pw.pw_aborted pw.pw_forced
    pw.pw_reruns pw.pw_static_serial pw.pw_ap_hits pw.pw_abort_rate_pct pw.pw_seq_wall_ns
    pw.pw_par_wall_ns pw.pw_speedup pw.pw_roots_match

let to_json c =
  Printf.sprintf
    "{%s,\"seq\":%s,\"par\":%s,\"throughput_ratio\":%.3f,\
     \"outcomes_match\":%b,\"blocks_match\":%b,\"parallel_blocks\":[%s]}"
    (meta_header ~experiment:"sched" ())
    (json_of_run c.seq) (json_of_run c.par) c.throughput_ratio
    c.outcomes_match c.blocks_match
    (String.concat "," (List.map json_of_workload c.parallel))

(* Anchor an output artifact at the repo root — the nearest ancestor
   directory holding a dune-project — so `dune exec bench/main.exe` leaves
   BENCH_sched.json in the same place no matter where it was invoked from
   (the old cwd-relative path scattered or lost the file). *)
let at_repo_root file =
  let rec walk dir =
    if Sys.file_exists (Filename.concat dir "dune-project") then Some dir
    else
      let up = Filename.dirname dir in
      if String.equal up dir then None else walk up
  in
  match walk (Sys.getcwd ()) with
  | Some root -> Filename.concat root file
  | None -> file

let write_json ~file c =
  let oc = open_out file in
  output_string oc (to_json c);
  output_char oc '\n';
  close_out oc
