(* Shared measurement plumbing: clocks, order statistics, the correctness
   tally, metric records and read access to the Obs registry. *)

let now_ns () = Int64.to_int (Obs.now_ns ())

let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)

let secs ns = float_of_int ns /. 1e9
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let pct a b = 100.0 *. ratio a b
let fratio a b = if b = 0.0 then 0.0 else a /. b

let median = function
  | [] -> 0.0
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile of integer samples. *)
let percentile samples p =
  let a = Array.of_list samples in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0
  else
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let sum = List.fold_left ( + ) 0

(* Passes over the same input give each transaction one time per pass,
   at the same position.  Take each position's median over the passes,
   then the [p]th percentile over positions: a transaction's own cost,
   with spikes that hit it in single passes (a preemption, a collection
   landing on it) voted out. *)
let steady_percentile (passes : int array list) p =
  match passes with
  | [] -> 0
  | first :: _ ->
    percentile
      (List.init (Array.length first) (fun i ->
           int_of_float (median (List.map (fun a -> float_of_int a.(i)) passes))))
      p

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

(* Every correctness check of a run: a state root against its oracle, a
   receipt status, a replay that must not raise. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let check t ok what =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    Printf.eprintf "correctness check failed: %s\n%!" what
  end

(* ---- Obs registry reads ----

   Counters are read through their handles; spans are only exposed through
   the registry's JSON rendering, so their aggregate fields are scanned out
   of it by label. *)

let counter name = Obs.count (Obs.counter name)

let find_sub s sub =
  let n = String.length s and k = String.length sub in
  let rec go i = if i + k > n then None else if String.sub s i k = sub then Some i else go (i + 1) in
  go 0

(* [(count, total_ns)] of the span labelled [name]; zeros when it never ran. *)
let span name =
  let json = Obs.to_json () in
  match find_sub json (Printf.sprintf "\"%s\":{\"count\":" name) with
  | None -> (0, 0)
  | Some i ->
    let rest = String.sub json i (String.length json - i) in
    Scanf.sscanf rest "%S:{\"count\":%d,\"total_ns\":%d" (fun _ c t -> (c, t))

(* Mean span duration in milliseconds. *)
let span_mean_ms name =
  let c, t = span name in
  if c = 0 then 0.0 else float_of_int t /. float_of_int c /. 1e6

let traced f =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) f

(* ---- host speed ----

   The benchmark shares its host with other tenants.  Their memory traffic
   slows allocation- and cache-bound code like this program's by up to
   1.7x, for seconds to minutes at a time, while an ALU loop barely moves.
   So a fixed probe that owes nothing to the library (fill a hash table
   with string keys, then read each one back) runs between units of work,
   and every reported time is scaled by [probe_ref_us / median probe]: the
   time the work would take on a host where the probe takes
   [probe_ref_us], a round figure near the probe's median on the 2-vCPU
   virtual machine the bounds were set on.  The traced run reports the
   probe's own median as [host.probe_us]. *)

let probe_ref_us = 2500.0

let probe_once () =
  let n = 4000 in
  let h = Hashtbl.create 1024 in
  for i = 1 to n do
    Hashtbl.replace h (string_of_int (i * 7919)) [ i; i + 1 ]
  done;
  for i = 1 to n do
    ignore (Sys.opaque_identity (Hashtbl.find h (string_of_int (i * 7919))))
  done

(* The probe times of one phase of a run. *)
type host = { mutable probes : float list }

let host () = { probes = [] }

let probe ?(n = 1) h =
  for _ = 1 to n do
    let (), ns = time probe_once in
    h.probes <- (float_of_int ns /. 1e3) :: h.probes
  done

let probe_us h = median h.probes

(* Multiply a time measured during the phase by this. *)
let host_scale h = probe_ref_us /. probe_us h

(* The largest the major heap has been in this process. *)
let peak_heap_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. float_of_int (Sys.word_size / 8) /. 1e6

(* ---- blocks ---- *)

(* One unit of block-level work: a transaction list applied on top of
   [parent] in [bk], which must commit to [root]. *)
type block = {
  bk : State.Statedb.Backend.t;
  parent : string;
  benv : Evm.Env.block_env;
  txs : Evm.Env.tx list;
  root : string;
}

let block_hash n = U256.of_int64 n

let canonical_blocks (record : Netsim.Record.t) =
  let bs =
    Array.to_list record.events
    |> List.filter_map (function
         | Netsim.Record.Block (_, b) when Netsim.Record.is_canonical record b -> Some b
         | Netsim.Record.Block _ | Netsim.Record.Heard _ | Netsim.Record.Tick _ -> None)
    |> List.sort (fun (a : Chain.Block.t) b -> compare a.header.number b.header.number)
  in
  let parent = ref record.genesis_root in
  List.map
    (fun (b : Chain.Block.t) ->
      let blk =
        {
          bk = record.backend;
          parent = !parent;
          benv = Chain.Stf.block_env_of_header b.header ~block_hash;
          txs = b.txs;
          root = b.header.state_root;
        }
      in
      parent := b.header.state_root;
      blk)
    bs

let n_txs blocks = sum (List.map (fun b -> List.length b.txs) blocks)

(* Trace-execute [tx] on [st] and roll it back: the speculator's
   pre-execution.  Returns the receipt, the trace and the execution time. *)
let pre_execute st benv tx =
  let snap = State.Statedb.snapshot st in
  let sink, get = Evm.Trace.collector () in
  let receipt, ns = time (fun () -> Evm.Processor.execute_tx ~trace:sink st benv tx) in
  State.Statedb.revert st snap;
  (receipt, get (), ns)

let ap_of_path path =
  let ap = Ap.Program.create () in
  Ap.Program.add_path ap path;
  ap
