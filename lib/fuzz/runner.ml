(* The scenario runner: the one harness behind `forerunner fuzz`, the CI
   lane aliases and the alcotest oracles.

   A scenario is installed once and executed once by the reference
   interpreter (the decoded engine), committing after every transaction.
   That chain — each tx's pre-state root, receipt and post-state root — is
   what every lane checks.  A lane is one checker over the chain:

     Legacy     the legacy match-dispatch interpreter on its own chain:
                receipts, roots and touched-account sets equal the
                reference's (also over raw bytecode: {!diff_code})
     Sevm       S-EVM build + linear replay on its own chain, ditto
     Ap         AP compile + fast-path execution: the satisfied context
                with and without memos, one constrained slot perturbed (a
                Hit must still match the EVM there, a Violation must leave
                the state untouched for fallback), and a path built warm
                replayed cold (a warmth guard must trip), and the
                template served at the smallest gas limit its envelope
                admits (a Hit equal to the EVM) and one gas below (a
                Violation)
     Verifier   Analysis.Verify on every built path and its program
     Sched      speculation through lib/sched at jobs=1 vs jobs=4: AP
                fingerprints, outcomes and fast-path receipts identical
     Apply      the scenario as one block: Stf.apply_txs_parallel with
                static partitioning off and on, at jobs=1 and jobs=4,
                roots and receipts byte-identical to Stf.apply_txs
     Footprint  lib/bca's static footprint covers every runtime touch and
                committed change, calldata/selector independence claims
                survive witness flips, plus four handcrafted sentinels

   Legacy, Sevm, Ap and Verifier together are the paper's CD-Equiv claim
   checked empirically ({!oracle}).  Builder "Unsupported" results are
   not findings: the real system falls back to the EVM there, and so do
   the lanes (counted).

   A seeded {!fault} switches one global test hook on for a run; each
   fault names the lane and finding kind that must reject it, and
   {!verdict} is the one judge of that contract. *)

open State

type lane = Legacy | Sevm | Ap | Verifier | Sched | Apply | Footprint

let lane_name = function
  | Legacy -> "legacy"
  | Sevm -> "sevm"
  | Ap -> "ap"
  | Verifier -> "verifier"
  | Sched -> "sched"
  | Apply -> "apply"
  | Footprint -> "footprint"

(* The differential oracle behind `forerunner fuzz` and @fuzz. *)
let oracle = [ Legacy; Sevm; Ap; Verifier ]

type finding = { ctx : string; lane : lane; field : string; detail : string }

let pp_finding ppf f = Fmt.pf ppf "%s [%s] %s: %s" f.ctx (lane_name f.lane) f.field f.detail

type tally = {
  mutable scenarios : int;
  mutable txs : int;
  mutable fallbacks : int;  (** builder Unsupported: EVM fallback, nothing to check *)
  mutable perturbed_hits : int;
  mutable perturbed_violations : int;
  mutable warm_violations : int;
      (** paths built under a warmer entry state (prewarm) that correctly
          tripped a warmth guard when replayed cold *)
  mutable programs : int;  (** APs the verifier checked *)
  mutable mutated : int;  (** ... of which with a fault in effect *)
  mutable fingerprints : int;  (** AP fingerprints compared, jobs=1 vs jobs=4 *)
  mutable aborted : int;  (** parallel-apply conflict aborts *)
  mutable forced : int;  (** parallel-apply forced sequential reruns *)
  mutable apply_ap_hits : int;  (** parallel-apply commits through the AP fast path *)
  mutable touches : int;  (** runtime touches tested against footprints *)
  mutable changes : int;  (** committed changes tested against write sets *)
  mutable wild : int;  (** predictions that collapsed to the wild footprint *)
  mutable flips : int;  (** calldata-fact witness re-executions *)
  mutable boundary_serves : int;
      (** templates served at the smallest gas limit their envelope admits *)
}

let new_tally () =
  { scenarios = 0; txs = 0; fallbacks = 0; perturbed_hits = 0; perturbed_violations = 0;
    warm_violations = 0; programs = 0; mutated = 0; fingerprints = 0; aborted = 0;
    forced = 0; apply_ap_hits = 0; touches = 0; changes = 0; wild = 0; flips = 0;
    boundary_serves = 0 }

let obs_txs = Obs.counter "fuzz.txs"

(* ---- seeded faults ---- *)

type fault =
  | Add  (** ADD miscompiled in the AP executor (Ap.Exec.miscompile_add_for_tests) *)
  | Drop_guard  (** the first guard removed from every path the verifier sees *)
  | Narrow of Bca.narrowing  (** one bca analysis domain made unsound *)

let faults =
  [ Add; Drop_guard; Narrow Bca.N_cfg; Narrow Bca.N_stack; Narrow Bca.N_footprint;
    Narrow Bca.N_calldata ]

let fault_name = function
  | Add -> "add"
  | Drop_guard -> "drop-guard"
  | Narrow n -> Bca.narrowing_name n

(* The findings that must reject each fault, as (lane, field) with [None]
   accepting any field: the ADD fault diverges the fast path and makes
   memo replay disagree with trace-recorded values; a dropped guard leaves
   the read it covered unguarded; a narrowing loses a touch or a
   dependence the footprint lane observes. *)
let rejected_by = function
  | Add -> [ (Ap, None); (Verifier, Some Analysis.Report.(kind_name Memo_soundness)) ]
  | Drop_guard -> [ (Verifier, Some Analysis.Report.(kind_name Guard_coverage)) ]
  | Narrow _ -> [ (Footprint, None) ]

let rejects (lane, field) f =
  f.lane = lane && match field with None -> true | Some k -> String.equal f.field k

let drop_guard_fault = ref false

(* Run [f] with [fault]'s switch on; every switch — and the add_path hook,
   muted under a fault because a raising self-check (the alcotest suite
   installs one) would fire on the deliberately broken programs the lanes
   report themselves — is restored however [f] exits. *)
let with_fault fault f =
  let add = !Ap.Exec.miscompile_add_for_tests
  and drop = !drop_guard_fault
  and narrow = !Bca.seeded_narrowing
  and hook = !Ap.Program.add_path_hook in
  Fun.protect
    ~finally:(fun () ->
      Ap.Exec.miscompile_add_for_tests := add;
      drop_guard_fault := drop;
      Bca.seeded_narrowing := narrow;
      Ap.Program.add_path_hook := hook)
    (fun () ->
      Option.iter
        (fun fault ->
          Ap.Program.add_path_hook := ignore;
          match fault with
          | Add -> Ap.Exec.miscompile_add_for_tests := true
          | Drop_guard -> drop_guard_fault := true
          | Narrow n -> Bca.seeded_narrowing := Some n)
        fault;
      f ())

(* ---- the reference chain ---- *)

(* The speculator's trace-and-revert idiom: trace [tx] on [st] and undo
   it; [build_path] then synthesizes the S-EVM path. *)
let trace ?spec ?(prewarm = []) st benv tx =
  let snap = Statedb.snapshot st in
  let sink, get = Evm.Trace.collector () in
  let receipt = Evm.Processor.execute_tx ?spec ~prewarm ~trace:sink st benv tx in
  Statedb.revert st snap;
  (receipt, get ())

let build_path ?spec ?(prewarm = []) st benv tx =
  let receipt, events = trace ?spec ~prewarm st benv tx in
  Sevm.Builder.build ?spec ~prewarm tx benv events receipt st

(* A block's APs for [Chain.Stf.apply_txs_parallel]: each transaction's
   path built against [st], the block's pre-state, as a node's speculation
   built it while the transaction sat in the pool; none where the builder
   falls back. *)
let block_aps ?spec st benv txs =
  let aps = Hashtbl.create 64 in
  List.iter
    (fun tx ->
      match build_path ?spec st benv tx with
      | Ok path ->
        let ap = Ap.Program.create () in
        Ap.Program.add_path ap path;
        Hashtbl.replace aps (Evm.Env.tx_hash tx) ap
      | Error _ -> ())
    txs;
  fun tx -> Hashtbl.find_opt aps (Evm.Env.tx_hash tx)

type step = {
  idx : int;
  tx : Evm.Env.tx;
  pre : string;  (** committed root before the tx *)
  receipt : Evm.Processor.receipt;  (** the reference receipt *)
  post : string;  (** committed root after it *)
  path : (Sevm.Ir.path, string) result Lazy.t;
      (** built at [pre] on first use, shared by the Sevm, Ap and Verifier
          lanes (a builder fallback is counted once) *)
}

type chain = {
  label : string;
  scenario : Scenario.t;
  spec : Spec.t;
  bk : Statedb.Backend.t;
  root0 : string;
  steps : step list;
}

let benv = Scenario.benv

let install ~tally ~label (s : Scenario.t) : chain =
  let spec = Scenario.spec_of s in
  let bk = Statedb.Backend.create () in
  let root0 = Scenario.install s bk in
  let st = Statedb.create bk ~root:root0 in
  let pre = ref root0 in
  let steps =
    List.mapi
      (fun idx tx ->
        let receipt = Evm.Processor.execute_tx ~spec st benv tx in
        let root = !pre and post = Statedb.commit st in
        pre := post;
        let path =
          lazy
            (let r = build_path ~spec (Statedb.create bk ~root) benv tx in
             if Result.is_error r then tally.fallbacks <- tally.fallbacks + 1;
             r)
        in
        { idx; tx; pre = root; receipt; post; path })
      (Scenario.txs s)
  in
  { label; scenario = s; spec; bk; root0; steps }

(* ---- findings and comparators ---- *)

type out = { tally : tally; mutable found : finding list (* newest first *) }

let emit o lane ~ctx field detail = o.found <- { ctx; lane; field; detail } :: o.found

let tx_ctx c i = Printf.sprintf "%s [%s] tx#%d" c.label c.spec.Spec.name i

let emit_all o lane ~ctx ?(sub = "") diffs =
  List.iter
    (fun (field, detail) ->
      emit o lane ~ctx (if sub = "" then field else sub ^ ":" ^ field) detail)
    diffs

let guarded o lane ~ctx f =
  try f () with exn -> emit o lane ~ctx "exception" (Printexc.to_string exn)

(* The closed address universe a scenario can touch. *)
let universe (s : Scenario.t) =
  List.init Scenario.n_senders Scenario.sender_addr
  @ List.mapi (fun i _ -> Scenario.contract_addr i) s.contracts
  @ [ Scenario.benv.coinbase ]

let fingerprint st addr =
  let buf = Buffer.create 64 in
  Buffer.add_string buf (U256.to_hex (Statedb.get_balance st addr));
  Buffer.add_string buf
    (Printf.sprintf "/n%d/c%d" (Statedb.get_nonce st addr)
       (String.length (Statedb.get_code st addr)));
  for slot = 0 to Scenario.n_slots - 1 do
    let v = Statedb.get_storage st addr (U256.of_int slot) in
    if not (U256.is_zero v) then
      Buffer.add_string buf (Printf.sprintf "/s%d=%s" slot (U256.to_hex v))
  done;
  Buffer.contents buf

(* Accounts whose fingerprint changed between two committed roots, with
   their post-state fingerprints — the touched-account set. *)
let touched_set c ~pre ~post =
  let stp = Statedb.create c.bk ~root:pre and stq = Statedb.create c.bk ~root:post in
  List.filter_map
    (fun a ->
      let p = fingerprint stp a and q = fingerprint stq a in
      if String.equal p q then None else Some (Address.to_hex a ^ ":" ^ q))
    (universe c.scenario)

let root_diffs c ~pre ~ref_root ~got_root =
  if String.equal ref_root got_root then []
  else
    let ref_t = touched_set c ~pre ~post:ref_root in
    let got_t = touched_set c ~pre ~post:got_root in
    if ref_t <> got_t then
      [ ( "touched_accounts",
          Fmt.str "{%a} vs {%a}"
            Fmt.(list ~sep:comma string)
            ref_t
            Fmt.(list ~sep:comma string)
            got_t ) ]
    else [ ("state_root", "roots differ but account fingerprints agree (trie-level skew)") ]

let execute c st tx = Evm.Processor.execute_tx ~spec:c.spec st benv tx

let program_of path =
  let ap = Ap.Program.create () in
  Ap.Program.add_path ap path;
  ap

(* A lane carrying its own statedb forward tx by tx: [exec st ~pre step]
   leaves the tx's effects in [st], whose committed root must then equal
   the reference post-state root. *)
let own_chain o c lane exec =
  let st = Statedb.create c.bk ~root:c.root0 in
  let pre = ref c.root0 in
  List.iter
    (fun step ->
      let ctx = tx_ctx c step.idx in
      guarded o lane ~ctx (fun () ->
          exec st ~pre:!pre ~ctx step;
          let root = Statedb.commit st in
          emit_all o lane ~ctx (root_diffs c ~pre:!pre ~ref_root:step.post ~got_root:root);
          pre := root))
    c.steps

(* ---- Legacy ---- *)

let legacy o c =
  own_chain o c Legacy (fun st ~pre:_ ~ctx step ->
      emit_all o Legacy ~ctx
        (Evm.Processor.receipt_diffs step.receipt
           (Evm.Processor.execute_tx ~engine:Evm.Interp.Legacy ~spec:c.spec st benv step.tx)))

(* A one-contract world: [code] installed at a fixed address next to a
   funded sender; the committed root and the call tx into the contract.
   Raw bytecode (the decoder corners gadget programs never assemble) and
   the footprint sentinels both run in it. *)
let one_contract ~code ~data ~gas_limit ~value =
  let sender = Address.of_int 0xD1FF and target = Address.of_int 0xC0DE0 in
  let bk = Statedb.Backend.create () in
  let st = Statedb.create bk ~root:Statedb.empty_root in
  Statedb.set_balance st sender (U256.of_string "1000000000000000000000");
  Statedb.set_code st target code;
  let tx : Evm.Env.tx =
    { sender; to_ = Some target; nonce = 0; value; data; gas_limit; gas_price = U256.of_int 7 }
  in
  (bk, Statedb.commit st, tx)

let run_code ?spec ~engine ~code ~data ~gas_limit ~value () =
  let spec = match spec with Some s -> s | None -> !Spec.current in
  let bk, root, tx = one_contract ~code ~data ~gas_limit ~value in
  let st = Statedb.create bk ~root in
  let r = Evm.Processor.execute_tx ~engine ~spec st benv tx in
  (r, Statedb.commit st)

let diff_code ?(data = "") ?(gas_limit = 300_000) ?(value = U256.zero) ~tx code =
  let run engine = run_code ~engine ~code ~data ~gas_limit ~value () in
  let r_d, root_d = run Evm.Interp.Decoded and r_l, root_l = run Evm.Interp.Legacy in
  let o = { tally = new_tally (); found = [] } and ctx = Printf.sprintf "raw#%d" tx in
  emit_all o Legacy ~ctx (Evm.Processor.receipt_diffs r_d r_l);
  if not (String.equal root_d root_l) then
    emit o Legacy ~ctx "state_root"
      (Printf.sprintf "decoded %s vs legacy %s" (Sexp.hex_of_string root_d)
         (Sexp.hex_of_string root_l));
  List.rev o.found

(* Biased random bytecode: enough structure that jumps sometimes land and
   storage/logs/calls execute, enough chaos to hit every decoder corner. *)
let random_code rng =
  let buf = Buffer.create 64 in
  let byte b = Buffer.add_char buf (Char.chr (b land 0xff)) in
  let segments = 1 + Random.State.int rng 24 in
  for _ = 1 to segments do
    match Random.State.int rng 10 with
    | 0 ->
      (* raw noise, including unassigned bytes *)
      for _ = 0 to Random.State.int rng 6 do
        byte (Random.State.int rng 256)
      done
    | 1 ->
      (* PUSHk with full immediate — sometimes containing 0x5b bytes, so
         push data that looks like JUMPDEST must stay unjumpable *)
      let k = 1 + Random.State.int rng 32 in
      byte (0x5f + k);
      for _ = 1 to k do
        byte (if Random.State.int rng 3 = 0 then 0x5b else Random.State.int rng 256)
      done
    | 2 ->
      (* a plausible jump: push a small target, JUMP or JUMPI *)
      byte 0x60;
      byte (Random.State.int rng 96);
      if Random.State.int rng 2 = 0 then byte 0x56
      else begin
        byte 0x60;
        byte (Random.State.int rng 2);
        byte 0x57
      end
    | 3 ->
      (* an out-of-range jump *)
      byte 0x61;
      byte 0xff;
      byte (Random.State.int rng 256);
      byte 0x56
    | 4 -> byte 0x5b (* JUMPDEST sprinkle *)
    | 5 ->
      (* storage traffic: PUSH1 v PUSH1 k SSTORE / PUSH1 k SLOAD *)
      byte 0x60;
      byte (Random.State.int rng 256);
      byte 0x60;
      byte (Random.State.int rng 8);
      byte (if Random.State.int rng 2 = 0 then 0x55 else 0x54)
    | 6 ->
      (* memory + hash: PUSH1 len PUSH1 off SHA3 / MLOAD / MSTORE *)
      byte 0x60;
      byte (Random.State.int rng 64);
      byte 0x60;
      byte (Random.State.int rng 64);
      byte (match Random.State.int rng 3 with 0 -> 0x20 | 1 -> 0x51 | _ -> 0x52)
    | 7 ->
      (* stack shuffle from the valid pool *)
      let pool =
        [| 0x01; 0x02; 0x03; 0x04; 0x06; 0x0a; 0x0b; 0x10; 0x14; 0x15; 0x16; 0x19; 0x1b;
           0x1c; 0x1d; 0x30; 0x32; 0x33; 0x34; 0x36; 0x38; 0x3a; 0x3d; 0x41; 0x42; 0x43;
           0x45; 0x46; 0x47; 0x50; 0x58; 0x59; 0x5a; 0x80; 0x81; 0x8f; 0x90; 0x91; 0x9f;
           0xa0; 0xa1 |]
      in
      byte 0x60;
      byte (Random.State.int rng 256);
      let op = pool.(Random.State.int rng (Array.length pool)) in
      byte op;
      (* DUP1 followed by a binop *)
      if op = 0x80 then begin
        let binops = [| 0x01; 0x02; 0x03; 0x04; 0x10; 0x11; 0x14; 0x16; 0x17; 0x18 |] in
        byte binops.(Random.State.int rng (Array.length binops))
      end
    | 8 ->
      (* call-family with junk operands (fails fast, exercises arity) *)
      for _ = 1 to 7 do
        byte 0x60;
        byte (Random.State.int rng 32)
      done;
      byte [| 0xf1; 0xf2; 0xf4; 0xfa; 0xf0; 0xf3; 0xfd |].(Random.State.int rng 7)
    | _ ->
      (* terminator-ish *)
      byte [| 0x00; 0xfe; 0xff |].(Random.State.int rng 3)
  done;
  (* one in four programs ends mid-immediate: the truncated-PUSH tail *)
  if Random.State.int rng 4 = 0 then begin
    let k = 2 + Random.State.int rng 31 in
    byte (0x5f + k);
    for _ = 1 to Random.State.int rng (k - 1) do
      byte (Random.State.int rng 256)
    done
  end;
  Buffer.contents buf

let random_data rng =
  String.init (Random.State.int rng 68) (fun _ -> Char.chr (Random.State.int rng 256))

(* ---- Sevm ---- *)

let sevm o c =
  own_chain o c Sevm (fun st ~pre:_ ~ctx step ->
      match Lazy.force step.path with
      | Error _ ->
        emit_all o Sevm ~ctx ~sub:"fallback"
          (Evm.Processor.receipt_diffs step.receipt (execute c st step.tx))
      | Ok path -> (
        match Sevm.Replay.run ~spec:c.spec path st benv step.tx with
        | Sevm.Replay.Replayed r ->
          emit_all o Sevm ~ctx (Evm.Processor.receipt_diffs step.receipt r)
        | Sevm.Replay.Violated v ->
          (* the path was synthesized against this very state — every
             guard must hold *)
          emit o Sevm ~ctx "spurious_violation" (Fmt.str "guard %d: %s" v.index v.detail);
          ignore (execute c st step.tx)))

(* ---- Ap ---- *)

(* Storage slot to perturb for the violated-context run: prefer one the
   constraint section depends on (flipping it must trip a guard); fall
   back to any storage read (fast-path reads evaluate live at AP-exec
   time, so a Hit must still match the EVM on the perturbed state). *)
let constrained_slot (p : Sevm.Ir.path) =
  let found = ref None in
  (try
     for i = 0 to Array.length p.instrs - 1 do
       match p.instrs.(i) with
       | Sevm.Ir.Read (_, Sevm.Ir.R_storage (addr, key)) ->
         if i < p.first_fast then begin
           found := Some (addr, key);
           raise Exit
         end
         else if !found = None then found := Some (addr, key)
       | _ -> ()
     done
   with Exit -> ());
  !found

(* Flip one constrained slot: a Violation must leave the state untouched,
   so the fallback equals a plain EVM run; a Hit (the slot was not
   constraint-relevant) must still match the EVM on the perturbed state. *)
let perturbed o c ~pre ~ctx step ap (addr, key) =
  let perturb () =
    let st = Statedb.create c.bk ~root:pre in
    Statedb.set_storage st addr key (U256.add (Statedb.get_storage st addr key) U256.one);
    st
  in
  let st_ap = perturb () in
  let sub, got =
    match Ap.Exec.execute ~spec:c.spec ap st_ap benv step.tx with
    | Ap.Exec.Violation ->
      o.tally.perturbed_violations <- o.tally.perturbed_violations + 1;
      ("perturbed-fallback", execute c st_ap step.tx)
    | Ap.Exec.Hit (r, _) ->
      o.tally.perturbed_hits <- o.tally.perturbed_hits + 1;
      ("perturbed-hit", r)
  in
  let st_ref = perturb () in
  emit_all o Ap ~ctx ~sub (Evm.Processor.receipt_diffs (execute c st_ref step.tx) got);
  if not (String.equal (Statedb.commit st_ap) (Statedb.commit st_ref)) then
    emit o Ap ~ctx (sub ^ ":state_root") "perturbed-context state differs from plain EVM"

(* Rebuild the path with one constrained slot prewarmed: the builder
   specializes to the warmer entry state (cheaper SLOAD) and must pin it
   with a warmth guard, so replaying COLD must fall back via Violation —
   silently replaying would mis-charge gas.  Only meaningful under forks
   with access-list tracking. *)
let warm_cold o c ~pre ~ctx step (addr, key) =
  let prewarm = [ (addr, Some key) ] in
  match build_path ~spec:c.spec ~prewarm (Statedb.create c.bk ~root:pre) benv step.tx with
  | Error _ -> ()
  | Ok wpath -> (
    let st_cold = Statedb.create c.bk ~root:pre in
    match Ap.Exec.execute ~spec:c.spec (program_of wpath) st_cold benv step.tx with
    | Ap.Exec.Violation ->
      o.tally.warm_violations <- o.tally.warm_violations + 1;
      (* untouched state: the cold fallback must equal the reference run *)
      emit_all o Ap ~ctx ~sub:"warm-fallback"
        (Evm.Processor.receipt_diffs step.receipt (execute c st_cold step.tx))
    | Ap.Exec.Hit (r, _) ->
      (* no warmth guard fired: only sound if the warm-built path charges
         exactly like the cold EVM run *)
      emit_all o Ap ~ctx ~sub:"warm-built-cold-replay"
        (Evm.Processor.receipt_diffs step.receipt r))

(* Serve the template traced from a message-call step at the smallest
   gas limit its envelope admits, and one gas below.  A trace with no call
   frame and no GAS step admits exactly its execution charge (limit =
   gas_used + raw refund); any other trace admits only its traced limit.
   At the boundary the serve must Hit with the interpreter's receipt and
   root at that limit; one gas lower it must be a Violation that leaves
   the state untouched.  The lane reads the envelope off the trace itself
   rather than asking the builder, so a builder that widens it wrongly
   is caught. *)
let boundary o c ~pre ~ctx step =
  let st = Statedb.create c.bk ~root:pre in
  let receipt, events = trace ~spec:c.spec st benv step.tx in
  match
    Sevm.Builder.build ~spec:c.spec ~template:true step.tx benv events receipt st
  with
  | Error _ -> ()
  | Ok tpath ->
    let exact =
      Array.for_all
        (function
          | Evm.Trace.Step { op = Evm.Op.GAS; _ } -> false
          | Evm.Trace.Step _ -> true
          | Evm.Trace.Call_enter _ | Evm.Trace.Call_exit _ -> false)
        events
    in
    let limit =
      if exact then receipt.gas_used + receipt.gas_refund else step.tx.gas_limit
    in
    let tp = program_of tpath and tx = { step.tx with gas_limit = limit } in
    o.tally.boundary_serves <- o.tally.boundary_serves + 1;
    (let st_tp = Statedb.create c.bk ~root:pre and st_ref = Statedb.create c.bk ~root:pre in
     let r_ref = execute c st_ref tx in
     match Ap.Exec.execute ~spec:c.spec tp st_tp benv tx with
     | Ap.Exec.Violation ->
       emit o Ap ~ctx "boundary:violation"
         (Fmt.str "template refused the limit %d its envelope admits" limit)
     | Ap.Exec.Hit (r, _) ->
       emit_all o Ap ~ctx ~sub:"boundary" (Evm.Processor.receipt_diffs r_ref r);
       emit_all o Ap ~ctx ~sub:"boundary"
         (root_diffs c ~pre ~ref_root:(Statedb.commit st_ref)
            ~got_root:(Statedb.commit st_tp)));
    let st_below = Statedb.create c.bk ~root:pre in
    match
      Ap.Exec.execute ~spec:c.spec tp st_below benv { tx with gas_limit = limit - 1 }
    with
    | Ap.Exec.Hit _ ->
      emit o Ap ~ctx "boundary:below_hit"
        (Fmt.str "template served limit %d, one gas below its envelope" (limit - 1))
    | Ap.Exec.Violation ->
      if not (String.equal (Statedb.commit st_below) pre) then
        emit o Ap ~ctx "boundary:below_state" "a Violation below the envelope wrote state"

let spurious = "violation in the very context the path was built from"

let ap o c =
  own_chain o c Ap (fun st ~pre ~ctx step ->
      if step.tx.to_ <> None then boundary o c ~pre ~ctx step;
      match Lazy.force step.path with
      | Error _ ->
        emit_all o Ap ~ctx ~sub:"fallback"
          (Evm.Processor.receipt_diffs step.receipt (execute c st step.tx))
      | Ok path -> (
        let ap = program_of path in
        Option.iter (perturbed o c ~pre ~ctx step ap) (constrained_slot path);
        if c.spec.Spec.has_access_lists then
          Option.iter (warm_cold o c ~pre ~ctx step) (constrained_slot path);
        (* satisfied context, memoization disabled: every instruction
           actually executes *)
        (let st_nm = Statedb.create c.bk ~root:pre in
         match Ap.Exec.execute ~spec:c.spec ~use_memos:false ap st_nm benv step.tx with
         | Ap.Exec.Violation -> emit o Ap ~ctx "nomemo:spurious_violation" spurious
         | Ap.Exec.Hit (r, _) ->
           emit_all o Ap ~ctx ~sub:"nomemo" (Evm.Processor.receipt_diffs step.receipt r);
           emit_all o Ap ~ctx ~sub:"nomemo"
             (root_diffs c ~pre ~ref_root:step.post ~got_root:(Statedb.commit st_nm)));
        (* satisfied context with memoization, carrying state forward *)
        match Ap.Exec.execute ~spec:c.spec ap st benv step.tx with
        | Ap.Exec.Violation ->
          emit o Ap ~ctx "spurious_violation" spurious;
          ignore (execute c st step.tx)
        | Ap.Exec.Hit (r, _) ->
          emit_all o Ap ~ctx (Evm.Processor.receipt_diffs step.receipt r)))

(* ---- Verifier ---- *)

(* Builder output that fails a fast-path invariant is a finding even if
   the dynamic lanes happen to agree. *)
let verifier o c =
  List.iter
    (fun step ->
      let ctx = tx_ctx c step.idx in
      guarded o Verifier ~ctx (fun () ->
          match Lazy.force step.path with
          | Error _ -> ()
          | Ok path ->
            let dropped =
              if !drop_guard_fault then Analysis.Mutate.drop_guard path else None
            in
            let path = Option.value dropped ~default:path in
            o.tally.programs <- o.tally.programs + 1;
            if dropped <> None || !Ap.Exec.miscompile_add_for_tests then
              o.tally.mutated <- o.tally.mutated + 1;
            List.iter
              (fun (v : Analysis.Report.violation) ->
                emit o Verifier ~ctx (Analysis.Report.kind_name v.kind)
                  (v.site ^ ": " ^ v.detail))
              (Analysis.Verify.verify_path path @ Analysis.Verify.verify (program_of path))))
    c.steps

(* ---- Sched ---- *)

(* Speculation exactly as in the node: each tx against its pre-state root
   on a private statedb over the shared backend, results drained in
   submission order. *)
type speculated = {
  fp : string option;  (** AP structural fingerprint; [None] on builder fallback *)
  outcome : string;  (** ["hit"] / ["violation"] / ["fallback"] / ["exn:..."] *)
  status : string;
  gas_used : int;
  output_hex : string;
}

let speculate c step () =
  let st = Statedb.create c.bk ~root:step.pre in
  let of_receipt fp outcome (r : Evm.Processor.receipt) =
    { fp; outcome; status = Fmt.str "%a" Evm.Processor.pp_status r.status;
      gas_used = r.gas_used; output_hex = Sexp.hex_of_string r.output }
  in
  match build_path ~spec:c.spec st benv step.tx with
  | Error _ -> of_receipt None "fallback" (execute c st step.tx)
  | Ok path -> (
    let ap = program_of path in
    let fp = Some (Ap.Program.fingerprint ap) in
    let st_exec = Statedb.create c.bk ~root:step.pre in
    match Ap.Exec.execute ~spec:c.spec ap st_exec benv step.tx with
    | Ap.Exec.Violation ->
      { fp; outcome = "violation"; status = ""; gas_used = 0; output_hex = "" }
    | Ap.Exec.Hit (r, _) -> of_receipt fp "hit" r)

let speculate_all c ~jobs =
  let sched : speculated Sched.t = Sched.create ~jobs () in
  List.iter
    (fun step ->
      Sched.submit sched ~hash:(Evm.Env.tx_hash step.tx) (speculate c step))
    c.steps;
  Sched.barrier sched;
  List.map
    (fun (r : speculated Sched.result) ->
      match r.r_value with
      | Ok v -> v
      | Error e ->
        { fp = None; outcome = "exn:" ^ Printexc.to_string e; status = ""; gas_used = 0;
          output_hex = "" })
    (Sched.drain sched)

let par_jobs = 4

let sched o c =
  guarded o Sched ~ctx:c.label @@ fun () ->
  let seq = speculate_all c ~jobs:1 and par = speculate_all c ~jobs:par_jobs in
  List.iteri
    (fun i (a, b) ->
      let ctx = tx_ctx c i in
      let diff field x y =
        if not (String.equal x y) then
          emit o Sched ~ctx field (Printf.sprintf "jobs=1 %s vs jobs=%d %s" x par_jobs y)
      in
      (match (a.fp, b.fp) with
      | Some fa, Some fb ->
        o.tally.fingerprints <- o.tally.fingerprints + 1;
        diff "ap_fingerprint" (Sexp.hex_of_string fa) (Sexp.hex_of_string fb)
      | None, None -> ()
      | fa, fb ->
        let built = function None -> "fallback" | Some _ -> "built" in
        diff "ap_built" (built fa) (built fb));
      diff "outcome" a.outcome b.outcome;
      diff "status" a.status b.status;
      diff "gas_used" (string_of_int a.gas_used) (string_of_int b.gas_used);
      diff "output" a.output_hex b.output_hex)
    (List.combine seq par)

(* ---- Apply ---- *)

(* The scenario's whole batch as one block: the conflict-aware parallel
   apply must commit the sequential apply's root and receipts byte for
   byte — inline (the commit protocol in isolation) and on worker domains,
   with and without lib/bca static pre-partitioning.  Every transaction
   carries its AP built on the scenario's pre-state, so both the
   speculative phase and the commit loop's reruns take the fast path
   where its constraints still hold. *)
let apply o c =
  let ctx = Printf.sprintf "%s [%s] block" c.label c.spec.Spec.name in
  guarded o Apply ~ctx @@ fun () ->
  let txs = List.map (fun s -> s.tx) c.steps in
  let seq = Chain.Stf.apply_txs ~spec:c.spec (Statedb.create c.bk ~root:c.root0) benv txs in
  let ap = block_aps ~spec:c.spec (Statedb.create c.bk ~root:c.root0) benv txs in
  List.iter
    (fun jobs ->
      let pool = Chain.Stf.create_pool ~jobs () in
      List.iter
        (fun static_partition ->
          let par, (stats : Chain.Stf.par_stats) =
            Chain.Stf.apply_txs_parallel ~pool ~ap ~spec:c.spec ~static_partition
              (Statedb.create c.bk ~root:c.root0)
              benv txs
          in
          o.tally.aborted <- o.tally.aborted + stats.par_aborted;
          o.tally.forced <- o.tally.forced + stats.par_forced;
          o.tally.apply_ap_hits <-
            o.tally.apply_ap_hits + stats.par_ap_hits + stats.par_inline_ap_hits;
          let sub = Printf.sprintf "jobs=%d,static=%b" jobs static_partition in
          if not (String.equal seq.Chain.Stf.state_root par.Chain.Stf.state_root) then
            emit o Apply ~ctx (sub ^ ":state_root")
              (Fmt.str "%s vs %s" (Sexp.hex_of_string seq.state_root)
                 (Sexp.hex_of_string par.state_root));
          if seq.gas_used <> par.gas_used then
            emit o Apply ~ctx (sub ^ ":block_gas")
              (Fmt.str "%d vs %d" seq.gas_used par.gas_used);
          List.iteri
            (fun i (a, b) ->
              emit_all o Apply ~ctx:(tx_ctx c i) ~sub (Evm.Processor.receipt_diffs a b))
            (List.combine seq.receipts par.receipts))
        [ false; true ])
    [ 1; par_jobs ]

(* ---- Footprint ---- *)

let pp_touch ppf = function
  | Statedb.T_account a -> Fmt.pf ppf "account %s" (Address.to_hex a)
  | Statedb.T_code a -> Fmt.pf ppf "code %s" (Address.to_hex a)
  | Statedb.T_slot (a, k) -> Fmt.pf ppf "slot %s[%s]" (Address.to_hex a) (U256.to_hex k)

(* Flip one nonzero byte of [data] inside [off..off+len), to a different
   nonzero value — preserving the zero/nonzero status of every byte, hence
   intrinsic gas and the apstore zeroness classes.  None when the window
   holds no nonzero byte (a flip would change the intrinsic class). *)
let flip_nonzero data ~off ~len =
  let hi = min (off + len) (String.length data) in
  let rec find i = if i >= hi then None else if data.[i] <> '\000' then Some i else find (i + 1) in
  match find off with
  | None -> None
  | Some i ->
    let b = Bytes.of_string data in
    Bytes.set b i (if data.[i] = '\001' then '\002' else '\001');
    Some (Bytes.to_string b)

(* One interpreter execution on a fresh cold statedb at [root]: receipt,
   executed-step count, touch log, change set, and the statedb (not yet
   committed). *)
let tracked bk ~root ~spec tx =
  let st = Statedb.create bk ~root in
  Statedb.set_tracking st true;
  let steps = ref 0 in
  let sink : Evm.Trace.sink = function
    | Evm.Trace.Step _ | Evm.Trace.Call_enter _ -> incr steps
    | Evm.Trace.Call_exit _ -> ()
  in
  let mark = Statedb.snapshot st in
  let receipt = Evm.Processor.execute_tx ~spec ~trace:sink st benv tx in
  (receipt, !steps, Statedb.touches st, Statedb.changes_since st mark, st)

(* The bca prediction, computed before execution from code alone, must
   cover the runtime touch log and the committed change set.  The calldata
   facts claim non-dependence, which a footprint cannot show, so they get
   witness re-executions instead:
   - [f_reads_selector = false]: flipping a nonzero selector byte leaves
     the receipt and the committed root byte-identical;
   - word k not in [f_cf_words] (and not [f_cf_top]): flipping a nonzero
     byte of ABI word k leaves the executed-step count and the status
     unchanged (only control flow is claimed). *)
let footprint_tx o ~ctx ~spec bk ~root ?post (tx : Evm.Env.tx) =
  let st0 = Statedb.create bk ~root in
  let pred = Bca.predict_tx ~spec ~coinbase:benv.Evm.Env.coinbase st0 tx in
  let receipt, steps, touches, changes, st = tracked bk ~root ~spec tx in
  (* the committed post-state root, when the caller does not know it *)
  let post = lazy (match post with Some p -> p | None -> Statedb.commit st) in
  let t = o.tally in
  t.touches <- t.touches + List.length touches;
  t.changes <- t.changes + List.length changes;
  if pred.Bca.p_wild then t.wild <- t.wild + 1;
  List.iter
    (fun touch ->
      if not (Bca.covers_touch pred touch) then
        emit o Footprint ~ctx "read" (Fmt.str "footprint misses runtime read: %a" pp_touch touch))
    touches;
  List.iter
    (fun (ch : Statedb.change) ->
      if not (Bca.covers_change pred ch) then
        emit o Footprint ~ctx "write"
          (Fmt.str "footprint misses runtime write: account %s%s" (Address.to_hex ch.ch_addr)
             (match ch.ch_slots with
             | [] -> ""
             | slots ->
               Fmt.str " slots [%a]"
                 Fmt.(list ~sep:comma (fun ppf (k, _) -> Fmt.string ppf (U256.to_hex k)))
                 slots)))
    changes;
  (* witnesses only for plain message calls into real code, with an
     executed baseline and enough gas headroom that a value-dependent
     dynamic charge cannot tip the flipped run into OOG *)
  match tx.to_ with
  | Some target
    when (not (Evm.Interp.is_precompile target))
         && String.length (Statedb.get_code st0 target) > 0
         && (match receipt.status with Evm.Processor.Invalid _ -> false | _ -> true)
         && tx.gas_limit - receipt.gas_used >= 100_000 ->
    let f =
      Bca.facts_for ~spec ~hash:(Statedb.get_code_hash st0 target) (Statedb.get_code st0 target)
    in
    let flipped data' =
      t.flips <- t.flips + 1;
      tracked bk ~root ~spec { tx with data = data' }
    in
    if not (f.Bca.f_wild || f.Bca.f_cf_top) then begin
      let len = String.length tx.data in
      if (not f.Bca.f_reads_selector) && len > 0 then
        Option.iter
          (fun data' ->
            let r', _, _, _, st' = flipped data' in
            if
              Evm.Processor.receipt_diffs receipt r' <> []
              || not (String.equal (Lazy.force post) (Statedb.commit st'))
            then
              emit o Footprint ~ctx "selector_witness"
                "code analyzed as selector-independent, but flipping a selector byte \
                 changed the receipt or the committed root")
          (flip_nonzero tx.data ~off:0 ~len:(min 4 len));
      let n_words = if len > 4 then (len - 4 + 31) / 32 else 0 in
      for k = 0 to min (n_words - 1) 7 do
        if f.Bca.f_cf_words land (1 lsl k) = 0 then
          Option.iter
            (fun data' ->
              let r', steps', _, _, _ = flipped data' in
              if steps <> steps' || not (Evm.Processor.status_equal receipt.status r'.status)
              then
                emit o Footprint ~ctx "calldata_witness"
                  (Fmt.str
                     "word %d analyzed as control-flow-irrelevant, but flipping it changed \
                      the path (%d vs %d steps)"
                     k steps steps'))
            (flip_nonzero tx.data ~off:(4 + (32 * k)) ~len:32)
      done
    end
  | _ -> ()

let footprint o c =
  List.iter
    (fun step ->
      let ctx = tx_ctx c step.idx in
      guarded o Footprint ~ctx (fun () ->
          footprint_tx o ~ctx ~spec:c.spec c.bk ~root:step.pre ~post:step.post step.tx))
    c.steps

(* Sentinels: one handcrafted probe per narrowable bca domain, each a
   minimal contract whose soundness hinges on exactly that domain, so the
   matching narrowing surfaces even if the random sweep dodges it.
   Unnarrowed, all four are ordinary positive cases. *)
let sentinels =
  let open Evm.Asm in
  let abi_word v = String.make 31 '\000' ^ String.make 1 (Char.chr v) in
  [ (* the SSTORE lives only on the JUMPI taken edge (always taken): a cfg
       narrowing dropping taken edges loses the write *)
    ( "cfg-taken-branch",
      assemble
        ([ push_int 1 ] @ jumpi "w"
        @ [ op STOP; label "w"; push_int 7; push_int 3; op SSTORE; op STOP ]),
      "" );
    (* the storage key is the DUP1 copy of a pushed constant: a stack
       narrowing corrupting duplicates pins slot 0 while the runtime
       writes slot 5 *)
    ("stack-dup-key", assemble [ push_int 5; op (DUP 1); op SSTORE; op STOP ], "");
    (* a plain constant-key SSTORE: a footprint narrowing ignores SSTOREs *)
    ("footprint-sstore", assemble [ push_int 9; push_int 2; op SSTORE; op STOP ], "");
    (* control flow branches on ABI word 0 (an exact EQ): a calldata
       narrowing claims no word reaches control flow, so the witness flip
       must change the step count *)
    ( "calldata-eq-branch",
      assemble
        ([ push_int 4; op CALLDATALOAD; push_int 42; op EQ ] @ jumpi "t"
        @ [ op STOP; label "t"; push_int 1; push_int 0; op SSTORE; op STOP ]),
      "\000\000\000\000" ^ abi_word 42 ) ]

let run_sentinels tally =
  let o = { tally; found = [] } in
  List.iter
    (fun (name, code, data) ->
      let bk, root, tx = one_contract ~code ~data ~gas_limit:400_000 ~value:U256.zero in
      tally.scenarios <- tally.scenarios + 1;
      tally.txs <- tally.txs + 1;
      footprint_tx o ~ctx:("sentinel:" ^ name) ~spec:!Spec.current bk ~root tx)
    sentinels;
  List.rev o.found

(* ---- running ---- *)

let lane_fn = function
  | Legacy -> legacy
  | Sevm -> sevm
  | Ap -> ap
  | Verifier -> verifier
  | Sched -> sched
  | Apply -> apply
  | Footprint -> footprint

(* One scenario through [lanes], in order, under whatever fault is in
   effect; counters accumulate into [tally]. *)
let run ?(tally = new_tally ()) ~lanes ~label (s : Scenario.t) : finding list =
  let c = install ~tally ~label s in
  tally.scenarios <- tally.scenarios + 1;
  tally.txs <- tally.txs + List.length c.steps;
  Obs.add obs_txs (List.length c.steps);
  let o = { tally; found = [] } in
  List.iter (fun l -> lane_fn l o c) lanes;
  List.rev o.found

(* The corpus, listed, read and parsed once: every .sexp under [dir] in
   name order (a missing directory is an empty corpus). *)
let load_corpus dir : (string * (Scenario.t, string) result) list =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".sexp")
    |> List.sort String.compare
    |> List.map (fun f ->
           let path = Filename.concat dir f in
           ( path,
             match In_channel.with_open_bin path In_channel.input_all with
             | exception Sys_error e -> Error ("read error: " ^ e)
             | text -> Result.map_error (( ^ ) "parse error: ") (Scenario.of_string text) ))

(* The N-fork matrix: a fork-pinned scenario runs under its fork, an
   unpinned one under every fork. *)
let fan_out (s : Scenario.t) =
  match s.fork with
  | Some _ -> [ s ]
  | None -> List.map (fun f -> { s with Scenario.fork = Some f }) Spec.all_forks

type sweep_result = {
  tally : tally;
  findings : finding list;
  corpus_files : int;
  corpus_errors : (string * string) list;  (** (file, problem) *)
  corpus_failed : string list;  (** corpus entries with at least one finding *)
}

(* The corpus (fanned out across forks), then [iters] generated scenarios.
   Generated scenarios keep the generator's per-scenario random fork,
   except that a sweep with the Footprint lane runs [iters] per fork (and
   the sentinels first). *)
let sweep ~lanes ?fault ~corpus ~seed ~iters () =
  with_fault fault @@ fun () ->
  let tally = new_tally () in
  let found = ref [] in
  let go ~label s =
    let fs = run ~tally ~lanes ~label s in
    found := List.rev_append fs !found;
    fs <> []
  in
  let per_fork = List.mem Footprint lanes in
  if per_fork then found := List.rev (run_sentinels tally);
  let entries = load_corpus corpus in
  let corpus_errors =
    List.filter_map (function path, Error e -> Some (path, e) | _, Ok _ -> None) entries
  in
  let corpus_failed =
    List.filter_map
      (function
        | path, Ok s ->
          if List.fold_left (fun bad s -> go ~label:path s || bad) false (fan_out s) then
            Some path
          else None
        | _, Error _ -> None)
      entries
  in
  let gen ?fork i =
    let s = Generate.seeded ~seed i in
    let s = match fork with None -> s | Some f -> { s with Scenario.fork = Some f } in
    ignore (go ~label:(Printf.sprintf "gen(seed=%d,iter=%d)" seed i) s : bool)
  in
  if per_fork then
    List.iter (fun fork -> for i = 0 to iters - 1 do gen ~fork i done) Spec.all_forks
  else for i = 0 to iters - 1 do gen i done;
  { tally; findings = List.rev !found; corpus_files = List.length entries; corpus_errors;
    corpus_failed }

(* The rejection contract, judged once for every caller.  Without a fault
   the sweep must find nothing.  With one, every (lane, kind) its contract
   names among the [lanes] swept must have rejected it, and at least one
   must have been swept.  An unreadable corpus entry fails either way.
   [Ok] carries one line per rejecting (lane, kind). *)
let verdict ~lanes fault r =
  let unreadable = List.length r.corpus_errors in
  match fault with
  | None when r.findings = [] && unreadable = 0 -> Ok []
  | None ->
    Error
      (Printf.sprintf "%d finding(s), %d unreadable corpus entries" (List.length r.findings)
         unreadable)
  | Some fault when unreadable > 0 ->
    Error (Printf.sprintf "fault %s: %d unreadable corpus entries" (fault_name fault) unreadable)
  | Some fault -> (
    let name = fault_name fault in
    match List.filter (fun (lane, _) -> List.mem lane lanes) (rejected_by fault) with
    | [] -> Error (Printf.sprintf "fault %s: no lane of its contract was swept" name)
    | wants ->
      List.fold_left
        (fun acc ((lane, field) as want) ->
          Result.bind acc @@ fun lines ->
          let kind = Option.value field ~default:"any" in
          match List.filter (rejects want) r.findings with
          | [] ->
            Error
              (Printf.sprintf "FAULT %s NOT REJECTED by %s (%s)" name (lane_name lane) kind)
          | hit :: _ as hits ->
            Ok
              (lines
              @ [ Printf.sprintf "fault %-9s rejected by %s: %d %s finding(s), e.g. %s" name
                    (lane_name lane) (List.length hits) kind hit.ctx ]))
        (Ok []) wants)
