(* Structural tests of accelerated programs: path-to-tree construction,
   merging, memoization alternatives, and executor mechanics — at the level
   of the Ap library itself. *)

module I = Sevm.Ir
open State

let t name f = Alcotest.test_case name `Quick f
let u = U256.of_int

(* Hand-build a tiny path: read slot k of [addr], guard it, compute, write. *)
let addr = Address.of_int 0x77

let mk_path ~guard_value =
  {
    I.instrs =
      [| I.Read (0, I.R_storage (addr, U256.zero)); I.Guard (I.Reg 0, guard_value);
         I.Compute (1, I.C_add, [| I.Reg 0; I.Const (u 1) |]) |];
    first_fast = 2;
    writes = [ I.W_storage (addr, U256.one, I.Reg 1) ];
    status = Evm.Processor.Success;
    gas_used = 21_000;
    gas_used_src = None;
    gas_refund = 0;
    output = [];
    reg_count = 2;
    reg_values = [| guard_value; U256.add guard_value (u 1) |];
    fork = Spec.fork_id Spec.default_fork;
    inputs = [||];
    stats = { I.empty_stats with evm_trace_len = 10 };
  }

let benv : Evm.Env.block_env =
  {
    coinbase = Address.of_int 0xC01;
    timestamp = 0L;
    number = 1L;
    difficulty = U256.one;
    gas_limit = 1_000_000;
    chain_id = 1;
    block_hash = (fun _ -> U256.zero);
  }

let tx : Evm.Env.tx =
  {
    sender = Address.of_int 1;
    to_ = Some addr;
    nonce = 0;
    value = U256.zero;
    data = "";
    gas_limit = 100_000;
    gas_price = U256.one;
  }

let world_with_slot v =
  let bk = Statedb.Backend.create () in
  let st = Statedb.create bk ~root:Statedb.empty_root in
  Statedb.set_storage st addr U256.zero v;
  ignore (Statedb.commit st);
  st

let structure_tests =
  [ t "single path: one root, one leaf" (fun () ->
        let ap = Ap.Program.create () in
        Ap.Program.add_path ap (mk_path ~guard_value:(u 5));
        Alcotest.(check int) "paths" 1 ap.n_paths;
        Alcotest.(check int) "futures" 1 ap.n_futures);
    t "same-guard paths merge without multiplying" (fun () ->
        let ap = Ap.Program.create () in
        Ap.Program.add_path ap (mk_path ~guard_value:(u 5));
        Ap.Program.add_path ap (mk_path ~guard_value:(u 5));
        Alcotest.(check int) "still one path" 1 ap.n_paths;
        Alcotest.(check int) "two futures" 2 ap.n_futures);
    t "different guard values become case branches" (fun () ->
        let ap = Ap.Program.create () in
        Ap.Program.add_path ap (mk_path ~guard_value:(u 5));
        Ap.Program.add_path ap (mk_path ~guard_value:(u 9));
        Alcotest.(check int) "two paths" 2 ap.n_paths);
    t "a path that will not merge is dropped and counted" (fun () ->
        let base = mk_path ~guard_value:(u 5) in
        (* reads slot 1 where [base] reads slot 0: they differ before their
           first guard *)
        let early = { base with instrs = Array.copy base.instrs } in
        early.instrs.(0) <- I.Read (0, I.R_storage (addr, U256.one));
        (* takes [base]'s guard case but charges other gas *)
        let late = { base with gas_used = base.gas_used + 1 } in
        let one = Ap.Program.create () in
        Ap.Program.add_path one base;
        let ap = Ap.Program.create () in
        Ap.Program.add_path ap base;
        let dropped = Obs.counter "ap.paths_dropped" in
        let was = !Obs.enabled in
        Obs.set_enabled true;
        let before = Obs.count dropped in
        Fun.protect
          ~finally:(fun () -> Obs.set_enabled was)
          (fun () ->
            Ap.Program.add_path ap early;
            Alcotest.(check int) "early drop counted" (before + 1) (Obs.count dropped);
            Ap.Program.add_path ap late;
            Alcotest.(check int) "late drop counted" (before + 2) (Obs.count dropped));
        Alcotest.(check int) "one path" 1 ap.n_paths;
        Alcotest.(check int) "one future" 1 ap.n_futures;
        Alcotest.(check string) "fingerprint of the one-path program"
          (Ap.Program.fingerprint one) (Ap.Program.fingerprint ap));
    t "executor picks the matching branch" (fun () ->
        let ap = Ap.Program.create () in
        Ap.Program.add_path ap (mk_path ~guard_value:(u 5));
        Ap.Program.add_path ap (mk_path ~guard_value:(u 9));
        let st = world_with_slot (u 9) in
        (match Ap.Exec.execute ap st benv tx with
        | Ap.Exec.Hit (r, _) ->
          Alcotest.(check int) "gas" 21_000 r.gas_used;
          Alcotest.(check bool) "write applied" true
            (U256.equal (Statedb.get_storage st addr U256.one) (u 10))
        | Ap.Exec.Violation -> Alcotest.fail "expected hit"));
    t "no matching branch violates without writing" (fun () ->
        let ap = Ap.Program.create () in
        Ap.Program.add_path ap (mk_path ~guard_value:(u 5));
        let st = world_with_slot (u 9) in
        (match Ap.Exec.execute ap st benv tx with
        | Ap.Exec.Violation ->
          Alcotest.(check bool) "no write" true
            (U256.is_zero (Statedb.get_storage st addr U256.one))
        | Ap.Exec.Hit _ -> Alcotest.fail "expected violation"));
    t "memoization skips the compute when values repeat" (fun () ->
        let ap = Ap.Program.create () in
        (* a fatter path so a memoizable block exists *)
        let path =
          let reg_values = [| u 5; u 6; u 12; u 17 |] in
          {
            I.instrs =
              [| I.Read (0, I.R_storage (addr, U256.zero));
                 I.Compute (1, I.C_add, [| I.Reg 0; I.Const (u 1) |]);
                 I.Compute (2, I.C_mul, [| I.Reg 1; I.Const (u 2) |]);
                 I.Compute (3, I.C_add, [| I.Reg 2; I.Reg 0 |]) |];
            first_fast = 0;
            writes = [ I.W_storage (addr, U256.one, I.Reg 3) ];
            status = Evm.Processor.Success;
            gas_used = 21_000;
            gas_used_src = None;
            gas_refund = 0;
            output = [];
            reg_count = 4;
            reg_values;
            fork = Spec.fork_id Spec.default_fork;
            inputs = [||];
            stats = I.empty_stats;
          }
        in
        Ap.Program.add_path ap path;
        let st = world_with_slot (u 5) in
        (match Ap.Exec.execute ap st benv tx with
        | Ap.Exec.Hit (_, stats) ->
          Alcotest.(check bool) "skipped instructions" true (stats.skipped > 0);
          Alcotest.(check bool) "memo hit" true (stats.memo_hits > 0)
        | Ap.Exec.Violation -> Alcotest.fail "expected hit");
        (* different slot value: memo misses but execution still succeeds *)
        let st2 = world_with_slot (u 7) in
        match Ap.Exec.execute ap st2 benv tx with
        | Ap.Exec.Hit (r, stats) ->
          ignore r;
          Alcotest.(check int) "no memo hit" 0 stats.memo_hits;
          Alcotest.(check bool) "computed fresh value" true
            (U256.equal (Statedb.get_storage st2 addr U256.one) (u 23))
        | Ap.Exec.Violation -> Alcotest.fail "expected hit");
    t "use_memos:false executes everything" (fun () ->
        let ap = Ap.Program.create () in
        Ap.Program.add_path ap (mk_path ~guard_value:(u 5));
        let st = world_with_slot (u 5) in
        match Ap.Exec.execute ~use_memos:false ap st benv tx with
        | Ap.Exec.Hit (_, stats) ->
          Alcotest.(check int) "nothing skipped" 0 stats.skipped;
          Alcotest.(check bool) "write applied" true
            (U256.equal (Statedb.get_storage st addr U256.one) (u 6))
        | Ap.Exec.Violation -> Alcotest.fail "expected hit");
    t "memo alternatives are capped" (fun () ->
        let block =
          {
            Ap.Program.instrs = [| I.Compute (1, I.C_add, [| I.Reg 0; I.Const (u 1) |]) |];
            memos = [];
          }
        in
        let memo i =
          {
            Ap.Program.in_regs = [| 0 |];
            in_vals = [| u i |];
            out_regs = [| 1 |];
            out_vals = [| u (i + 1) |];
          }
        in
        let merged =
          List.fold_left
            (fun b i ->
              match Ap.Program.merge_block b { block with memos = [ memo i ] } with
              | Some m -> m
              | None -> Alcotest.fail "blocks should merge")
            { block with memos = [ memo 0 ] }
            [ 1; 2; 3; 4; 5; 6; 7 ]
        in
        Alcotest.(check bool) "capped" true
          (List.length merged.memos <= Ap.Program.max_memo_alternatives));
    t "instr_count reflects the merged program" (fun () ->
        let ap = Ap.Program.create () in
        Ap.Program.add_path ap (mk_path ~guard_value:(u 5));
        let one = Ap.Program.instr_count ap in
        Ap.Program.add_path ap (mk_path ~guard_value:(u 9));
        let two = Ap.Program.instr_count ap in
        Alcotest.(check bool) "merging shares the prefix" true (two < 2 * one))
  ]

(* ---- end-to-end guard violation handling (satellite of the conformance
   fuzzer): a real contract whose control flow is pinned by a storage
   guard.  Perturbing the constrained slot must yield [Violation] — never a
   stale fast-path result — and the fallback EVM execution on the very
   state the AP saw must match a from-scratch EVM run exactly. *)

let violation_tests =
  let contract = Address.of_int 0xBEEF in
  let sender = Address.of_int 0xA11 in
  (* if sload(0) == 5 then sstore(1, 111) else sstore(1, 222) *)
  let code =
    let open Evm.Asm in
    assemble
      ([ push_int 5; push_int 0; op SLOAD; op EQ ]
      @ jumpi "then"
      @ [ push_int 222; push_int 1; op SSTORE; op STOP ]
      @ [ label "then"; push_int 111; push_int 1; op SSTORE; op STOP ])
  in
  let mk_world () =
    let bk = Statedb.Backend.create () in
    let st0 = Statedb.create bk ~root:Statedb.empty_root in
    Statedb.set_code st0 contract code;
    Statedb.set_balance st0 sender (U256.of_string "1000000000000000000");
    Statedb.set_storage st0 contract U256.zero (u 5);
    (bk, Statedb.commit st0)
  in
  let tx : Evm.Env.tx =
    { sender; to_ = Some contract; nonce = 0; value = U256.zero; data = "";
      gas_limit = 100_000; gas_price = U256.one }
  in
  let speculate bk root =
    let st = Statedb.create bk ~root in
    let snap = Statedb.snapshot st in
    let sink, get = Evm.Trace.collector () in
    let receipt = Evm.Processor.execute_tx ~trace:sink st benv tx in
    Statedb.revert st snap;
    match Sevm.Builder.build tx benv (get ()) receipt st with
    | Ok path -> (receipt, path)
    | Error m -> Alcotest.failf "path should build: %s" m
  in
  [ t "satisfied context: fast path takes the speculated branch" (fun () ->
        let bk, root0 = mk_world () in
        let _, path = speculate bk root0 in
        let ap = Ap.Program.create () in
        Ap.Program.add_path ap path;
        let st = Statedb.create bk ~root:root0 in
        match Ap.Exec.execute ap st benv tx with
        | Ap.Exec.Violation -> Alcotest.fail "satisfied context must hit"
        | Ap.Exec.Hit (r, _) ->
          Alcotest.(check bool) "success" true
            (Evm.Processor.status_equal r.status Evm.Processor.Success);
          Alcotest.(check bool) "then-branch write landed" true
            (U256.equal (Statedb.get_storage st contract U256.one) (u 111)));
    t "perturbed slot: Violation reported, nothing written" (fun () ->
        let bk, root0 = mk_world () in
        let _, path = speculate bk root0 in
        let ap = Ap.Program.create () in
        Ap.Program.add_path ap path;
        let st = Statedb.create bk ~root:root0 in
        Statedb.set_storage st contract U256.zero (u 6);
        (match Ap.Exec.execute ap st benv tx with
        | Ap.Exec.Hit _ -> Alcotest.fail "stale fast-path result on a violated constraint"
        | Ap.Exec.Violation -> ());
        Alcotest.(check bool) "no write to slot 1" true
          (U256.is_zero (Statedb.get_storage st contract U256.one));
        Alcotest.(check bool) "sender nonce untouched" true
          (Statedb.get_nonce st sender = 0));
    t "fallback after violation matches a from-scratch EVM run" (fun () ->
        let bk, root0 = mk_world () in
        let _, path = speculate bk root0 in
        let ap = Ap.Program.create () in
        Ap.Program.add_path ap path;
        (* the accelerator's state: perturbed, AP tried and violated *)
        let st = Statedb.create bk ~root:root0 in
        Statedb.set_storage st contract U256.zero (u 6);
        (match Ap.Exec.execute ap st benv tx with
        | Ap.Exec.Hit _ -> Alcotest.fail "expected a violation"
        | Ap.Exec.Violation -> ());
        let fb = Evm.Processor.execute_tx st benv tx in
        (* reference: same perturbation, EVM only *)
        let st_ref = Statedb.create bk ~root:root0 in
        Statedb.set_storage st_ref contract U256.zero (u 6);
        let r = Evm.Processor.execute_tx st_ref benv tx in
        Alcotest.(check bool) "status" true (Evm.Processor.status_equal fb.status r.status);
        Alcotest.(check int) "gas_used" r.gas_used fb.gas_used;
        Alcotest.(check string) "output" r.output fb.output;
        Alcotest.(check bool) "else-branch write landed" true
          (U256.equal (Statedb.get_storage st contract U256.one) (u 222));
        Alcotest.(check string) "post-state roots agree" (Statedb.commit st_ref)
          (Statedb.commit st)) ]

(* ---- fingerprint properties (the lib/apstore cache-key contract) ----

   The template store trusts [Program.fingerprint] as a structural
   identity: equal digests ⇒ interchangeable programs.  Pin the three
   properties that contract leans on — determinism across independent
   builds, sensitivity to any structural mutation (a dropped guard is the
   smallest one Analysis.Mutate models), and fork/input scoping. *)

let arb_guard_values =
  QCheck.(list_of_size (Gen.int_range 1 4) (int_range 0 1000))

let program_of values =
  let p = Ap.Program.create () in
  List.iter (fun v -> Ap.Program.add_path p (mk_path ~guard_value:(u v))) values;
  p

(* The suite installs the raising verifier on every [add_path]; the
   deliberately-miscompiled program below must bypass it. *)
let with_no_hook f =
  let old = !Ap.Program.add_path_hook in
  Ap.Program.add_path_hook := (fun _ -> ());
  Fun.protect ~finally:(fun () -> Ap.Program.add_path_hook := old) f

let fp = Ap.Program.fingerprint

let fingerprint_tests =
  [ QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:100
         ~name:"structurally equal programs fingerprint identically" arb_guard_values
         (fun vs -> String.equal (fp (program_of vs)) (fp (program_of vs))));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:100 ~name:"a dropped guard changes the fingerprint"
         arb_guard_values (fun vs ->
           let mutated =
             with_no_hook (fun () ->
                 let p = Ap.Program.create () in
                 List.iteri
                   (fun i v ->
                     let path = mk_path ~guard_value:(u v) in
                     let path =
                       if i = 0 then Option.get (Analysis.Mutate.drop_guard path)
                       else path
                     in
                     Ap.Program.add_path p path)
                   vs;
                 p)
           in
           not (String.equal (fp (program_of vs)) (fp mutated))));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:100 ~name:"fork id is part of the fingerprint"
         arb_guard_values (fun vs ->
           let a = program_of vs and b = program_of vs in
           b.Ap.Program.fork <- b.Ap.Program.fork + 1;
           not (String.equal (fp a) (fp b))));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:100
         ~name:"template input registers are part of the fingerprint" arb_guard_values
         (fun vs ->
           let a = program_of vs and b = program_of vs in
           b.Ap.Program.inputs <- [| Sevm.Ir.In_sender |];
           not (String.equal (fp a) (fp b)))) ]

(* ---- allocation per template hit ----

   The airdrop ERC-20 template (the perfbench [airdrop] workload's shape),
   built from one storm transaction's trace and served to the next one on
   a warm state.  The minor words one hit allocates are a host-free
   measure of executor overhead: the state is warm, so the count is the
   executor's own dispatch, codecs and receipt, not I/O.

   The bound is a ratchet: it is the count the executor reaches today
   (598 words) plus 10%, and a change that lowers the count lowers the
   bound with it. *)

let words_per_hit_bound = 657.

let template_hit_words () =
  let token = Address.of_int 0x70C0 in
  let storm = Workload.Airdrop.create ~n_senders:8 ~seed:31337 ~token () in
  let bk = Statedb.Backend.create () in
  let st = Statedb.create bk ~root:(Workload.Airdrop.genesis storm bk) in
  let top = Workload.Airdrop.gas_limit_levels in
  let first = { (Workload.Airdrop.tx storm) with gas_limit = top.(Array.length top - 1) } in
  let snap = Statedb.snapshot st in
  let sink, get = Evm.Trace.collector () in
  let receipt = Evm.Processor.execute_tx ~trace:sink st benv first in
  Statedb.revert st snap;
  let path =
    match Sevm.Builder.build ~template:true first benv (get ()) receipt st with
    | Ok p -> p
    | Error e -> Alcotest.failf "template build failed: %s" e
  in
  let ap = Ap.Program.create () in
  Ap.Program.add_path ap path;
  let tx = Workload.Airdrop.tx storm in
  let hit () =
    let snap = Statedb.snapshot st in
    let before = Gc.minor_words () in
    let r = Ap.Exec.execute ap st benv tx in
    let words = Gc.minor_words () -. before in
    Statedb.revert st snap;
    (match r with Ap.Exec.Hit _ -> () | Ap.Exec.Violation -> Alcotest.fail "template violated");
    words
  in
  (* the first serve warms the state caches; keep the least of the rest *)
  ignore (hit () : float);
  List.fold_left min infinity (List.init 5 (fun _ -> hit ()))

let alloc_tests =
  [ t "a warm template hit stays under its minor-word bound" (fun () ->
        let words = template_hit_words () in
        Printf.printf "template hit: %.0f minor words (bound %.0f)\n" words words_per_hit_bound;
        if words > words_per_hit_bound then
          Alcotest.failf "a template hit allocated %.0f minor words, bound %.0f" words
            words_per_hit_bound) ]

let suite = structure_tests @ violation_tests @ fingerprint_tests @ alloc_tests
