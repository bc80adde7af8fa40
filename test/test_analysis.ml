(* The static verifier: positive tests on real builder output, negative
   tests seeding one miscompilation per checker kind and asserting the
   matching violation (with a path-level site) comes back. *)

module I = Sevm.Ir
module P = Ap.Program
module R = Analysis.Report
open State

let t name f = Alcotest.test_case name `Quick f
let u = U256.of_int
let addr = Address.of_int 0x77

let kinds vs = List.sort_uniq compare (List.map (fun (v : R.violation) -> v.kind) vs)

let has_kind k vs = List.exists (fun (v : R.violation) -> v.kind = k) vs

let check_kind name k vs =
  Alcotest.(check bool)
    (Printf.sprintf "%s reports %s (got: %s)" name (R.kind_name k)
       (Fmt.str "%a" R.pp_list vs))
    true (has_kind k vs)

(* A well-formed hand-built path: read a slot, guard it, compute, write. *)
let good_path =
  {
    I.instrs =
      [| I.Read (0, I.R_storage (addr, U256.zero)); I.Guard (I.Reg 0, u 5);
         I.Compute (1, I.C_add, [| I.Reg 0; I.Const (u 1) |]) |];
    first_fast = 2;
    writes = [ I.W_storage (addr, U256.one, I.Reg 1) ];
    status = Evm.Processor.Success;
    gas_used = 21_000;
    gas_used_src = None;
    gas_refund = 0;
    output = [];
    reg_count = 2;
    reg_values = [| u 5; u 6 |];
    fork = Spec.fork_id Spec.default_fork;
    inputs = [||];
    stats = I.empty_stats;
  }

let leaf ?(writes = []) () =
  P.Leaf
    { fast = []; writes; status = Evm.Processor.Success; gas_used = 0;
      gas_used_src = None; gas_refund = 0; output = [] }

let program ~reg_count root =
  { P.root = Some root; reg_count; n_paths = 1; n_futures = 1; shortcut_count = 0;
    fork = Spec.fork_id Spec.default_fork; inputs = [||] }

let path_tests =
  [ t "well-formed path verifies" (fun () ->
        Alcotest.(check (list string))
          "no violations" []
          (List.map (Fmt.str "%a" R.pp) (Analysis.Verify.verify_path good_path)));
    t "def-before-use: use of an undefined register" (fun () ->
        let p =
          { good_path with
            instrs =
              [| I.Read (0, I.R_storage (addr, U256.zero)); I.Guard (I.Reg 0, u 5);
                 I.Compute (1, I.C_add, [| I.Reg 7; I.Const (u 1) |]) |];
            reg_count = 8;
            reg_values = Array.make 8 U256.zero
          }
        in
        check_kind "undefined v7" R.Def_before_use (Analysis.Verify.verify_path p));
    t "reg-bounds: register beyond reg_count" (fun () ->
        let p =
          { good_path with
            instrs =
              [| I.Read (0, I.R_storage (addr, U256.zero)); I.Guard (I.Reg 0, u 5);
                 I.Compute (9, I.C_add, [| I.Reg 0; I.Const (u 1) |]) |];
            writes = []
          }
        in
        check_kind "v9 out of bounds" R.Reg_bounds (Analysis.Verify.verify_path p));
    t "rollback-freedom: guard in the fast region" (fun () ->
        let p =
          { good_path with
            instrs =
              [| I.Read (0, I.R_storage (addr, U256.zero)); I.Guard (I.Reg 0, u 5);
                 I.Compute (1, I.C_add, [| I.Reg 0; I.Const (u 1) |]);
                 I.Guard (I.Reg 1, u 6) |];
            first_fast = 2
          }
        in
        check_kind "late guard" R.Rollback_freedom (Analysis.Verify.verify_path p));
    t "guard-coverage: dropped guard uncovers the read" (fun () ->
        match Analysis.Mutate.drop_guard good_path with
        | None -> Alcotest.fail "good_path has a guard to drop"
        | Some mutated ->
          let vs = Analysis.Verify.verify_path mutated in
          check_kind "uncovered SLOAD" R.Guard_coverage vs;
          (* the diagnostic names the offending instruction's site *)
          Alcotest.(check bool)
            "site points at i#0" true
            (List.exists (fun (v : R.violation) -> v.site = "i#0") vs));
    t "well-formedness: P_reg slice outside the word" (fun () ->
        let p =
          { good_path with
            instrs =
              [| I.Read (0, I.R_storage (addr, U256.zero)); I.Guard (I.Reg 0, u 5);
                 I.Keccak (1, [ I.P_reg (0, 30, 5) ]) |]
          }
        in
        check_kind "slice 30+5 > 32" R.Well_formedness (Analysis.Verify.verify_path p)) ]

(* ---- AP-level checks ---- *)

let block instrs = { P.instrs; memos = [] }

(* Some violation of kind [k] sits at [site]. *)
let check_site name k site vs =
  Alcotest.(check bool)
    (Fmt.str "%s: a %s at %s (got %a)" name (R.kind_name k) site R.pp_list vs)
    true
    (List.exists (fun (v : R.violation) -> v.kind = k && v.site = site) vs)

(* one fault, one report: the line checks must not repeat the node's *)
let check_one_reg_bounds name vs =
  Alcotest.(check int)
    (Fmt.str "%s: one %s violation (got %a)" name (R.kind_name R.Reg_bounds) R.pp_list vs)
    1
    (List.length (List.filter (fun (v : R.violation) -> v.kind = R.Reg_bounds) vs))

let ap_tests =
  [ t "good path compiles to a verifying program" (fun () ->
        let ap = P.create () in
        P.add_path ap good_path;
        Alcotest.(check (list string))
          "no violations" []
          (List.map (Fmt.str "%a" R.pp) (Analysis.Verify.verify ap)));
    t "memo-soundness: executor ADD fault caught statically" (fun () ->
        (* all-fast path whose block earns a memo: r0 = 1+2, r1 = r0*2 *)
        let p =
          { good_path with
            instrs =
              [| I.Compute (0, I.C_add, [| I.Const (u 1); I.Const (u 2) |]);
                 I.Compute (1, I.C_mul, [| I.Reg 0; I.Const (u 2) |]) |];
            first_fast = 0;
            writes = [ I.W_storage (addr, U256.one, I.Reg 1) ];
            reg_values = [| u 3; u 6 |]
          }
        in
        let ap = P.create () in
        P.add_path ap p;
        Alcotest.(check (list string))
          "honest executor: no violations" []
          (List.map (Fmt.str "%a" R.pp) (Analysis.Verify.verify ap));
        Ap.Exec.miscompile_add_for_tests := true;
        Fun.protect
          ~finally:(fun () -> Ap.Exec.miscompile_add_for_tests := false)
          (fun () ->
            let vs = Analysis.Verify.verify ap in
            check_kind "memo replay mismatch" R.Memo_soundness vs;
            Alcotest.(check (list string))
              "only memo_soundness" [ "memo_soundness" ]
              (List.map R.kind_name (kinds vs))));
    t "memo-soundness: out_regs missing a downstream-live def" (fun () ->
        let b =
          {
            P.instrs =
              [| I.Compute (0, I.C_add, [| I.Const (u 1); I.Const (u 1) |]);
                 I.Compute (1, I.C_add, [| I.Reg 0; I.Const (u 1) |]) |];
            memos =
              [ { P.in_regs = [||]; in_vals = [||]; out_regs = [| 0 |]; out_vals = [| u 2 |] } ];
          }
        in
        let ap =
          program ~reg_count:2
            (P.Seq (b, leaf ~writes:[ I.W_storage (addr, U256.one, I.Reg 1) ] ()))
        in
        check_kind "memo drops live v1" R.Memo_soundness (Analysis.Verify.verify ap));
    t "well-formedness: duplicate branch cases" (fun () ->
        let ap =
          program ~reg_count:1
            (P.Seq
               ( block [| I.Compute (0, I.C_add, [| I.Const (u 1); I.Const (u 1) |]) |],
                 P.Branch (P.Value (I.Reg 0), [ (u 2, leaf ()); (u 2, leaf ()) ]) ))
        in
        check_kind "duplicate case 0x2" R.Well_formedness (Analysis.Verify.verify ap));
    t "well-formedness: a duplicate warmth case after the first" (fun () ->
        (* [false; true; true]: the duplicate is not the first case *)
        let warm = P.Warm (addr, None) in
        let ap =
          program ~reg_count:1
            (P.Branch
               (warm, [ (U256.zero, leaf ()); (U256.one, leaf ()); (U256.one, leaf ()) ]))
        in
        check_site "duplicate warm case" R.Well_formedness "root>br#0[warm=true]"
          (Analysis.Verify.verify ap));
    t "well-formedness: duplicate size cases" (fun () ->
        let ap =
          program ~reg_count:1
            (P.Seq
               ( block [| I.Compute (0, I.C_add, [| I.Const (u 1); I.Const (u 1) |]) |],
                 P.Branch (P.Size (I.Reg 0), [ (u 1, leaf ()); (u 1, leaf ()) ]) ))
        in
        check_site "duplicate size case" R.Well_formedness "root>br#1[size=1]"
          (Analysis.Verify.verify ap));
    t "reg-bounds: size-branch operand beyond reg_count" (fun () ->
        let ap = program ~reg_count:1 (P.Branch (P.Size (I.Reg 4), [ (u 1, leaf ()) ])) in
        (* the operand is the guard node's own, so its site carries no case *)
        let vs = Analysis.Verify.verify ap in
        check_site "size operand v4" R.Reg_bounds "root>br#0" vs;
        check_one_reg_bounds "size operand v4" vs);
    t "reg-bounds: a two-case branch reports its operand once" (fun () ->
        let ap =
          program ~reg_count:1
            (P.Branch (P.Size (I.Reg 4), [ (u 1, leaf ()); (u 2, leaf ()) ]))
        in
        let vs = Analysis.Verify.verify ap in
        check_site "size operand v4, two cases" R.Reg_bounds "root>br#0" vs;
        check_one_reg_bounds "size operand v4, two cases" vs);
    t "rollback-freedom: guard smuggled into a block" (fun () ->
        let b = block [| I.Guard (I.Const (u 1), u 1) |] in
        let ap = program ~reg_count:1 (P.Seq (b, leaf ())) in
        check_kind "guard inside block" R.Rollback_freedom (Analysis.Verify.verify ap));
    t "violations carry a path through the DAG" (fun () ->
        (* two nested branches, each fed by the block before it *)
        let mk src =
          program ~reg_count:3
            (P.Seq
               ( block [| I.Compute (1, I.C_iszero, [| I.Const (u 0) |]) |],
                 P.Branch
                   ( P.Value (I.Reg 1),
                     [ ( u 1,
                         P.Seq
                           ( block [| I.Compute (0, I.C_add, [| src; I.Const (u 1) |]) |],
                             P.Branch (P.Value (I.Reg 0), [ (u 2, leaf ()) ]) ) ) ] ) ))
        in
        Alcotest.(check (list string))
          "baseline verifies" []
          (List.map (Fmt.str "%a" R.pp) (Analysis.Verify.verify (mk (I.Reg 1))));
        (* same shape, inner block now reads the undefined v2 *)
        let vs = Analysis.Verify.verify (mk (I.Reg 2)) in
        check_kind "undefined v2" R.Def_before_use vs;
        Alcotest.(check bool)
          (Fmt.str "site is a DAG trail (got %a)" R.pp_list vs)
          true
          (List.exists
             (fun (v : R.violation) -> v.site = "root>br#1[=0x1]>seq#2>i#0")
             vs)) ]

(* ---- integration with the builder and the hook ---- *)

let hook_tests =
  [ t "builder output from a generated scenario verifies" (fun () ->
        let tally = Fuzz.Runner.new_tally () in
        let fs =
          Fuzz.Runner.run ~tally ~lanes:[ Fuzz.Runner.Verifier ] ~label:"gen"
            (Fuzz.Generate.seeded ~seed:1 0)
        in
        Alcotest.(check bool) "built at least one program" true (tally.programs > 0);
        Alcotest.(check (list string))
          "no violations" []
          (List.map (Fmt.str "%a" Fuzz.Runner.pp_finding) fs));
    t "raising add_path hook rejects a broken path" (fun () ->
        let saved = !P.add_path_hook in
        Fun.protect
          ~finally:(fun () -> P.add_path_hook := saved)
          (fun () ->
            Analysis.Verify.install_builder_hook ();
            let broken = { good_path with first_fast = 3 } in
            let ap = P.create () in
            match P.add_path ap broken with
            | exception Analysis.Verify.Verification_failed vs ->
              check_kind "late guard via hook" R.Rollback_freedom vs
            | () -> Alcotest.fail "hook did not reject a guard in the fast region"));
    t "verifier counters feed the Obs registry" (fun () ->
        Obs.reset ();
        Obs.set_enabled true;
        Fun.protect
          ~finally:(fun () -> Obs.set_enabled false)
          (fun () ->
            ignore (Analysis.Verify.verify_path good_path);
            (match Analysis.Mutate.drop_guard good_path with
            | Some m -> ignore (Analysis.Verify.verify_path m)
            | None -> Alcotest.fail "no guard to drop");
            Alcotest.(check bool)
              "paths_checked >= 2" true
              (Obs.count (Obs.counter "analysis.paths_checked") >= 2);
            Alcotest.(check bool)
              "violations_total > 0" true
              (Obs.count (Obs.counter "analysis.violations_total") > 0);
            Alcotest.(check bool)
              "guard_coverage kind counter > 0" true
              (Obs.count (Obs.counter "analysis.violations.guard_coverage") > 0))) ]

let suite = path_tests @ ap_tests @ hook_tests
