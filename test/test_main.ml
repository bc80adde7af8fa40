(* Aggregated alcotest entry point; each module contributes one suite.

   The static verifier runs as a raising self-check on every AP built
   anywhere in the suite, so a miscompiled program fails at build time
   even in tests that never look at it. *)

let () =
  Analysis.Verify.install_builder_hook ();
  Alcotest.run "forerunner"
    [ ("u256", Test_u256.suite);
      ("obs", Test_obs.suite);
      ("khash", Test_khash.suite);
      ("rlp", Test_rlp.suite);
      ("trie", Test_trie.suite);
      ("state", Test_state.suite);
      ("evm", Test_evm.suite);
      ("gastable", Test_gastable.suite);
      ("evm-calls", Test_evm_calls.suite);
      ("asm", Test_asm.suite);
      ("contracts", Test_contracts.suite);
      ("sevm-ap", Test_sevm.suite);
      ("ap", Test_ap.suite);
      ("chain", Test_chain.suite);
      ("netsim", Test_netsim.suite);
      ("workload", Test_workload.suite);
      ("core", Test_core.suite);
      ("sched", Test_sched.suite);
      ("parallel", Test_parallel.suite);
      ("differential", Test_differential.suite);
      ("fuzz", Test_fuzz.suite);
      ("analysis", Test_analysis.suite);
      ("bca", Test_bca.suite);
      ("lru", Test_lru.suite) ]
