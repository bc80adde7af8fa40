(* The benchmark executable: one workload per run, inputs generated from the
   seed, correctness checked throughout, one JSON result as the last line.

     main.exe --workload dice|airdrop|parallel [--seed N] [--seconds S]
              [--trace 0|1] [--scale F]

   --trace 0 (the default) measures the end-to-end metrics with Obs
   disabled; --trace 1 measures the per-layer metrics.  --scale shrinks
   every workload's input (the smoke test runs at 0.05).  Reported times
   are scaled to a reference host speed (see [Common.host_scale]). *)

open Common

type workload = {
  default_seed : int;
  held_out_seed : int;
  (* set up from the seed, then measure: [true] for the traced run *)
  go : tally -> seed:int -> scale:float -> seconds:float -> bool -> metric list;
}

(* The host probe taken on a compacted heap, so that the collector's
   state left by the work before it does not move the probe; the first
   probe after a compaction faults in fresh pages and is not counted. *)
let settled_probe h =
  Gc.compact ();
  probe_once ();
  probe ~n:10 h

(* Set-up runs three times and reports its median, scaled by the host
   probes taken before and after the set-ups; only the last set-up is kept
   for the measurement. *)
let workload (type t) ~default_seed ~held_out_seed ~(setup : tally -> seed:int -> scale:float -> t)
    ~(run : tally -> t -> seconds:float -> metric list)
    ~(trace : tally -> t -> seconds:float -> metric list) =
  let go tally ~seed ~scale ~seconds traced =
    let last = ref None and h = host () in
    let times =
      List.init 3 (fun _ ->
          last := None;
          settled_probe h;
          let t, ns = time (fun () -> setup tally ~seed ~scale) in
          last := Some t;
          secs ns)
    in
    let t = Option.get !last in
    settled_probe h;
    if traced then trace tally t ~seconds
    else begin
      let ms = run tally t ~seconds in
      Printf.printf "set-up: median %.3f s at host probe %.0f us\n" (median times) (probe_us h);
      m "setup_s" "s" (median times *. host_scale h) :: ms
    end
  in
  { default_seed; held_out_seed; go }

let workloads =
  [ ( "dice",
      workload ~default_seed:Dice.default_seed ~held_out_seed:Dice.held_out_seed ~setup:Dice.setup
        ~run:Dice.run ~trace:Dice.trace );
    ( "airdrop",
      workload ~default_seed:Airdrop.default_seed ~held_out_seed:Airdrop.held_out_seed
        ~setup:Airdrop.setup ~run:Airdrop.run ~trace:Airdrop.trace );
    ( "parallel",
      workload ~default_seed:Parallel.default_seed ~held_out_seed:Parallel.held_out_seed
        ~setup:Parallel.setup ~run:Parallel.run ~trace:Parallel.trace ) ]

let json_metric x = Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" x.name x.value x.unit_

let () =
  let name = ref "" and seed = ref None and seconds = ref 10.0 and trace = ref 0 and scale = ref 1.0 in
  Arg.parse
    [ ("--workload", Arg.Set_string name, "NAME dice, airdrop or parallel");
      ("--seed", Arg.Int (fun s -> seed := Some s), "N input seed (default: the workload's own)");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or per-layer metrics (1)");
      ("--scale", Arg.Set_float scale, "F input size factor (default 1)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--scale F]";
  let w =
    match List.assoc_opt !name workloads with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %S; one of: %s\n" !name
        (String.concat ", " (List.map fst workloads));
      exit 2
  in
  let seed = Option.value ~default:w.default_seed !seed in
  Printf.printf "workload %s, seed %d (default %d, held out %d), %.0f s, trace %d, scale %g\n%!" !name
    seed w.default_seed w.held_out_seed !seconds !trace !scale;
  let tally = tally () in
  let metrics = w.go tally ~seed ~scale:!scale ~seconds:!seconds (!trace = 1) in
  List.iter
    (fun x ->
      check tally (Float.is_finite x.value) (x.name ^ " is not a finite number");
      Printf.printf "  %-30s %16.4f %s\n" x.name x.value x.unit_)
    metrics;
  let correct = tally.failed = 0 && metrics <> [] in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    tally.attempted tally.failed
    (String.concat ", " (List.map json_metric (List.filter (fun x -> Float.is_finite x.value) metrics)));
  exit (if correct then 0 else 1)
