(* The fuzzing loop: per-iteration deterministic scenario -> the runner's
   oracle lanes; on the first finding, shrink to a minimal scenario and
   (optionally) save it to the corpus directory, where it doubles as a
   regression test ({!Runner.sweep} replays the corpus). *)

type counterexample = {
  iter : int;
  original : Scenario.t;
  scenario : Scenario.t;  (** shrunk *)
  findings : Runner.finding list;  (** of the shrunk scenario *)
  file : string option;
}

type summary = {
  iters_run : int;
  counterexample : counterexample option;
  tally : Runner.tally;
}

let obs_iters = Obs.counter "fuzz.iterations"
let obs_findings = Obs.counter "fuzz.findings"
let obs_shrink_probes = Obs.counter "fuzz.shrink_probes"

let check s = Runner.run ~lanes:Runner.oracle ~label:"fuzz" s
let diverges s = check s <> []

let mkdir_p dir =
  let rec go d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  go dir

let save_counterexample ~dir ~seed ~iter s =
  mkdir_p dir;
  let file = Filename.concat dir (Printf.sprintf "cx-seed%d-iter%d.sexp" seed iter) in
  Out_channel.with_open_bin file (fun oc -> output_string oc (Scenario.to_string s));
  file

let fuzz ?corpus_dir ?(shrink = true) ?fork ?fault ~seed ~iters () : summary =
  Runner.with_fault fault @@ fun () ->
  let tally = Runner.new_tally () in
  let found = ref None in
  let i = ref 0 in
  while !found = None && !i < iters do
    Obs.incr obs_iters;
    let s = Generate.seeded ~seed !i in
    (* [fork] pins every scenario to one hardfork; without it the
       generator's per-scenario random draw stands *)
    let s = match fork with None -> s | Some f -> { s with Scenario.fork = Some f } in
    let label = Printf.sprintf "gen(seed=%d,iter=%d)" seed !i in
    let fs = Runner.run ~tally ~lanes:Runner.oracle ~label s in
    if fs <> [] then begin
      Obs.incr obs_findings;
      let shrunk =
        if shrink then
          Shrink.minimize
            ~diverges:(fun c ->
              Obs.incr obs_shrink_probes;
              diverges c)
            s
        else s
      in
      (* shrinking preserves *some* finding by construction, but guard
         against a flaky predicate: fall back to the original if the
         minimal form stopped reproducing *)
      let shrunk, fs = match check shrunk with [] -> (s, fs) | fs' -> (shrunk, fs') in
      let file =
        Option.map (fun dir -> save_counterexample ~dir ~seed ~iter:!i shrunk) corpus_dir
      in
      found := Some { iter = !i; original = s; scenario = shrunk; findings = fs; file }
    end;
    incr i
  done;
  { iters_run = !i; counterexample = !found; tally }
