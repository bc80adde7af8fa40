(* The shared template store (DESIGN.md §13).

   Layout: one mutex over a hash table of resident entries plus a set of
   in-flight reservations.  LRU is a monotone clock stamped on every find
   and publish; eviction scans for the minimum stamp — O(n), but n is
   bounded by [max_entries] (hundreds), publish is off the critical path,
   and a scan keeps the structure a single table instead of an intrusive
   list.

   Determinism note (jobs=1 ≡ jobs=N): in the node pipeline every store
   mutation happens on the producer thread — reservations in prediction
   order, publications in scheduler-sequence order during [drain] — and
   every serve happens after a scheduler barrier, so store contents at
   each serve point are a function of the event stream, not of worker
   timing.  The mutex is still required: the store is shared with
   worker domains, which may probe and reserve concurrently. *)

type entry = {
  ap : Ap.Program.t;
  bytes : int; (* marshalled size estimate *)
  mutable last_use : int; (* LRU stamp *)
  mutable reuses : int; (* find hits since publication *)
}

type t = {
  mu : Mutex.t;
  max_entries : int;
  max_bytes : int;
  tbl : (string, entry) Hashtbl.t;
  inflight : (string, unit) Hashtbl.t;
  mutable clock : int;
  mutable resident : int; (* summed [entry.bytes] *)
  mutable s_hits : int;
  mutable s_misses : int;
  mutable s_evictions : int;
  mutable s_coalesced : int;
  mutable s_published : int;
}

let obs_hits = Obs.counter "apstore.hits"
let obs_misses = Obs.counter "apstore.misses"
let obs_evictions = Obs.counter "apstore.evictions"
let obs_coalesced = Obs.counter "apstore.coalesced"
let obs_published = Obs.counter "apstore.published"
let obs_resident = Obs.gauge "apstore.resident_bytes"
let obs_reuse = Obs.histogram "apstore.key_reuse"

let create ?(max_entries = 512) ?(max_bytes = 64 * 1024 * 1024) () =
  if max_entries < 1 then invalid_arg "Apstore.create: max_entries must be >= 1";
  {
    mu = Mutex.create ();
    max_entries;
    max_bytes;
    tbl = Hashtbl.create 256;
    inflight = Hashtbl.create 16;
    clock = 0;
    resident = 0;
    s_hits = 0;
    s_misses = 0;
    s_evictions = 0;
    s_coalesced = 0;
    s_published = 0;
  }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* ---- keys ---- *)

(* The key pins exactly what the template builder bakes as constants
   (lib/sevm/builder.ml, template mode): target + code hash fix the code
   the fast path was specialized from; fork id scopes gas tables and
   warmth rules (cross-fork reuse is rejected like any cross-fork AP);
   calldata length fixes CALLDATASIZE (baked as an unguarded constant) and
   the ABI word layout; value zeroness fixes whether the transfer legs
   were emitted.

   The gas components are consulted, not unconditional (lib/bca): with
   gas accounting lifted into input registers, the exact gas limit and
   the calldata nonzero-byte count (the intrinsic class) stay pinned only
   for code that may execute GAS — the builder bakes GAS pushes as
   unguarded constants, so such templates are sound only within one
   (limit, intrinsic) class.  The selector bytes stay pinned only when
   the analysis shows calldata[0..3] may be read (selector bytes precede
   the lifted ABI words, so a selector-dispatching template served with a
   different selector would constant-fold down the wrong path).  Zeroness
   of the calldata words that flow into branch decisions is pinned so
   obviously-divergent path classes get distinct templates instead of
   guard-violating each other's.  A wild or fully calldata-dependent
   analysis falls back to every legacy pin.  The key is the buffer itself:
   its components are short, so a digest would only cost a keccak. *)
let key_of_tx st (spec : Spec.t) (tx : Evm.Env.tx) : string option =
  match tx.to_ with
  | None -> None (* creation: the created address depends on the sender *)
  | Some target ->
    if Evm.Interp.is_precompile target then None
    else begin
      let code = State.Statedb.get_code st target in
      if String.length code = 0 then None (* plain transfer: nothing to accelerate *)
      else begin
        let hash = State.Statedb.get_code_hash st target in
        let f = Bca.facts_for ~spec ~hash code in
        let conservative = f.Bca.f_wild || f.Bca.f_cf_top in
        let pin_gas = conservative || Bca.uses_gas_deep ~spec st target in
        let pin_selector = conservative || f.Bca.f_reads_selector in
        let len = String.length tx.data in
        let b = Buffer.create 96 in
        Buffer.add_string b hash;
        Buffer.add_string b (State.Address.to_bytes target);
        Buffer.add_string b
          (Printf.sprintf "|%d|%d|%c|" spec.id len
             (if U256.is_zero tx.value then 'z' else 'v'));
        if pin_gas then begin
          let nonzero = ref 0 in
          String.iter (fun c -> if c <> '\000' then incr nonzero) tx.data;
          Buffer.add_string b (Printf.sprintf "g%d:%d|" tx.gas_limit !nonzero)
        end;
        if pin_selector then begin
          Buffer.add_char b 's';
          Buffer.add_string b (if len <= 4 then tx.data else String.sub tx.data 0 4)
        end;
        if (not conservative) && f.Bca.f_cf_words <> 0 then begin
          Buffer.add_char b '|';
          let n_words = if len > 4 then (len - 4 + 31) / 32 else 0 in
          for k = 0 to min (n_words - 1) 60 do
            if f.Bca.f_cf_words land (1 lsl k) <> 0 then begin
              let off = 4 + (32 * k) in
              let z = ref true in
              for i = off to min (off + 31) (len - 1) do
                if tx.data.[i] <> '\000' then z := false
              done;
              Buffer.add_char b (if !z then 'z' else 'v')
            end
            else Buffer.add_char b '-'
          done
        end;
        Some (Buffer.contents b)
      end
    end

(* ---- probe / single-flight / publish ---- *)

let find t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | Some e ->
        t.clock <- t.clock + 1;
        e.last_use <- t.clock;
        e.reuses <- e.reuses + 1;
        t.s_hits <- t.s_hits + 1;
        Obs.incr obs_hits;
        Some e.ap
      | None ->
        t.s_misses <- t.s_misses + 1;
        Obs.incr obs_misses;
        None)

let reserve t key =
  locked t (fun () ->
      if Hashtbl.mem t.tbl key then false
      else if Hashtbl.mem t.inflight key then begin
        t.s_coalesced <- t.s_coalesced + 1;
        Obs.incr obs_coalesced;
        false
      end
      else begin
        Hashtbl.add t.inflight key ();
        true
      end)

(* under [t.mu] *)
let drop t key (e : entry) =
  Hashtbl.remove t.tbl key;
  t.resident <- t.resident - e.bytes;
  Obs.observe_int obs_reuse e.reuses

(* under [t.mu]: evict least-recently-used entries until within bounds *)
let enforce_bounds t =
  while Hashtbl.length t.tbl > t.max_entries || t.resident > t.max_bytes do
    let victim =
      Hashtbl.fold
        (fun k e acc ->
          match acc with
          | Some (_, best) when best.last_use <= e.last_use -> acc
          | _ -> Some (k, e))
        t.tbl None
    in
    match victim with
    | None -> t.resident <- 0 (* empty table: nothing left to evict *)
    | Some (k, e) ->
      drop t k e;
      t.s_evictions <- t.s_evictions + 1;
      Obs.incr obs_evictions
  done

(* Resident-size estimate: the marshalled footprint of the program's
   structural content.  [Program.fingerprint] already relies on the same
   representation being marshal-clean. *)
let estimate_bytes (ap : Ap.Program.t) =
  64 + String.length (Marshal.to_string (ap.roots, ap.inputs) [ Marshal.No_sharing ])

let publish t key ap =
  let bytes = estimate_bytes ap in
  locked t (fun () ->
      Hashtbl.remove t.inflight key;
      (match Hashtbl.find_opt t.tbl key with Some e -> drop t key e | None -> ());
      t.clock <- t.clock + 1;
      Hashtbl.replace t.tbl key { ap; bytes; last_use = t.clock; reuses = 0 };
      t.resident <- t.resident + bytes;
      t.s_published <- t.s_published + 1;
      Obs.incr obs_published;
      enforce_bounds t;
      Obs.set obs_resident (float_of_int t.resident))

let abandon t key = locked t (fun () -> Hashtbl.remove t.inflight key)

(* ---- introspection ---- *)

let length t = locked t (fun () -> Hashtbl.length t.tbl)
let resident_bytes t = locked t (fun () -> t.resident)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  coalesced : int;
  published : int;
  inflight : int;
}

let stats t =
  locked t (fun () ->
      {
        hits = t.s_hits;
        misses = t.s_misses;
        evictions = t.s_evictions;
        coalesced = t.s_coalesced;
        published = t.s_published;
        inflight = Hashtbl.length t.inflight;
      })
