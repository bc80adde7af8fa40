(* The shared template store (DESIGN.md §13).

   Layout: one mutex over an [Lru] of resident entries (capacity
   [max_entries]; a find hit or a publish refreshes an entry), a set of
   in-flight reservations and the resident-byte total, which the Lru's
   eviction hook keeps for evictions by either bound.

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
  mutable reuses : int; (* find hits since publication *)
}

type t = {
  mu : Mutex.t;
  max_bytes : int;
  lru : (string, entry) Lru.t; (* counts apstore.{hits,misses,evictions} *)
  inflight : (string, unit) Hashtbl.t;
  resident : int ref; (* summed [entry.bytes] *)
  mutable s_coalesced : int;
  mutable s_published : int;
}

let obs_coalesced = Obs.counter "apstore.coalesced"
let obs_published = Obs.counter "apstore.published"
let obs_resident = Obs.gauge "apstore.resident_bytes"
let obs_reuse = Obs.histogram "apstore.key_reuse"

(* under [t.mu]: an entry leaves the store, evicted or replaced *)
let drop resident (e : entry) =
  resident := !resident - e.bytes;
  Obs.observe_int obs_reuse e.reuses

let create ?(max_entries = 512) ?(max_bytes = 64 * 1024 * 1024) () =
  if max_entries < 1 then invalid_arg "Apstore.create: max_entries must be >= 1";
  let resident = ref 0 in
  {
    mu = Mutex.create ();
    max_bytes;
    lru = Lru.create ~name:"apstore" ~on_evict:(fun _ e -> drop resident e) max_entries;
    inflight = Hashtbl.create 16;
    resident;
    s_coalesced = 0;
    s_published = 0;
  }

let locked t f = Mutex.protect t.mu f

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
        (* without call edges the deep check is the facts in hand *)
        let pin_gas =
          conservative || f.Bca.f_uses_gas || f.Bca.f_call_top
          || (f.Bca.f_calls <> [] && Bca.uses_gas_deep ~spec st target)
        in
        let pin_selector = conservative || f.Bca.f_reads_selector in
        let len = String.length tx.data in
        let b = Buffer.create 96 in
        Buffer.add_string b hash;
        Buffer.add_string b (State.Address.to_bytes target);
        (* "|<fork>|<calldata length>|<z or v>|", written field by field:
           a Printf format costs more allocation than the rest of the key *)
        Buffer.add_char b '|';
        Buffer.add_string b (string_of_int spec.id);
        Buffer.add_char b '|';
        Buffer.add_string b (string_of_int len);
        Buffer.add_char b '|';
        Buffer.add_char b (if U256.is_zero tx.value then 'z' else 'v');
        Buffer.add_char b '|';
        if pin_gas then begin
          let nonzero = ref 0 in
          String.iter (fun c -> if c <> '\000' then incr nonzero) tx.data;
          (* "g<gas limit>:<nonzero bytes>|" *)
          Buffer.add_char b 'g';
          Buffer.add_string b (string_of_int tx.gas_limit);
          Buffer.add_char b ':';
          Buffer.add_string b (string_of_int !nonzero);
          Buffer.add_char b '|'
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
      Lru.find t.lru key |> Option.map (fun e -> e.reuses <- e.reuses + 1; e.ap))

let reserve t key =
  locked t (fun () ->
      if Lru.mem t.lru key then false
      else if Hashtbl.mem t.inflight key then begin
        t.s_coalesced <- t.s_coalesced + 1;
        Obs.incr obs_coalesced;
        false
      end
      else begin
        Hashtbl.add t.inflight key ();
        true
      end)

(* Resident-size estimate: the marshalled footprint of the program's
   structural content.  [Program.fingerprint] already relies on the same
   representation being marshal-clean. *)
let estimate_bytes (ap : Ap.Program.t) =
  64 + String.length (Marshal.to_string (ap.roots, ap.inputs) [ Marshal.No_sharing ])

let publish t key ap =
  let bytes = estimate_bytes ap in
  locked t (fun () ->
      Hashtbl.remove t.inflight key;
      Option.iter (drop t.resident) (Lru.remove t.lru key);
      t.resident := !(t.resident) + bytes;
      Lru.add t.lru key { ap; bytes; reuses = 0 };
      t.s_published <- t.s_published + 1;
      Obs.incr obs_published;
      while !(t.resident) > t.max_bytes && Lru.pop t.lru do () done;
      Obs.set obs_resident (float_of_int !(t.resident)))

let abandon t key = locked t (fun () -> Hashtbl.remove t.inflight key)

(* ---- introspection ---- *)

let length t = locked t (fun () -> Lru.length t.lru)
let resident_bytes t = locked t (fun () -> !(t.resident))

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
        hits = Lru.hits t.lru;
        misses = Lru.misses t.lru;
        evictions = Lru.evictions t.lru;
        coalesced = t.s_coalesced;
        published = t.s_published;
        inflight = Hashtbl.length t.inflight;
      })
