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
   its components are short, so a digest would only cost a keccak.

   Layout (DESIGN.md §13): code hash (32 bytes), target (20), fork id and
   calldata length (8 bytes each, little-endian), 'z' or 'v' for value
   zeroness; then, each only when pinned, 'g' with the gas limit and the
   nonzero calldata byte count (8 bytes each), 's' with the selector (the
   first min(4, length) calldata bytes), and '|' with one 'z', 'v' or '-'
   per calldata word.  Numbers are fixed-width so no two field sequences
   share a key; which sections appear is fixed by the code hash and the
   state, and their lengths by the calldata length. *)

let add_int b n = Buffer.add_int64_le b (Int64.of_int n)

let nonzero_bytes s =
  let n = ref 0 in
  for i = 0 to String.length s - 1 do
    if String.unsafe_get s i <> '\000' then incr n
  done;
  !n

let rec zero_from data i stop =
  i >= stop || (String.unsafe_get data i = '\000' && zero_from data (i + 1) stop)

(* Is the calldata word at byte [off] zero?  Bytes past the end count as
   zero. *)
let word_is_zero data off = zero_from data off (min (off + 32) (String.length data))

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
        add_int b spec.id;
        add_int b len;
        Buffer.add_char b (if U256.is_zero tx.value then 'z' else 'v');
        if pin_gas then begin
          Buffer.add_char b 'g';
          add_int b tx.gas_limit;
          add_int b (nonzero_bytes tx.data)
        end;
        if pin_selector then begin
          Buffer.add_char b 's';
          Buffer.add_substring b tx.data 0 (min len 4)
        end;
        if (not conservative) && f.Bca.f_cf_words <> 0 then begin
          Buffer.add_char b '|';
          let n_words = if len > 4 then (len - 4 + 31) / 32 else 0 in
          for k = 0 to min (n_words - 1) 60 do
            Buffer.add_char b
              (if f.Bca.f_cf_words land (1 lsl k) = 0 then '-'
               else if word_is_zero tx.data (4 + (32 * k)) then 'z'
               else 'v')
          done
        end;
        Some (Buffer.contents b)
      end
    end

(* ---- probe / single-flight / publish ---- *)

(* [Lru.find] does not raise: no [Mutex.protect] closure on the serve path *)
let find t key =
  Mutex.lock t.mu;
  let ap =
    match Lru.find t.lru key with
    | Some e ->
      e.reuses <- e.reuses + 1;
      Some e.ap
    | None -> None
  in
  Mutex.unlock t.mu;
  ap

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
  64 + String.length (Marshal.to_string (ap.root, ap.inputs) [ Marshal.No_sharing ])

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
