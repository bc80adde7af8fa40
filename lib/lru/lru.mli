(** A bounded least-recently-used map, the one bound behind the decode,
    analysis-facts and template caches.  O(1) operations; a hit allocates
    nothing.  Counts hits, misses and evictions per instance and into the
    Obs counters [<name>.{hits,misses,evictions}].  Unsynchronized. *)

type ('k, 'v) t

val create : ?on_evict:('k -> 'v -> unit) -> name:string -> int -> ('k, 'v) t
(** [create ~name capacity]; [on_evict] sees each evicted entry. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** Counts a hit or a miss; a hit becomes the most recent entry. *)

val mem : ('k, 'v) t -> 'k -> bool
(** No count, no change of recency. *)

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Bind as the most recent entry; a new key at capacity first {!pop}s. *)

val pop : ('k, 'v) t -> bool
(** The one eviction routine: evict the least recent entry, [false] when
    empty.  Rebinding, {!remove} and {!clear} are not evictions. *)

val remove : ('k, 'v) t -> 'k -> 'v option
val clear : ('k, 'v) t -> unit
val length : ('k, 'v) t -> int
val hits : ('k, 'v) t -> int
val misses : ('k, 'v) t -> int
val evictions : ('k, 'v) t -> int

val memo : Mutex.t -> ('k, 'v) t -> 'k -> ('a -> 'b -> 'c -> 'v) -> 'a -> 'b -> 'c -> 'v
(** [memo mu t key f a b c], [mu] guarding [t]: the value under [key], else
    [f a b c] computed outside the lock, then added (racing misses each
    compute).  [f] takes its arguments apart so a hit builds no closure. *)
