(* Entries are nodes of a circular recency list through the keyless
   sentinel [head]: [head.next] is the most recent entry, [head.prev] the
   least.  Values are stored as options so [find] allocates nothing. *)

type ('k, 'v) node = {
  key : 'k option;
  mutable value : 'v option;
  mutable prev : ('k, 'v) node;
  mutable next : ('k, 'v) node;
}

type ('k, 'v) t = {
  cap : int;
  index : ('k, ('k, 'v) node) Hashtbl.t;
  head : ('k, 'v) node;
  on_evict : 'k -> 'v -> unit;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  obs : Obs.counter array; (* hits, misses, evictions *)
}

let create ?(on_evict = fun _ _ -> ()) ~name cap =
  if cap < 1 then invalid_arg "Lru.create: capacity must be >= 1";
  let rec head = { key = None; value = None; prev = head; next = head } in
  let obs = Array.map (fun c -> Obs.counter (name ^ c)) [| ".hits"; ".misses"; ".evictions" |] in
  { cap; index = Hashtbl.create (min cap 256); head; on_evict; hits = 0; misses = 0;
    evictions = 0; obs }

let length t = Hashtbl.length t.index
let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions
let mem t k = Hashtbl.mem t.index k

let unlink n = n.prev.next <- n.next; n.next.prev <- n.prev

let push_front t n =
  n.prev <- t.head;
  n.next <- t.head.next;
  t.head.next.prev <- n;
  t.head.next <- n

let touch t n = if t.head.next != n then (unlink n; push_front t n)

let find t k =
  match Hashtbl.find t.index k with
  | n ->
    touch t n;
    t.hits <- t.hits + 1;
    Obs.incr t.obs.(0);
    n.value
  | exception Not_found ->
    t.misses <- t.misses + 1;
    Obs.incr t.obs.(1);
    None

(* The one eviction routine; on the sentinel the list is empty. *)
let pop t =
  match t.head.prev with
  | { key = Some k; value = Some v; _ } as n ->
    Hashtbl.remove t.index k;
    unlink n;
    t.evictions <- t.evictions + 1;
    Obs.incr t.obs.(2);
    t.on_evict k v;
    true
  | _ -> false

let add t k v =
  match Hashtbl.find t.index k with
  | n ->
    n.value <- Some v;
    touch t n
  | exception Not_found ->
    if length t >= t.cap then ignore (pop t : bool);
    let n = { key = Some k; value = Some v; prev = t.head; next = t.head } in
    Hashtbl.replace t.index k n;
    push_front t n

let remove t k =
  match Hashtbl.find t.index k with
  | n -> Hashtbl.remove t.index k; unlink n; n.value
  | exception Not_found -> None

let clear t =
  Hashtbl.reset t.index;
  t.head.prev <- t.head;
  t.head.next <- t.head

(* [find] and [add] do not raise: no [Mutex.protect] closure on a hit *)
let memo mu t key f a b c =
  Mutex.lock mu;
  let hit = find t key in
  Mutex.unlock mu;
  match hit with
  | Some v -> v
  | None ->
    let v = f a b c in
    Mutex.lock mu;
    add t key v;
    Mutex.unlock mu;
    v
