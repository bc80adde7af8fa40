(** A lock-free multi-producer single-consumer mailbox (Treiber stack).

    Worker domains {!push} finished results; the main thread {!drain}s them
    in one atomic exchange.  [drain] returns items oldest-first relative to
    the push order observed by the exchange. *)

type 'a t

val create : unit -> 'a t
val push : 'a t -> 'a -> unit

val drain : 'a t -> 'a list
(** Atomically take everything currently in the mailbox. *)
