type 'a t = 'a list Atomic.t

let create () = Atomic.make []

let rec push t x =
  let old = Atomic.get t in
  if not (Atomic.compare_and_set t old (x :: old)) then push t x

let drain t = List.rev (Atomic.exchange t [])
