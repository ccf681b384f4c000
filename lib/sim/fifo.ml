type 'a t = {
  mutable buf : 'a array; (* power-of-two capacity *)
  mutable head : int;
  mutable len : int;
  dummy : 'a;
}

let create ~dummy = { buf = Array.make 4 dummy; head = 0; len = 0; dummy }
let[@cdna.hot] length t = t.len
let[@cdna.hot] is_empty t = t.len = 0
(* Masked by the power-of-two capacity, so always a valid index: the
   accessors below skip the bounds check. *)
let[@cdna.hot] slot t i = (t.head + i) land (Array.length t.buf - 1)

let grow t =
  let n = Array.length t.buf in
  let buf = Array.make (2 * n) t.dummy in
  for i = 0 to t.len - 1 do
    buf.(i) <- Array.unsafe_get t.buf (slot t i)
  done;
  t.buf <- buf;
  t.head <- 0

let[@cdna.hot] push t x =
  if t.len = Array.length t.buf then
    (grow t [@cdna.alloc_ok "doubling growth, amortized to zero per push"]);
  Array.unsafe_set t.buf (slot t t.len) x;
  t.len <- t.len + 1

let[@cdna.hot] pop t =
  if t.len = 0 then invalid_arg "Fifo.pop: empty";
  let x = Array.unsafe_get t.buf t.head in
  Array.unsafe_set t.buf t.head t.dummy;
  t.head <- slot t 1;
  t.len <- t.len - 1;
  x

let[@cdna.hot] get t i =
  if i < 0 || i >= t.len then invalid_arg "Fifo.get: index out of range";
  Array.unsafe_get t.buf (slot t i)

let clear t =
  Array.fill t.buf 0 (Array.length t.buf) t.dummy;
  t.head <- 0;
  t.len <- 0

let iter f t =
  for i = 0 to t.len - 1 do
    f t.buf.(slot t i)
  done

let to_list t =
  let rec build i acc = if i < 0 then acc else build (i - 1) (t.buf.(slot t i) :: acc) in
  build (t.len - 1) []
