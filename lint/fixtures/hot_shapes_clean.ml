(* Shapes that look like allocation but are not, in a hot body and in a
   non-hot helper a hot body calls: a constant constructor payload
   (allocated statically), a named local loop (a direct call, no
   closure) and a local ref (unboxed). Zero diagnostics expected. *)

let[@cdna.hot] check_len ~max n = if n > max then Error `Bad_range else Ok ()

let[@cdna.hot] sum_to n =
  let rec loop acc i = if i > n then acc else loop (acc + i) (i + 1) in
  loop 0 0

let[@cdna.hot] count_set b =
  let c = ref 0 in
  for i = 0 to Bytes.length b - 1 do
    if Bytes.get b i <> '\000' then incr c
  done;
  !c

let scan b ~max =
  let c = ref 0 in
  let rec loop i = if i < Bytes.length b then (incr c; loop (i + 1)) in
  loop 0;
  if !c > max then Error `Bad_range else Ok ()

let[@cdna.hot] guard b = scan b ~max:64
