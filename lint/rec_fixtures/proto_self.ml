(* A self-recursive helper that releases its parameter at the bottom of
   the recursion. Its summary must hold that release once, so [twice]
   gets exactly one double release (PR2), on the second call. *)

let rec give_back b n =
  if n > 0 then give_back b (n - 1) else Proto_env.Pkt_buf.release b

let twice () =
  let b = Proto_env.Pkt_buf.create () in
  if Proto_env.Pkt_buf.try_reserve b then begin
    give_back b 2;
    give_back b 2
  end
