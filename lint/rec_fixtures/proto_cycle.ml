(* Shape of [Dp.run_tx_fetch -> fetch_descriptor_done -> abandon_fetch]:
   the abandon step releases the buffer its caller reserved, then
   re-enters the fetch stage. [stall] releases the buffer again after
   the cycle already did: exactly one double release (PR2), at its own
   release call. *)

let rec fetch b n = if n = 0 then () else fetch_done b n
and fetch_done b n = if n land 1 = 1 then abandon b n else ()

and abandon b n =
  Proto_env.Pkt_buf.release b;
  fetch b (n - 1)

let stall () =
  let b = Proto_env.Pkt_buf.create () in
  if Proto_env.Pkt_buf.try_reserve b then begin
    fetch b 3;
    Proto_env.Pkt_buf.release b
  end
