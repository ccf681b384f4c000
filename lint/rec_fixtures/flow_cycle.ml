(* Shape of [Dp.run_tx_fetch -> fetch_descriptor_done -> abandon_fetch]:
   a three-function cycle whose address parameter reaches a DMA sink in
   the middle member. The guest-read address [kick] hands in must be
   reported once, with a chain that crosses the cycle one time. *)

let rec fetch dma ~addr n = if n = 0 then () else fetch_done dma ~addr n

and fetch_done dma ~addr n =
  if n land 1 = 1 then abandon dma ~addr n
  else Flow_env.Dma_engine.access dma ~addr ~len:64

and abandon dma ~addr n = fetch dma ~addr (n - 1)

let kick mem dma slot =
  let addr = Flow_env.Phys_mem.read_uint mem ~addr:(slot * 16) ~len:8 in
  fetch dma ~addr 3
