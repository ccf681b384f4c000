(* Shape of [Dp.run_rx]: a self-recursive drain loop whose address
   parameter reaches a DMA sink, with the recursive call ahead of the
   sink in evaluation order. The guest-read address [pump] hands in must
   be reported once, with a chain that walks the recursion one time. *)

let rec drain dma ~addr n =
  if n = 0 then ()
  else if n land 1 = 1 then drain dma ~addr (n - 1)
  else Flow_env.Dma_engine.access dma ~addr ~len:64

let pump mem dma slot =
  let addr = Flow_env.Phys_mem.read_uint mem ~addr:(slot * 16) ~len:8 in
  drain dma ~addr 4
