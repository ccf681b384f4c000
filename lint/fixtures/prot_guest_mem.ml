(* P2 (linted under a pretend lib/guestos/ path): guest memory reached
   directly instead of through Bus.Dma_engine, also through the driver
   core's payload staging. *)
let poke mem ~addr data = Memory.Phys_mem.write mem ~addr data
let peek mem ~addr = Memory.Phys_mem.read_u32 mem ~addr
let stage p ~addr frame = Guestos.Netdev.write_payload p ~addr frame
let same mem ~addr s = Memory.Phys_mem.equal_string mem ~addr s
let put mem ~addr s = Memory.Phys_mem.write_string mem ~addr s
