(* P2: guest memory reached directly instead of through Bus.Dma_engine,
   also through the driver core's payload staging. *)
[@@@cdna.layer "guestos"]
let poke mem ~addr data = Lint_env.Phys_mem.write mem ~addr data
let peek mem ~addr = Lint_env.Phys_mem.read_u32 mem ~addr
let stage p ~addr frame = Lint_env.Netdev.write_payload p ~addr frame
let same mem ~addr s = Lint_env.Phys_mem.equal_string mem ~addr s
let put mem ~addr s = Lint_env.Phys_mem.write_string mem ~addr s

(* The same code outside the restricted layers is fine. *)
module Experiments = struct
  [@@@cdna.layer "experiments"]

  let poke mem ~addr data = Lint_env.Phys_mem.write mem ~addr data
  let peek mem ~addr = Lint_env.Phys_mem.read_u32 mem ~addr
  let stage p ~addr frame = Lint_env.Netdev.write_payload p ~addr frame
  let same mem ~addr s = Lint_env.Phys_mem.equal_string mem ~addr s
  let put mem ~addr s = Lint_env.Phys_mem.write_string mem ~addr s
end
