(* Self-contained stand-ins for the simulator surface the lint fixtures
   call. The rules canonicalize identifiers to their last two path
   components, so [Lint_env.Phys_mem.transfer] matches
   [Phys_mem.transfer] exactly as the real [Memory.Phys_mem] does.
   Bodies exist only so the fixtures typecheck. *)

module Phys_mem = struct
  type t = unit

  let transfer (_ : t) pfn ~to_ = pfn + to_
  let get_ref (_ : t) pfn = pfn
  let write (_ : t) ~addr data = ignore (addr + Bytes.length data)
  let read_u32 (_ : t) ~addr = addr
  let equal_string (_ : t) ~addr s = addr = String.length s
  let write_string (_ : t) ~addr s = ignore (addr + String.length s)
end

module Iommu = struct
  let grant () ~context pfn = ignore (context + pfn)
end

module Netdev = struct
  let write_payload () ~addr frame = ignore (addr + Bytes.length frame)
end
