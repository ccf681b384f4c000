(* P1: ownership mutation outside the hypervisor layers. *)
[@@@cdna.layer "nic"]
let steal mem pfn dom =
  ignore (Lint_env.Phys_mem.transfer mem pfn ~to_:dom);
  Lint_env.Phys_mem.get_ref mem pfn

let leak iommu ~context pfn = Lint_env.Iommu.grant iommu ~context pfn

(* The same calls inside the hypervisor layers are fine. *)
module Xen = struct
  [@@@cdna.layer "xen"]

  let steal mem pfn dom =
    ignore (Lint_env.Phys_mem.transfer mem pfn ~to_:dom);
    Lint_env.Phys_mem.get_ref mem pfn

  let leak iommu ~context pfn = Lint_env.Iommu.grant iommu ~context pfn
end
