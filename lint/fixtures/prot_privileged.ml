(* Module-level privilege declaration exempts a nic-layer file from P
   rules (and is counted as a suppression). *)
[@@@cdna.privileged "fixture: stands in for the hypervisor layer"]
[@@@cdna.layer "nic"]

let pin mem pfn = Lint_env.Phys_mem.get_ref mem pfn
