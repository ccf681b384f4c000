type t = {
  mutable hypervisor : Sim.Time.t;
  (* Per-domain kernel/user time, indexed by domain id and grown on
     demand, so charging allocates nothing. *)
  mutable kernel : Sim.Time.t array;
  mutable user : Sim.Time.t array;
  mutable explicit_idle : Sim.Time.t;
  (* Time of the last reset; interval charges clamp their start here so a
     slice spanning the reset only contributes its post-reset part. *)
  mutable epoch : Sim.Time.t;
}

let create () =
  {
    hypervisor = Sim.Time.zero;
    kernel = Array.make 32 Sim.Time.zero;
    user = Array.make 32 Sim.Time.zero;
    explicit_idle = Sim.Time.zero;
    epoch = Sim.Time.zero;
  }

let grown cells dom =
  if dom < 0 then invalid_arg "Profile: negative domain id";
  let a = Array.make (max (dom + 1) (2 * Array.length cells)) Sim.Time.zero in
  Array.blit cells 0 a 0 (Array.length cells);
  a

let[@cdna.hot] add t cat dt =
  match (cat : Category.t) with
  | Hypervisor -> t.hypervisor <- Sim.Time.add t.hypervisor dt
  | Kernel d ->
      if d < 0 || d >= Array.length t.kernel then
        (t.kernel <- grown t.kernel d
        [@cdna.alloc_ok "first charge of a new domain id"]);
      t.kernel.(d) <- Sim.Time.add t.kernel.(d) dt
  | User d ->
      if d < 0 || d >= Array.length t.user then
        (t.user <- grown t.user d
        [@cdna.alloc_ok "first charge of a new domain id"]);
      t.user.(d) <- Sim.Time.add t.user.(d) dt
  | Idle -> t.explicit_idle <- Sim.Time.add t.explicit_idle dt

let cell cells d = if d >= 0 && d < Array.length cells then cells.(d) else 0

let total t cat =
  match (cat : Category.t) with
  | Hypervisor -> t.hypervisor
  | Kernel d -> cell t.kernel d
  | User d -> cell t.user d
  | Idle -> t.explicit_idle

let sum cells = Array.fold_left Sim.Time.add 0 cells

let busy t = Sim.Time.add t.hypervisor (Sim.Time.add (sum t.kernel) (sum t.user))

let[@cdna.hot] charge t cat ~start ~stop =
  let start = Sim.Time.max start t.epoch in
  if Sim.Time.compare stop start > 0 then add t cat (Sim.Time.sub stop start)

let reset ?(now = Sim.Time.zero) t =
  t.hypervisor <- Sim.Time.zero;
  Array.fill t.kernel 0 (Array.length t.kernel) Sim.Time.zero;
  Array.fill t.user 0 (Array.length t.user) Sim.Time.zero;
  t.explicit_idle <- Sim.Time.zero;
  t.epoch <- now

type report = {
  hyp : float;
  driver_kernel : float;
  driver_user : float;
  guest_kernel : float;
  guest_user : float;
  idle : float;
}

let report t ~window ~driver_domain =
  if window <= 0 then invalid_arg "Profile.report: non-positive window";
  let w = Sim.Time.to_sec_f window in
  let pct dt = Sim.Time.to_sec_f dt /. w *. 100. in
  let is_driver dom =
    match driver_domain with Some d -> Int.equal d dom | None -> false
  in
  let split cells =
    let drv = ref 0 and guest = ref 0 in
    Array.iteri
      (fun dom dt ->
        if is_driver dom then drv := Sim.Time.add !drv dt
        else guest := Sim.Time.add !guest dt)
      cells;
    (!drv, !guest)
  in
  let drv_k, guest_k = split t.kernel in
  let drv_u, guest_u = split t.user in
  let idle = Float.max 0. (100. -. pct (busy t)) in
  {
    hyp = pct t.hypervisor;
    driver_kernel = pct drv_k;
    driver_user = pct drv_u;
    guest_kernel = pct guest_k;
    guest_user = pct guest_u;
    idle;
  }

let pp_report ppf r =
  Format.fprintf ppf
    "hyp=%.1f%% drv-os=%.1f%% drv-user=%.1f%% guest-os=%.1f%% guest-user=%.1f%% idle=%.1f%%"
    r.hyp r.driver_kernel r.driver_user r.guest_kernel r.guest_user r.idle
