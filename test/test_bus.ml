(* Tests for the bus substrate: MMIO regions/mappings, interrupt lines,
   and the DMA engine's timing, data movement and IOMMU enforcement. *)

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

(* ---------- Mmio ---------- *)

let scratch_region () =
  let store = Array.make 16 0 in
  ( store,
    Bus.Mmio.region ~size:64
      ~read:(fun ~offset -> store.(offset / 4))
      ~write:(fun ~offset v -> store.(offset / 4) <- v) )

let test_mmio_rw () =
  let store, r = scratch_region () in
  let m = Bus.Mmio.map r in
  Bus.Mmio.write32 m ~offset:8 42;
  check_int "backing updated" 42 store.(2);
  check_int "read back" 42 (Bus.Mmio.read32 m ~offset:8);
  check_int "write count" 1 (Bus.Mmio.write_count m)

let test_mmio_bounds_and_alignment () =
  let _, r = scratch_region () in
  let m = Bus.Mmio.map r in
  Alcotest.check_raises "oob" (Bus.Mmio.Fault "offset 64 out of range") (fun () ->
      Bus.Mmio.write32 m ~offset:64 0);
  Alcotest.check_raises "negative" (Bus.Mmio.Fault "offset -4 out of range")
    (fun () -> ignore (Bus.Mmio.read32 m ~offset:(-4)));
  Alcotest.check_raises "unaligned" (Bus.Mmio.Fault "offset 2 not 4-byte aligned")
    (fun () -> Bus.Mmio.write32 m ~offset:2 0)

let test_mmio_revocation () =
  let _, r = scratch_region () in
  let m = Bus.Mmio.map r in
  Bus.Mmio.write32 m ~offset:0 1;
  Bus.Mmio.revoke m;
  check_bool "revoked" true (Bus.Mmio.is_revoked m);
  Alcotest.check_raises "faults" (Bus.Mmio.Fault "access through revoked mapping")
    (fun () -> Bus.Mmio.write32 m ~offset:0 2);
  (* A fresh mapping of the same region still works: revocation is
     per-mapping, exactly what context reassignment needs. *)
  let m2 = Bus.Mmio.map r in
  Bus.Mmio.write32 m2 ~offset:0 3;
  check_int "new mapping works" 3 (Bus.Mmio.read32 m2 ~offset:0)

(* ---------- Irq ---------- *)

let test_irq_delivery () =
  let irq = Bus.Irq.create ~name:"test" in
  let hits = ref 0 in
  Bus.Irq.set_handler irq (fun () -> incr hits);
  Bus.Irq.assert_line irq;
  Bus.Irq.assert_line irq;
  check_int "delivered" 2 !hits;
  check_int "count" 2 (Bus.Irq.count irq);
  Bus.Irq.reset_count irq;
  check_int "reset" 0 (Bus.Irq.count irq)

let test_irq_unrouted () =
  let irq = Bus.Irq.create ~name:"orphan" in
  Bus.Irq.assert_line irq;
  check_int "dropped" 1 (Bus.Irq.dropped irq);
  check_int "not counted" 0 (Bus.Irq.count irq)

(* ---------- Dma_engine ---------- *)

let dma_fixture () =
  let engine = Sim.Engine.create () in
  let mem = Memory.Phys_mem.create ~total_pages:32 () in
  let dma = Bus.Dma_engine.create engine ~mem () in
  (engine, mem, dma)

let dma_write dma ~context ~addr ~data k =
  Bus.Dma_engine.write_from dma ~context ~addr ~src:data ~pos:0
    ~len:(Bytes.length data) k

let test_dma_write_then_read () =
  let engine, _, dma = dma_fixture () in
  let data = Bytes.of_string "dma payload" in
  let read_back = ref Bytes.empty in
  dma_write dma ~context:0 ~addr:1000 ~data (fun r ->
      check_bool "write ok" true (r = Ok ());
      let dst = Bytes.create (Bytes.length data) in
      Bus.Dma_engine.read_into dma ~context:0 ~addr:1000
        ~len:(Bytes.length data) ~dst ~pos:0 (function
        | Ok () -> read_back := dst
        | Error _ -> Alcotest.fail "read failed"));
  ignore (Sim.Engine.run_to_completion engine);
  check Alcotest.string "bytes moved" "dma payload" (Bytes.to_string !read_back)

let test_dma_is_asynchronous () =
  let engine, _, dma = dma_fixture () in
  let completed = ref false in
  dma_write dma ~context:0 ~addr:0 ~data:(Bytes.create 1500)
    (fun _ -> completed := true);
  check_bool "not yet complete" false !completed;
  ignore (Sim.Engine.run_to_completion engine);
  check_bool "complete after time passes" true !completed

let test_dma_transfers_serialize () =
  (* Two back-to-back transfers complete later than one: the bus is a
     shared serial resource. *)
  let engine, _, dma = dma_fixture () in
  let t1 = ref 0 and t2 = ref 0 in
  dma_write dma ~context:0 ~addr:0 ~data:(Bytes.create 4096)
    (fun _ -> t1 := Sim.Engine.now engine);
  dma_write dma ~context:0 ~addr:8192 ~data:(Bytes.create 4096)
    (fun _ -> t2 := Sim.Engine.now engine);
  ignore (Sim.Engine.run_to_completion engine);
  check_bool "second later" true (!t2 > !t1);
  (* Occupancy difference is one transfer's serialization (no latency,
     which is pipelined): 4096B at 8.5 Gb/s ~ 3855ns + 40ns arbitration. *)
  let delta = !t2 - !t1 in
  check_bool
    (Printf.sprintf "gap ~3.9us (got %dns)" delta)
    true
    (delta > 3_500 && delta < 4_500)

let test_dma_bad_range () =
  let engine, _, dma = dma_fixture () in
  let result = ref None in
  Bus.Dma_engine.read_into dma ~context:0 ~addr:(32 * 4096) ~len:8
    ~dst:(Bytes.create 8) ~pos:0 (fun r -> result := Some r);
  ignore (Sim.Engine.run_to_completion engine);
  check_bool "rejected immediately" true (!result = Some (Error `Bad_range))

let test_dma_iommu_enforcement () =
  let engine, _, dma = dma_fixture () in
  let iommu = Memory.Iommu.create () in
  Memory.Iommu.grant iommu ~context:5 1;
  Bus.Dma_engine.set_iommu dma (Some iommu);
  let ok = ref None and denied = ref None in
  dma_write dma ~context:5 ~addr:4096 ~data:(Bytes.create 64)
    (fun r -> ok := Some r);
  dma_write dma ~context:5 ~addr:8192 ~data:(Bytes.create 64)
    (fun r -> denied := Some r);
  ignore (Sim.Engine.run_to_completion engine);
  check_bool "granted page ok" true (!ok = Some (Ok ()));
  check_bool "other page denied" true (!denied = Some (Error (`Iommu_denied 2)));
  (* Removing the IOMMU restores trust. *)
  Bus.Dma_engine.set_iommu dma None;
  let after = ref None in
  dma_write dma ~context:5 ~addr:8192 ~data:(Bytes.create 64)
    (fun r -> after := Some r);
  ignore (Sim.Engine.run_to_completion engine);
  check_bool "trusted again" true (!after = Some (Ok ()))

let test_dma_iommu_checks_all_pages () =
  (* A transfer spanning two pages needs both granted. *)
  let engine, _, dma = dma_fixture () in
  let iommu = Memory.Iommu.create () in
  Memory.Iommu.grant iommu ~context:1 0;
  Bus.Dma_engine.set_iommu dma (Some iommu);
  let r = ref None in
  Bus.Dma_engine.access dma ~context:1 ~addr:4000 ~len:200 (fun x -> r := Some x);
  ignore (Sim.Engine.run_to_completion engine);
  check_bool "denied on second page" true (!r = Some (Error (`Iommu_denied 1)))

let test_dma_stats () =
  let engine, _, dma = dma_fixture () in
  dma_write dma ~context:0 ~addr:0 ~data:(Bytes.create 100) ignore;
  Bus.Dma_engine.access dma ~context:0 ~addr:0 ~len:50 ignore;
  ignore (Sim.Engine.run_to_completion engine);
  check_int "transfers" 2 (Bus.Dma_engine.transfers dma);
  check_int "bytes" 150 (Bus.Dma_engine.bytes_moved dma);
  check_bool "busy time positive" true (Bus.Dma_engine.busy_time dma > 0)

let suite =
  [
    ( "bus.mmio",
      [
        Alcotest.test_case "read/write" `Quick test_mmio_rw;
        Alcotest.test_case "bounds and alignment" `Quick test_mmio_bounds_and_alignment;
        Alcotest.test_case "revocation" `Quick test_mmio_revocation;
      ] );
    ( "bus.irq",
      [
        Alcotest.test_case "delivery" `Quick test_irq_delivery;
        Alcotest.test_case "unrouted" `Quick test_irq_unrouted;
      ] );
    ( "bus.dma",
      [
        Alcotest.test_case "write then read" `Quick test_dma_write_then_read;
        Alcotest.test_case "asynchronous" `Quick test_dma_is_asynchronous;
        Alcotest.test_case "serializes" `Quick test_dma_transfers_serialize;
        Alcotest.test_case "bad range" `Quick test_dma_bad_range;
        Alcotest.test_case "iommu enforcement" `Quick test_dma_iommu_enforcement;
        Alcotest.test_case "iommu all pages" `Quick test_dma_iommu_checks_all_pages;
        Alcotest.test_case "stats" `Quick test_dma_stats;
      ] );
  ]
