type t = {
  size : int;
  addr_off : int;
  addr_bytes : int;
  len_off : int;
  len_bytes : int;
  flags_off : int;
  seqno_off : int;
}

let default =
  {
    size = 16;
    addr_off = 0;
    addr_bytes = 8;
    len_off = 8;
    len_bytes = 4;
    flags_off = 12;
    seqno_off = 14;
  }

let compact =
  {
    size = 12;
    addr_off = 0;
    addr_bytes = 4;
    len_off = 4;
    len_bytes = 2;
    flags_off = 8;
    seqno_off = 10;
  }

let fields t =
  [
    ("addr", t.addr_off, t.addr_bytes);
    ("len", t.len_off, t.len_bytes);
    ("flags", t.flags_off, 2);
    ("seqno", t.seqno_off, 2);
  ]

let validate t =
  let rec check = function
    | [] -> Ok ()
    | (name, off, bytes) :: rest ->
        if off < 0 || off + bytes > t.size then
          Error (Printf.sprintf "%s field [%d, %d) outside descriptor size %d" name off (off + bytes) t.size)
        else begin
          let overlap =
            List.find_opt
              (fun (name2, off2, bytes2) ->
                name <> name2 && off < off2 + bytes2 && off2 < off + bytes)
              (fields t)
          in
          match overlap with
          | Some (name2, _, _) ->
              Error (Printf.sprintf "%s overlaps %s" name name2)
          | None -> check rest
        end
  in
  if t.size <= 0 then Error "non-positive size"
  else if t.addr_bytes < 4 || t.addr_bytes > 8 then
    Error "addr_bytes must be in [4, 8]"
  else if t.len_bytes <> 2 && t.len_bytes <> 4 then
    Error "len_bytes must be 2 or 4"
  else check (fields t)

let[@cdna.hot] uint_write mem ~addr ~bytes v = Phys_mem.write_uint mem ~addr ~bytes v
let uint_read mem ~addr ~bytes = Phys_mem.read_uint mem ~addr ~bytes

let[@cdna.hot] field_max bytes = if bytes >= 8 then max_int else (1 lsl (8 * bytes)) - 1
let[@cdna.hot] max_addr t = field_max t.addr_bytes
let[@cdna.hot] max_len t = field_max t.len_bytes

let[@cdna.hot] write_fields t mem ~at ~addr ~len ~flags ~seqno =
  if addr < 0 || addr > max_addr t then
    invalid_arg "Desc_layout.write: address does not fit layout";
  if len < 0 || len > max_len t then
    invalid_arg "Desc_layout.write: length does not fit layout";
  if flags < 0 || flags > 0xFFFF then
    invalid_arg "Desc_layout.write: flags out of range";
  if seqno < 0 || seqno > 0xFFFF then
    invalid_arg "Desc_layout.write: seqno out of range";
  uint_write mem ~addr:(at + t.addr_off) ~bytes:t.addr_bytes addr;
  uint_write mem ~addr:(at + t.len_off) ~bytes:t.len_bytes len;
  uint_write mem ~addr:(at + t.flags_off) ~bytes:2 flags;
  uint_write mem ~addr:(at + t.seqno_off) ~bytes:2 seqno

let write t mem ~at (d : Dma_desc.t) =
  write_fields t mem ~at ~addr:d.Dma_desc.addr ~len:d.Dma_desc.len
    ~flags:d.Dma_desc.flags ~seqno:d.Dma_desc.seqno

let read t mem ~at =
  {
    Dma_desc.addr = uint_read mem ~addr:(at + t.addr_off) ~bytes:t.addr_bytes;
    len = uint_read mem ~addr:(at + t.len_off) ~bytes:t.len_bytes;
    flags = uint_read mem ~addr:(at + t.flags_off) ~bytes:2;
    seqno = uint_read mem ~addr:(at + t.seqno_off) ~bytes:2;
  }

let equal a b = a = b

let pp ppf t =
  Format.fprintf ppf
    "{size=%d addr@%d:%d len@%d:%d flags@%d seqno@%d}" t.size t.addr_off
    t.addr_bytes t.len_off t.len_bytes t.flags_off t.seqno_off
