(* Flat byte-addressable memories.  Global memory is one Bytes buffer
   shared by all CTAs; shared/local memories are small per-CTA buffers.
   Register values are 64-bit; floats travel as IEEE-754 bit patterns
   (f32 values are rounded through 32 bits on store/load). *)

(* The buffer is zeroed lazily: [zeroed] bytes from the start are
   known-zero (or since overwritten); anything beyond is uninitialized
   [Bytes.create] garbage that no access has ever seen.  Applications
   allocate tens of MB of address space but often touch only a few MB,
   and an eager memset of the whole buffer dominated their setup time;
   the watermark bounds total zeroing work by the touched range (plus
   one chunk) instead of the capacity. *)
type t = { data : Bytes.t; size : int; mutable zeroed : int }

let zero_chunk = 256 * 1024

let create size = { data = Bytes.create size; size; zeroed = 0 }

let size t = t.size

(* Extend the zeroed prefix to cover [limit) in chunk-sized steps. *)
let extend_zero t limit =
  let upto = min t.size ((limit + zero_chunk - 1) land lnot (zero_chunk - 1)) in
  Bytes.fill t.data t.zeroed (upto - t.zeroed) '\000';
  t.zeroed <- upto

let check_slow t addr len =
  if addr < 0 || addr + len > t.size then
    Sim_error.error Sim_error.Mem_fault
      "access [%d,+%d) out of bounds [0,%d)" addr len t.size;
  if addr + len > t.zeroed then extend_zero t (addr + len)

(* The zeroed prefix lies inside the buffer, so an access within it
   needs neither the bounds check nor zeroing. *)
let[@inline] check t addr len =
  if addr < 0 || addr + len > t.zeroed then check_slow t addr len

(* The zeroed prefix is every byte an access or a zeroing pass has
   reached; the rest of the buffer is unread garbage.  So copying the
   prefix and its length captures the whole image, and putting them
   back restores it even if later writes went past the old watermark:
   those bytes are zeroed again before anything reads them. *)
type image = Bytes.t

let copy_image t = Bytes.sub t.data 0 t.zeroed

let restore_image t image =
  let n = Bytes.length image in
  Bytes.blit image 0 t.data 0 n;
  t.zeroed <- n

(* All loads zero-extend into the 64-bit register except the signed
   narrow types, which sign-extend (as PTX ld.sN does). *)
let[@inline] load t (ty : Ptx.Types.dtype) addr =
  let open Ptx.Types in
  check t addr (dtype_size ty);
  match ty with
  | U8 -> Int64.of_int (Char.code (Bytes.get t.data addr))
  | S8 -> Int64.of_int (Bytes.get_int8 t.data addr)
  | U16 -> Int64.of_int (Bytes.get_uint16_le t.data addr)
  | S16 -> Int64.of_int (Bytes.get_int16_le t.data addr)
  | U32 -> Int64.logand (Int64.of_int32 (Bytes.get_int32_le t.data addr)) 0xFFFFFFFFL
  | S32 -> Int64.of_int32 (Bytes.get_int32_le t.data addr)
  | U64 | S64 -> Bytes.get_int64_le t.data addr
  | F32 ->
      (* widen to double bits for the register file *)
      Int64.bits_of_float
        (Int32.float_of_bits (Bytes.get_int32_le t.data addr))
  | F64 -> Bytes.get_int64_le t.data addr

let[@inline] store t (ty : Ptx.Types.dtype) addr v =
  let open Ptx.Types in
  check t addr (dtype_size ty);
  match ty with
  | U8 | S8 -> Bytes.set_int8 t.data addr (Int64.to_int v land 0xFF)
  | U16 | S16 -> Bytes.set_uint16_le t.data addr (Int64.to_int v land 0xFFFF)
  | U32 | S32 -> Bytes.set_int32_le t.data addr (Int64.to_int32 v)
  | U64 | S64 -> Bytes.set_int64_le t.data addr v
  | F32 ->
      Bytes.set_int32_le t.data addr
        (Int32.bits_of_float (Int64.float_of_bits v))
  | F64 -> Bytes.set_int64_le t.data addr v

(* The warp executor's paths: the loaded or stored word sits in a
   register file's bytes, so it crosses no boxed int64. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let load_slot t ty addr dst off = set64 dst off (load t ty addr)
let store_slot t ty addr src off = store t ty addr (get64 src off)

(* Convenience host-side accessors for initializing datasets and
   checking results. *)
let get_u32 t addr = Int64.to_int (load t Ptx.Types.U32 addr)
let set_u32 t addr v = store t Ptx.Types.U32 addr (Int64.of_int v)
let get_f32 t addr = Int64.float_of_bits (load t Ptx.Types.F32 addr)
let set_f32 t addr v = store t Ptx.Types.F32 addr (Int64.bits_of_float v)
let get_i64 t addr = load t Ptx.Types.U64 addr
let set_i64 t addr v = store t Ptx.Types.U64 addr v
let get_f64 t addr = Int64.float_of_bits (load t Ptx.Types.F64 addr)
let set_f64 t addr v = store t Ptx.Types.F64 addr (Int64.bits_of_float v)
