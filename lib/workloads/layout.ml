(* Bump allocator laying out kernel arrays in the flat global memory.
   Allocations are 128-byte aligned (one cache line) so array bases
   never split lines, matching cudaMalloc's alignment guarantees. *)

type t = { mem : Gsim.Mem.t; mutable cursor : int }

let alignment = 128

let create mem = { mem; cursor = 0 }

(* Reserve [bytes] and return the base address. *)
let alloc t bytes =
  let base = t.cursor in
  let bytes = (bytes + alignment - 1) / alignment * alignment in
  if base + bytes > Gsim.Mem.size t.mem then
    invalid_arg
      (Printf.sprintf "Layout.alloc: %d bytes requested, %d available" bytes
         (Gsim.Mem.size t.mem - base));
  t.cursor <- base + bytes;
  base

(* Typed array allocators, returning the base address. *)
let alloc_f32 t n = alloc t (4 * n)
let alloc_u32 t n = alloc t (4 * n)

let fill_f32 t base n f =
  for i = 0 to n - 1 do
    Gsim.Mem.set_f32 t.mem (base + (4 * i)) (f i)
  done

let fill_u32 t base n f =
  for i = 0 to n - 1 do
    Gsim.Mem.set_u32 t.mem (base + (4 * i)) (f i)
  done

let param name addr = (name, Int64.of_int addr)
let param_int name v = (name, Int64.of_int v)
