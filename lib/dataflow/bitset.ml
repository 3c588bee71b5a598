(* Fixed-capacity bit sets over [0, n), backed by an int array.  Used as
   the dataflow-fact representation for reaching definitions and
   liveness. *)

type t = { bits : int array; n : int }

let word_bits = Sys.int_size

let create n = { bits = Array.make ((n + word_bits - 1) / word_bits) 0; n }

let copy t = { t with bits = Array.copy t.bits }

let check t i =
  if i < 0 || i >= t.n then
    invalid_arg (Printf.sprintf "Bitset: index %d out of [0,%d)" i t.n)

let add t i =
  check t i;
  let w = i / word_bits and b = i mod word_bits in
  t.bits.(w) <- t.bits.(w) lor (1 lsl b)

let remove t i =
  check t i;
  let w = i / word_bits and b = i mod word_bits in
  t.bits.(w) <- t.bits.(w) land lnot (1 lsl b)

let mem t i =
  check t i;
  let w = i / word_bits and b = i mod word_bits in
  t.bits.(w) land (1 lsl b) <> 0

(* dst <- dst ∪ src; returns true when dst changed. *)
let union_into ~dst ~src =
  if dst.n <> src.n then invalid_arg "Bitset.union_into: size mismatch";
  let changed = ref false in
  for w = 0 to Array.length dst.bits - 1 do
    let v = dst.bits.(w) lor src.bits.(w) in
    if v <> dst.bits.(w) then begin
      dst.bits.(w) <- v;
      changed := true
    end
  done;
  !changed

(* dst <- dst \ src *)
let diff_into ~dst ~src =
  if dst.n <> src.n then invalid_arg "Bitset.diff_into: size mismatch";
  for w = 0 to Array.length dst.bits - 1 do
    dst.bits.(w) <- dst.bits.(w) land lnot src.bits.(w)
  done

let equal a b = a.n = b.n && a.bits = b.bits

let cardinal t =
  let count = ref 0 in
  for i = 0 to t.n - 1 do
    if mem t i then incr count
  done;
  !count

let elements t =
  let acc = ref [] in
  for i = t.n - 1 downto 0 do
    if mem t i then acc := i :: !acc
  done;
  !acc

let of_list n l =
  let t = create n in
  List.iter (add t) l;
  t
