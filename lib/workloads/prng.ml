(* Deterministic pseudo-random number generation for dataset synthesis.

   splitmix64 seeds a xoshiro256++ generator; both are standard,
   well-tested recurrences.  Every dataset in the suite is generated
   from a fixed seed so runs are exactly reproducible. *)

(* The four state words s0..s3 live at byte offsets 0, 8, 16 and 24,
   read and written unboxed (as [Exec]'s register rows are), so a draw
   neither allocates nor goes through [caml_modify]: mutable [int64]
   fields would box every word. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let splitmix64_next state =
  state := Int64.add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed =
  let state = ref (Int64.of_int seed) in
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    set64 t (8 * i) (splitmix64_next state)
  done;
  t

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* xoshiro256++.  Inlined into [int] and [float], so a draw allocates
   nothing. *)
let[@inline] next t =
  let s0 = get64 t 0 and s1 = get64 t 8 and s2 = get64 t 16 and s3 = get64 t 24 in
  let result = Int64.add (rotl (Int64.add s0 s3) 23) s0 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  set64 t 0 (Int64.logxor s0 s3);
  set64 t 8 (Int64.logxor s1 s2);
  set64 t 16 (Int64.logxor s2 (Int64.shift_left s1 17));
  set64 t 24 (rotl s3 45);
  result

(* Uniform in [0, bound). *)
let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  v mod bound

(* Uniform in [0, 1). *)
let[@inline] float t =
  let v = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  v /. 9007199254740992.0 (* 2^53 *)

(* Uniform in [lo, hi). *)
let float_range t lo hi = lo +. ((hi -. lo) *. float t)

(* In-place Fisher–Yates shuffle. *)
let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
