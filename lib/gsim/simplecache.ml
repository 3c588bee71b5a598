(* Minimal serial set-associative LRU cache: every access resolves
   immediately (hit, or miss + fill).  Used by the functional simulator
   to emulate the CUDA-profiler hit/miss counters (Table III), where no
   timing or in-flight state is involved. *)

type t = {
  sets : int;
  ways : int;
  line_size : int;
  tags : int array array;
  lru : int array array;
  mutable time : int;
  mutable hits : int;
  mutable misses : int;
}

let create ~sets ~ways ~line_size =
  {
    sets;
    ways;
    line_size;
    tags = Array.init sets (fun _ -> Array.make ways (-1));
    lru = Array.init sets (fun _ -> Array.make ways 0);
    time = 0;
    hits = 0;
    misses = 0;
  }

(* Access one line address; returns true on hit.  Misses allocate. *)
let access t la =
  t.time <- t.time + 1;
  let s = la / t.line_size mod t.sets in
  let tags = t.tags.(s) and lru = t.lru.(s) in
  let rec find w = if w >= t.ways then -1 else if tags.(w) = la then w else find (w + 1) in
  let w = find 0 in
  if w >= 0 then begin
    lru.(w) <- t.time;
    t.hits <- t.hits + 1;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    (* victim: LRU way *)
    let victim = ref 0 in
    for i = 1 to t.ways - 1 do
      if lru.(i) < lru.(!victim) then victim := i
    done;
    tags.(!victim) <- la;
    lru.(!victim) <- t.time;
    false
  end
