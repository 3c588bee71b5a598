(* Synthetic dataset generators.

   These replace the paper's input files (matrices, images, Dubcova3,
   rmat graphs) with seeded generators that preserve the structural
   properties the characterization depends on: dense regular matrices,
   sparse CSR matrices with skewed rows, pixel frames, and power-law
   (RMAT) or uniform graphs in CSR form. *)

(* Compressed sparse row graph/matrix. *)
type csr = {
  n_rows : int;
  n_edges : int;
  row_ptr : int array; (* length n_rows + 1 *)
  col_idx : int array; (* length n_edges *)
  values : float array; (* length n_edges *)
}

let dense_matrix rng n m =
  Array.init (n * m) (fun _ -> Prng.float_range rng (-1.0) 1.0)

let image rng w h =
  Array.init (w * h) (fun _ -> Prng.float_range rng 0.0 255.0)

(* Build CSR from an edge list (dedup not required for our purposes). *)
let csr_of_edges ~n_rows edges values =
  let deg = Array.make n_rows 0 in
  List.iter (fun (s, _) -> deg.(s) <- deg.(s) + 1) edges;
  let row_ptr = Array.make (n_rows + 1) 0 in
  for i = 0 to n_rows - 1 do
    row_ptr.(i + 1) <- row_ptr.(i) + deg.(i)
  done;
  let n_edges = row_ptr.(n_rows) in
  let col_idx = Array.make (max 1 n_edges) 0 in
  let vals = Array.make (max 1 n_edges) 0.0 in
  let cursor = Array.copy row_ptr in
  List.iter2
    (fun (s, d) v ->
      col_idx.(cursor.(s)) <- d;
      vals.(cursor.(s)) <- v;
      cursor.(s) <- cursor.(s) + 1)
    edges values;
  { n_rows; n_edges; row_ptr; col_idx; values = vals }

(* RMAT generator (Chakrabarti et al.): recursively pick a quadrant with
   probabilities (a,b,c,d), giving the skewed degree distribution of
   real-world graphs — the source of the paper's irregular gathers. *)
let rmat rng ~scale ~edge_factor =
  let a = 0.57 and b = 0.19 and c = 0.19 in
  let n = 1 lsl scale in
  let n_edges = n * edge_factor in
  let edges = ref [] in
  let vals = ref [] in
  for _ = 1 to n_edges do
    let src = ref 0 and dst = ref 0 in
    for bit = scale - 1 downto 0 do
      let r = Prng.float rng in
      if r < a then ()
      else if r < a +. b then dst := !dst lor (1 lsl bit)
      else if r < a +. b +. c then src := !src lor (1 lsl bit)
      else begin
        src := !src lor (1 lsl bit);
        dst := !dst lor (1 lsl bit)
      end
    done;
    edges := (!src, !dst) :: !edges;
    vals := Prng.float_range rng 1.0 100.0 :: !vals
  done;
  csr_of_edges ~n_rows:n !edges !vals

(* Uniform random graph. *)
let uniform_graph rng ~n ~edge_factor =
  let n_edges = n * edge_factor in
  let edges = ref [] and vals = ref [] in
  for _ = 1 to n_edges do
    edges := (Prng.int rng n, Prng.int rng n) :: !edges;
    vals := Prng.float_range rng 1.0 100.0 :: !vals
  done;
  csr_of_edges ~n_rows:n !edges !vals

(* Sparse matrix with a skewed per-row population (geometric-ish), like
   FEM matrices (the paper's Dubcova3). *)
let sparse_matrix rng ~n ~avg_nnz_per_row =
  let edges = ref [] and vals = ref [] in
  for row = 0 to n - 1 do
    let nnz =
      let r = Prng.float rng in
      max 1 (int_of_float (float_of_int avg_nnz_per_row *. 2.0 *. r))
    in
    for _ = 1 to nnz do
      (* cluster around the diagonal, with occasional far entries *)
      let col =
        if Prng.float rng < 0.8 then
          let off = Prng.int rng (max 1 (n / 16)) - (n / 32) in
          (row + off + n) mod n
        else Prng.int rng n
      in
      edges := (row, col) :: !edges;
      vals := Prng.float_range rng (-1.0) 1.0 :: !vals
    done
  done;
  csr_of_edges ~n_rows:n !edges !vals

(* Random relabeling of vertex ids.  RMAT places hubs at low ids; real
   graph files scatter them, which is what makes frontier gathers
   uncoalesced.  Applies a random permutation to all vertex ids. *)
let relabel rng (g : csr) =
  let n = g.n_rows in
  let perm = Array.init n Fun.id in
  Prng.shuffle rng perm;
  let edges = ref [] and vals = ref [] in
  for v = 0 to n - 1 do
    for e = g.row_ptr.(v) to g.row_ptr.(v + 1) - 1 do
      edges := (perm.(v), perm.(g.col_idx.(e))) :: !edges;
      vals := g.values.(e) :: !vals
    done
  done;
  csr_of_edges ~n_rows:n !edges !vals

(* Vertex with the most out-edges (a hub — useful as a BFS source that
   reaches a large frontier quickly). *)
let max_degree_vertex (g : csr) =
  let best = ref 0 and best_deg = ref (-1) in
  for v = 0 to g.n_rows - 1 do
    let deg = g.row_ptr.(v + 1) - g.row_ptr.(v) in
    if deg > !best_deg then begin
      best := v;
      best_deg := deg
    end
  done;
  !best

(* Undirected view of a graph: every edge is inserted in both
   directions (weights preserved). *)
let symmetrize (g : csr) =
  let edges = ref [] and vals = ref [] in
  for v = 0 to g.n_rows - 1 do
    for e = g.row_ptr.(v) to g.row_ptr.(v + 1) - 1 do
      let d = g.col_idx.(e) in
      edges := (v, d) :: (d, v) :: !edges;
      vals := g.values.(e) :: g.values.(e) :: !vals
    done
  done;
  csr_of_edges ~n_rows:g.n_rows !edges !vals

(* Write a CSR structure into global memory; returns the base addresses
   of (row_ptr, col_idx, values). *)
let store_csr layout (g : csr) =
  let rp = Layout.alloc_u32 layout (g.n_rows + 1) in
  Layout.fill_u32 layout rp (g.n_rows + 1) (fun i -> g.row_ptr.(i));
  let ci = Layout.alloc_u32 layout (max 1 g.n_edges) in
  Layout.fill_u32 layout ci (max 1 g.n_edges) (fun i -> g.col_idx.(i));
  let vs = Layout.alloc_f32 layout (max 1 g.n_edges) in
  Layout.fill_f32 layout vs (max 1 g.n_edges) (fun i -> g.values.(i));
  (rp, ci, vs)

let store_f32_array layout arr =
  let base = Layout.alloc_f32 layout (Array.length arr) in
  Layout.fill_f32 layout base (Array.length arr) (fun i -> arr.(i));
  base

let store_u32_array layout arr =
  let base = Layout.alloc_u32 layout (Array.length arr) in
  Layout.fill_u32 layout base (Array.length arr) (fun i -> arr.(i));
  base
