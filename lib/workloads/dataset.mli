(** Synthetic dataset generators replacing the paper's input files,
    preserving the structural properties the characterization depends
    on: dense matrices, skewed-row sparse matrices, pixel frames, and
    power-law (RMAT) or uniform graphs in CSR form. *)

(** Compressed-sparse-row graph/matrix. *)
type csr = {
  n_rows : int;
  n_edges : int;
  row_ptr : int array;  (** length [n_rows + 1] *)
  col_idx : int array;
  values : float array;
}

val dense_matrix : Prng.t -> int -> int -> float array
val image : Prng.t -> int -> int -> float array

val csr_of_edges : n_rows:int -> (int * int) list -> float list -> csr
(** Build CSR from an edge list with per-edge values (counting sort by
    source). *)

val rmat : Prng.t -> scale:int -> edge_factor:int -> csr
(** RMAT generator (Chakrabarti et al.): 2^scale vertices with the
    skewed degree distribution of real-world graphs — the source of the
    paper's irregular gathers.  Quadrant probabilities a = 0.57,
    b = c = 0.19 (Graph500's). *)

val uniform_graph : Prng.t -> n:int -> edge_factor:int -> csr
(** Uniform random graph (near-Poisson degrees), like Rodinia's
    graph1M input. *)

val sparse_matrix : Prng.t -> n:int -> avg_nnz_per_row:int -> csr
(** FEM-like sparse matrix: diagonal-clustered with occasional far
    entries and skewed row populations (the paper's Dubcova3). *)

val relabel : Prng.t -> csr -> csr
(** Random permutation of vertex ids.  RMAT clusters hubs at low ids;
    real graph files scatter them, which is what makes frontier gathers
    uncoalesced. *)

val max_degree_vertex : csr -> int
(** A hub — useful as a BFS/SSSP source that reaches a large frontier
    quickly. *)

val symmetrize : csr -> csr
(** Undirected view: every edge inserted in both directions (weights
    preserved; doubles the edge count). *)

val store_csr : Layout.t -> csr -> int * int * int
(** Write row_ptr / col_idx / values into global memory; returns their
    base addresses. *)

val store_f32_array : Layout.t -> float array -> int
val store_u32_array : Layout.t -> int array -> int
