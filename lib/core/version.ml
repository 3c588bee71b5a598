(* Package and simulator-model version identifiers.

   [version] is what `--version` prints.  [sim_tag] names the revision
   of the *simulated machine's semantics*: it participates in the sweep
   cache's content digests, so bumping it invalidates every cached
   result.  Bump it whenever a change alters simulated statistics for
   some (kernel, config, dataset) — new timing behaviour, a fixed
   accounting bug, a changed default interpretation — and leave it
   alone for pure refactors, CLI work, or performance changes that are
   observably equivalent (e.g. the fast-forward engine, which is
   byte-identical by construction and test). *)

let version = "0.5.0"
let sim_tag = "critload-sim-2"
