// Package interp executes scheduled PS modules — the execution
// substrate standing in for the paper's MIMD target. Each module is
// compiled once: equations become typed closure kernels, the core
// schedule is lowered into every variant of the flat loop-plan IR
// (internal/plan), and activations execute plan instructions with
// virtual dimensions allocated as sliding windows.
//
// # Contract
//
// A compiled Program is immutable and safe for concurrent Run/RunCtx
// calls: every activation builds its own environment, and pooled
// per-worker state (env copies and index frames) is reused across DOALL
// chunks without sharing mutable state between concurrent activations.
// Cancellation aborts sequential loops within one iteration and
// in-flight parallel work within one chunk/tile, and Stats counters are
// valid up to the abort.
//
// # Plan-variant matrix
//
// Options select among the four compiled [fuse][hyperplane] plan
// variants at activation time (variants that lower identically share a
// compiled plan); equation kernels are compiled once and shared by all
// of them. Parallel activations run wavefront steps as doacross tiles
// (internal/sched); Options.Schedule picks the tiles' predecessor
// shape — the dependence window's tiles, or the whole previous plane
// under PolicyBarrier.
//
// # Bitwise-identical results
//
// Every variant × schedule combination runs the same kernel closures at
// exactly the original iteration points in a dependence-respecting
// order, so results are bitwise identical to the sequential reference:
//
//   - DOALL steps permute independent points only;
//   - wavefront steps execute hyperplanes t = π·x in ascending order
//     with π·d ≥ 1 for every dependence d of the nest's equation group,
//     and each in-box plane point runs the group's kernels in scheduled
//     order, preserving in-plane zero-distance dependences;
//   - the sequential plane loop and the tiles share one geometry
//     (wfSpace): the same per-plane tightened bounds, the same T⁻¹ preimages, the same
//     guard against bounding-box slack.
//
// The variants parity matrix (variants_test.go at the repo root)
// enforces this across the corpus under -race.
//
// # Tile sizing
//
// Tile widths come from point counts, never from timings: the blocked
// plane coordinate is cut into span/(workers×sched.TilesPerWorker)
// wide tiles, widened until a tile covers minTilePoints points of the
// plane box (Options.Grain overrides the width). A nest whose grid is a
// single tile runs its planes on the calling goroutine with no pool
// dispatch. The same options therefore always give the same schedule.
package interp
