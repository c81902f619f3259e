// Graph fusion and liveness-driven activation memory planning.
//
// Three cooperating transforms, all decided here as a pure function of
// (graph, per-node conv plans, max_batch) so tests can probe decisions
// without an engine. Every engine plan runs all three:
//
//   1. Residual fusion — an elementwise Add whose one input is a
//      single-consumer Conv folds into that conv's GEMM epilogue
//      (EpiMode, see tensor/gemm.hpp): the conv writes straight into
//      the add's buffer, combining with the other operand in the
//      write-back, and the Add node is skipped. This removes a full
//      read+read+write pass over the feature map.
//
//   2. Concat copy elimination — a single-consumer producer feeding a
//      channel Concat is *placed*: its output buffer becomes a view
//      into the concat's buffer at the right channel offset, so the
//      concat's copy for that input disappears. Placements chain
//      (concat of concat).
//
//   3. Liveness-driven arena planning — every remaining root buffer
//      gets a live range over the topological execution order;
//      buffers whose ranges do not overlap share arena offsets
//      (greedy best-fit, largest first). The plan reports peak arena
//      bytes before/after so benches can gate the reduction.
//
// The planner only *decides*; the engine applies the plan by pointing
// each node's activation base into its one arena (see engine.hpp).
#pragma once

#include <cstddef>
#include <vector>

#include "nn/conv_plan.hpp"
#include "nn/graph.hpp"
#include "tensor/gemm.hpp"

namespace ocb::nn {

/// Per-node fusion decision.
struct NodeFusion {
  /// Node is elided from execution (a residual Add folded into its
  /// producer conv). Its buffer still exists — the conv writes there.
  bool skip = false;

  /// This conv carries a fused residual add: it writes into
  /// `residual_out`'s buffer with the epilogue below instead of its
  /// own. The engine preloads that buffer with `residual_src` (free
  /// when the add was aliased onto it, one copy otherwise).
  bool residual_add = false;

  EpiMode mode = EpiMode::kStore;
  Act act = Act::kNone;   ///< effective epilogue activation
  int residual_src = -1;  ///< the add's other operand (x)
  int residual_out = -1;  ///< the skipped Add node (write target)

  /// Output lives inside `place_parent`'s buffer at
  /// `place_offset_floats` within each image (chains resolve through
  /// MemoryPlan::root_of). -1: the node owns a root buffer.
  int place_parent = -1;
  std::size_t place_offset_floats = 0;
};

/// The complete fusion + memory decision for one (graph, plans,
/// max_batch) tuple.
struct MemoryPlan {
  std::vector<NodeFusion> nodes;  ///< one entry per graph node

  /// Arena offset (floats) of every root node's buffer. Placed nodes
  /// resolve through root_of.
  std::vector<std::size_t> offsets;

  /// Peak activation floats: the liveness-planned arena size.
  std::size_t arena_floats = 0;
  /// One-buffer-per-node total, the footprint the arena is measured
  /// against.
  std::size_t naive_floats = 0;

  int residual_fused = 0;  ///< Add nodes folded into conv epilogues
  int concat_elided = 0;   ///< concat inputs placed (copies removed)

  /// Resolve a node's placement chain: returns the root node whose
  /// buffer holds it and accumulates the within-image float offset.
  int root_of(int node, std::size_t* offset_floats) const noexcept;
};

/// Decide fusion and memory placement for `graph` executing under the
/// given per-node conv plans with activation batch capacity
/// `max_batch`. Pure function; never touches engine state. Residual
/// fusion only engages for dense-storage convs planned as
/// kDirectGemm / kWinograd / kIm2colFused (the kernels with EpiMode
/// support), so kInt8's quantized stripes never fold.
MemoryPlan plan_fusion(const Graph& graph, const std::vector<ConvPlan>& plans,
                       int max_batch);

}  // namespace ocb::nn
