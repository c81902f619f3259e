// fp64 reference interpreter: the numeric oracle for every plan.
//
// reference_run executes an Engine's graph from the definitions alone:
// one scalar loop per OpKind, accumulating in double precision over the
// engine's master fp32 weights and biases. It shares no code with the
// production path — no planner, weight packing, im2col lowering,
// Winograd transform, fusion or fast activation — so a plan variant
// that drifts numerically (the dominant failure of edge inference is
// silent drift, not crashes) cannot agree with it by accident. It is
// deliberately slow: tests and verifiers run it at small input scales.
#pragma once

#include <vector>

#include "nn/engine.hpp"

namespace ocb::nn {

/// The graph outputs of `engine` for one batch-1 `input` (in
/// Graph::outputs() order), computed in fp64 and rounded to float once
/// at the end. Reads only the graph and the master weights, so it is
/// independent of the engine's active plan.
std::vector<Tensor> reference_run(const Engine& engine, const Tensor& input);

}  // namespace ocb::nn
