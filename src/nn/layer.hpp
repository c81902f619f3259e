// Graph node (layer) specifications for the inference engine.
//
// A Graph (graph.hpp) is a DAG of these specs; the Engine (engine.hpp)
// materialises weights and executes, and the Profiler (profile.hpp)
// derives per-layer FLOP/parameter/byte counts that drive the device
// simulator.
#pragma once

#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace ocb::nn {

/// Fused post-op activation.
enum class Act { kNone, kRelu, kLeakyRelu, kSilu, kSigmoid };

enum class OpKind {
  kInput,          ///< graph input placeholder
  kConv,           ///< 2D convolution + bias + activation
  kDwConv,         ///< depthwise convolution + bias + activation
  kDeconv,         ///< 2× transposed convolution (stride 2, k=4-style)
  kMaxPool,        ///< max pooling
  kUpsample,       ///< nearest-neighbour 2× upsample
  kConcat,         ///< channel concatenation
  kAdd,            ///< elementwise residual add
  kSlice,          ///< channel slice [begin, end)
  kGlobalAvgPool,  ///< spatial mean → 1×1
  kLinear,         ///< fully connected over flattened input
};

const char* op_name(OpKind kind) noexcept;

/// One node of the model DAG. Field meaning depends on `kind`; unused
/// fields stay at their defaults.
struct Node {
  OpKind kind = OpKind::kInput;
  std::vector<int> inputs;  ///< indices of producer nodes
  std::string name;         ///< diagnostic label ("backbone.stem", ...)

  int out_c = 0;    ///< conv/deconv/linear output channels
  int kernel = 1;   ///< square kernel size
  int stride = 1;
  int pad = 0;
  Act act = Act::kNone;

  int slice_begin = 0;  ///< kSlice channel range
  int slice_end = 0;
};

/// Shape of a node's output feature map (batch dim is implicit 1).
struct FeatShape {
  int c = 0, h = 0, w = 0;
  std::size_t numel() const noexcept {
    return static_cast<std::size_t>(c) * h * w;
  }
  bool operator==(const FeatShape&) const = default;
};

/// Apply an activation in place, branch-free and over the global pool:
/// the GEMM epilogue's activation (fast_exp for SiLU and sigmoid), so a
/// standalone activation equals a fused one. Defined in nn/ops.cpp.
void apply_activation(Act act, float* data, std::size_t n) noexcept;

}  // namespace ocb::nn
