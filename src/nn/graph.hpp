// Model DAG builder with shape inference.
//
// Model-zoo builders (src/models) append nodes through the typed helper
// methods; nodes reference earlier nodes only, so the vector order is
// already a topological order.
#pragma once

#include <string>
#include <vector>

#include "nn/layer.hpp"

namespace ocb::nn {

class Graph {
 public:
  /// Declare the (single) input feature map. Must be the first call.
  int input(int c, int h, int w);

  int conv(int src, int out_c, int kernel, int stride, int pad, Act act,
           const std::string& name = "");
  int dwconv(int src, int kernel, int stride, int pad, Act act,
             const std::string& name = "");
  /// 2× transposed conv (kernel 4, stride 2, pad 1 semantics).
  int deconv(int src, int out_c, Act act, const std::string& name = "");
  int maxpool(int src, int kernel, int stride, int pad,
              const std::string& name = "");
  int upsample2x(int src, const std::string& name = "");
  int concat(const std::vector<int>& srcs, const std::string& name = "");
  int add(int a, int b, const std::string& name = "",
          Act act = Act::kNone);
  int slice(int src, int begin_c, int end_c, const std::string& name = "");
  int global_avg_pool(int src, const std::string& name = "");
  int linear(int src, int out_features, Act act,
             const std::string& name = "");

  /// Mark a node as a graph output (detect heads, depth map, ...).
  void mark_output(int node);

  int node_count() const noexcept { return static_cast<int>(nodes_.size()); }
  const Node& node(int i) const;
  const std::vector<Node>& nodes() const noexcept { return nodes_; }
  const std::vector<int>& outputs() const noexcept { return outputs_; }
  const FeatShape& shape(int i) const;
  FeatShape input_shape() const;

  /// Total learnable parameters.
  std::size_t param_count() const noexcept;
  /// FP32 model size in MiB (the paper's Table 2 "Model Size" column).
  double size_mb() const noexcept;
  /// Multiply–accumulate-based FLOP count for one forward pass.
  double flops() const noexcept;

  /// Layout of node i's weight tensor: conv {out_c, in_c, k, k},
  /// dwconv {c, 1, k, k}, deconv {in_c, out_c, 4, 4}, linear
  /// {out, in_features, 1, 1}; all-zero for parameter-free ops.
  Shape weight_shape(int i) const;
  /// Parameters owned by node i (weights plus one bias per output
  /// channel; 0 for parameter-free ops).
  std::size_t node_params(int i) const;
  /// FLOPs executed by node i.
  double node_flops(int i) const;

 private:
  int append(Node node);
  FeatShape infer_shape(const Node& node) const;

  std::vector<Node> nodes_;
  std::vector<FeatShape> shapes_;
  std::vector<int> outputs_;
};

}  // namespace ocb::nn
