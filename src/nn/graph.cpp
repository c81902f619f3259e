#include "nn/graph.hpp"

#include "core/error.hpp"

namespace ocb::nn {

int Graph::input(int c, int h, int w) {
  OCB_CHECK_MSG(nodes_.empty(), "input() must be the first node");
  OCB_CHECK_MSG(c > 0 && h > 0 && w > 0, "input dims must be positive");
  Node node;
  node.kind = OpKind::kInput;
  node.out_c = c;
  node.kernel = h;  // kInput reuses kernel/stride to carry (h, w)
  node.stride = w;
  node.name = "input";
  return append(std::move(node));
}

int Graph::conv(int src, int out_c, int kernel, int stride, int pad, Act act,
                const std::string& name) {
  Node node;
  node.kind = OpKind::kConv;
  node.inputs = {src};
  node.out_c = out_c;
  node.kernel = kernel;
  node.stride = stride;
  node.pad = pad;
  node.act = act;
  node.name = name;
  return append(std::move(node));
}

int Graph::dwconv(int src, int kernel, int stride, int pad, Act act,
                  const std::string& name) {
  Node node;
  node.kind = OpKind::kDwConv;
  node.inputs = {src};
  node.kernel = kernel;
  node.stride = stride;
  node.pad = pad;
  node.act = act;
  node.name = name;
  return append(std::move(node));
}

int Graph::deconv(int src, int out_c, Act act, const std::string& name) {
  Node node;
  node.kind = OpKind::kDeconv;
  node.inputs = {src};
  node.out_c = out_c;
  node.kernel = 4;
  node.stride = 2;
  node.pad = 1;
  node.act = act;
  node.name = name;
  return append(std::move(node));
}

int Graph::maxpool(int src, int kernel, int stride, int pad,
                   const std::string& name) {
  Node node;
  node.kind = OpKind::kMaxPool;
  node.inputs = {src};
  node.kernel = kernel;
  node.stride = stride;
  node.pad = pad;
  node.name = name;
  return append(std::move(node));
}

int Graph::upsample2x(int src, const std::string& name) {
  Node node;
  node.kind = OpKind::kUpsample;
  node.inputs = {src};
  node.name = name;
  return append(std::move(node));
}

int Graph::concat(const std::vector<int>& srcs, const std::string& name) {
  OCB_CHECK_MSG(srcs.size() >= 2, "concat needs at least two inputs");
  Node node;
  node.kind = OpKind::kConcat;
  node.inputs = srcs;
  node.name = name;
  return append(std::move(node));
}

int Graph::add(int a, int b, const std::string& name, Act act) {
  Node node;
  node.kind = OpKind::kAdd;
  node.inputs = {a, b};
  node.name = name;
  node.act = act;
  return append(std::move(node));
}

int Graph::slice(int src, int begin_c, int end_c, const std::string& name) {
  Node node;
  node.kind = OpKind::kSlice;
  node.inputs = {src};
  node.slice_begin = begin_c;
  node.slice_end = end_c;
  node.name = name;
  return append(std::move(node));
}

int Graph::global_avg_pool(int src, const std::string& name) {
  Node node;
  node.kind = OpKind::kGlobalAvgPool;
  node.inputs = {src};
  node.name = name;
  return append(std::move(node));
}

int Graph::linear(int src, int out_features, Act act,
                  const std::string& name) {
  Node node;
  node.kind = OpKind::kLinear;
  node.inputs = {src};
  node.out_c = out_features;
  node.act = act;
  node.name = name;
  return append(std::move(node));
}

void Graph::mark_output(int node_index) {
  OCB_CHECK(node_index >= 0 && node_index < node_count());
  outputs_.push_back(node_index);
}

const Node& Graph::node(int i) const {
  OCB_CHECK(i >= 0 && i < node_count());
  return nodes_[static_cast<std::size_t>(i)];
}

const FeatShape& Graph::shape(int i) const {
  OCB_CHECK(i >= 0 && i < node_count());
  return shapes_[static_cast<std::size_t>(i)];
}

FeatShape Graph::input_shape() const {
  OCB_CHECK_MSG(!nodes_.empty(), "empty graph");
  return shapes_[0];
}

int Graph::append(Node node) {
  for (int src : node.inputs)
    OCB_CHECK_MSG(src >= 0 && src < node_count(),
                  "node references unknown input");
  const FeatShape out = infer_shape(node);
  nodes_.push_back(std::move(node));
  shapes_.push_back(out);
  return node_count() - 1;
}

FeatShape Graph::infer_shape(const Node& node) const {
  auto in = [&](std::size_t i) -> const FeatShape& {
    return shapes_[static_cast<std::size_t>(node.inputs[i])];
  };
  auto conv_hw = [&](const FeatShape& s) {
    const int h = (s.h + 2 * node.pad - node.kernel) / node.stride + 1;
    const int w = (s.w + 2 * node.pad - node.kernel) / node.stride + 1;
    OCB_CHECK_MSG(h > 0 && w > 0,
                  "op '" + node.name + "' produces an empty feature map");
    return std::pair{h, w};
  };

  switch (node.kind) {
    case OpKind::kInput:
      return {node.out_c, node.kernel, node.stride};
    case OpKind::kConv: {
      OCB_CHECK_MSG(node.out_c > 0, "conv out_c must be positive");
      const auto [h, w] = conv_hw(in(0));
      return {node.out_c, h, w};
    }
    case OpKind::kDwConv: {
      const auto [h, w] = conv_hw(in(0));
      return {in(0).c, h, w};
    }
    case OpKind::kDeconv:
      return {node.out_c, in(0).h * 2, in(0).w * 2};
    case OpKind::kMaxPool: {
      const auto [h, w] = conv_hw(in(0));
      return {in(0).c, h, w};
    }
    case OpKind::kUpsample:
      return {in(0).c, in(0).h * 2, in(0).w * 2};
    case OpKind::kConcat: {
      int c = 0;
      for (std::size_t i = 0; i < node.inputs.size(); ++i) {
        OCB_CHECK_MSG(in(i).h == in(0).h && in(i).w == in(0).w,
                      "concat spatial mismatch at '" + node.name + "'");
        c += in(i).c;
      }
      return {c, in(0).h, in(0).w};
    }
    case OpKind::kAdd:
      OCB_CHECK_MSG(in(0) == in(1), "add shape mismatch at '" + node.name + "'");
      return in(0);
    case OpKind::kSlice: {
      OCB_CHECK_MSG(node.slice_begin >= 0 && node.slice_end > node.slice_begin &&
                        node.slice_end <= in(0).c,
                    "bad slice range at '" + node.name + "'");
      return {node.slice_end - node.slice_begin, in(0).h, in(0).w};
    }
    case OpKind::kGlobalAvgPool:
      return {in(0).c, 1, 1};
    case OpKind::kLinear:
      OCB_CHECK_MSG(node.out_c > 0, "linear out features must be positive");
      return {node.out_c, 1, 1};
  }
  throw Error("unreachable op kind");
}

Shape Graph::weight_shape(int i) const {
  const Node& nd = node(i);
  const auto& in0 = nd.inputs.empty() ? FeatShape{} : shape(nd.inputs[0]);
  const int k = nd.kernel;
  switch (nd.kind) {
    case OpKind::kConv:
      return {nd.out_c, in0.c, k, k};
    case OpKind::kDwConv:
      return {in0.c, 1, k, k};
    case OpKind::kDeconv:
      return {in0.c, nd.out_c, k, k};
    case OpKind::kLinear:
      return {nd.out_c, static_cast<int>(in0.numel()), 1, 1};
    default:
      return {0, 0, 0, 0};
  }
}

std::size_t Graph::node_params(int i) const {
  // Every parametrised op carries one bias per output channel.
  const std::size_t weights = weight_shape(i).numel();
  return weights == 0 ? 0 : weights + static_cast<std::size_t>(shape(i).c);
}

double Graph::node_flops(int i) const {
  const Node& nd = node(i);
  const FeatShape out = shape(i);
  const auto& in0 = nd.inputs.empty() ? FeatShape{} : shape(nd.inputs[0]);
  const double out_px = static_cast<double>(out.h) * out.w;
  switch (nd.kind) {
    case OpKind::kConv:
      return 2.0 * in0.c * nd.kernel * nd.kernel * out.c * out_px;
    case OpKind::kDwConv:
      return 2.0 * nd.kernel * nd.kernel * out.c * out_px;
    case OpKind::kDeconv:
      return 2.0 * in0.c * nd.kernel * nd.kernel * out.c * out_px;
    case OpKind::kMaxPool:
      return static_cast<double>(nd.kernel) * nd.kernel * out.c * out_px;
    case OpKind::kUpsample:
    case OpKind::kConcat:
    case OpKind::kSlice:
      return static_cast<double>(out.numel());
    case OpKind::kAdd:
      return static_cast<double>(out.numel());
    case OpKind::kGlobalAvgPool:
      return static_cast<double>(in0.numel());
    case OpKind::kLinear:
      return 2.0 * static_cast<double>(in0.numel()) * out.c;
    case OpKind::kInput:
      return 0.0;
  }
  return 0.0;
}

std::size_t Graph::param_count() const noexcept {
  std::size_t total = 0;
  for (int i = 0; i < node_count(); ++i) total += node_params(i);
  return total;
}

double Graph::size_mb() const noexcept {
  return static_cast<double>(param_count()) * 4.0 / (1024.0 * 1024.0);
}

double Graph::flops() const noexcept {
  double total = 0.0;
  for (int i = 0; i < node_count(); ++i) total += node_flops(i);
  return total;
}

}  // namespace ocb::nn
