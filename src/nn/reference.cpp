#include "nn/reference.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/error.hpp"

namespace ocb::nn {

namespace {

using Map = std::vector<double>;  // one CHW feature map

double activate(Act act, double v) {
  switch (act) {
    case Act::kNone: return v;
    case Act::kRelu: return std::max(v, 0.0);
    case Act::kLeakyRelu: return v < 0.0 ? 0.1 * v : v;
    case Act::kSilu: return v / (1.0 + std::exp(-v));
    case Act::kSigmoid: return 1.0 / (1.0 + std::exp(-v));
  }
  return v;
}

/// x[c][y][x] of a CHW map with zero padding outside [0,h)×[0,w).
double at(const Map& m, const FeatShape& s, int c, int y, int x) {
  if (y < 0 || y >= s.h || x < 0 || x >= s.w) return 0.0;
  return m[(static_cast<std::size_t>(c) * s.h + y) * s.w + x];
}

double& at(Map& m, const FeatShape& s, int c, int y, int x) {
  return m[(static_cast<std::size_t>(c) * s.h + y) * s.w + x];
}

}  // namespace

std::vector<Tensor> reference_run(const Engine& engine, const Tensor& input) {
  const Graph& g = engine.graph();
  const FeatShape in_shape = g.input_shape();
  OCB_CHECK_MSG(input.numel() == in_shape.numel(),
                "reference_run input does not match the graph input");
  std::vector<Map> maps(static_cast<std::size_t>(g.node_count()));

  for (int i = 0; i < g.node_count(); ++i) {
    const Node& nd = g.node(i);
    const FeatShape os = g.shape(i);
    Map& out = maps[static_cast<std::size_t>(i)];
    out.assign(os.numel(), 0.0);
    const Map* src = nd.inputs.empty()
                         ? nullptr
                         : &maps[static_cast<std::size_t>(nd.inputs[0])];
    const FeatShape is = nd.inputs.empty() ? os : g.shape(nd.inputs[0]);
    const float* w =
        g.weight_shape(i).numel() > 0 ? engine.weight(i).data() : nullptr;
    const float* b = w != nullptr ? engine.bias(i).data() : nullptr;

    switch (nd.kind) {
      case OpKind::kInput:
        for (std::size_t j = 0; j < out.size(); ++j) out[j] = input.data()[j];
        break;
      case OpKind::kConv:  // weight {out_c, in_c, k, k}
        for (int o = 0; o < os.c; ++o)
          for (int y = 0; y < os.h; ++y)
            for (int x = 0; x < os.w; ++x) {
              double acc = b[o];
              for (int c = 0; c < is.c; ++c)
                for (int ky = 0; ky < nd.kernel; ++ky)
                  for (int kx = 0; kx < nd.kernel; ++kx)
                    acc += static_cast<double>(
                               w[((static_cast<std::size_t>(o) * is.c + c) *
                                      nd.kernel + ky) * nd.kernel + kx]) *
                           at(*src, is, c, y * nd.stride - nd.pad + ky,
                              x * nd.stride - nd.pad + kx);
              at(out, os, o, y, x) = activate(nd.act, acc);
            }
        break;
      case OpKind::kDwConv:  // weight {c, 1, k, k}
        for (int c = 0; c < os.c; ++c)
          for (int y = 0; y < os.h; ++y)
            for (int x = 0; x < os.w; ++x) {
              double acc = b[c];
              for (int ky = 0; ky < nd.kernel; ++ky)
                for (int kx = 0; kx < nd.kernel; ++kx)
                  acc += static_cast<double>(
                             w[(static_cast<std::size_t>(c) * nd.kernel +
                                ky) * nd.kernel + kx]) *
                         at(*src, is, c, y * nd.stride - nd.pad + ky,
                            x * nd.stride - nd.pad + kx);
              at(out, os, c, y, x) = activate(nd.act, acc);
            }
        break;
      case OpKind::kDeconv:  // weight {in_c, out_c, 4, 4}, stride 2, pad 1
        for (int o = 0; o < os.c; ++o)
          for (int y = 0; y < os.h; ++y)
            for (int x = 0; x < os.w; ++x) at(out, os, o, y, x) = b[o];
        for (int c = 0; c < is.c; ++c)
          for (int y = 0; y < is.h; ++y)
            for (int x = 0; x < is.w; ++x)
              for (int o = 0; o < os.c; ++o)
                for (int ky = 0; ky < 4; ++ky)
                  for (int kx = 0; kx < 4; ++kx) {
                    const int oy = 2 * y - 1 + ky, ox = 2 * x - 1 + kx;
                    if (oy < 0 || oy >= os.h || ox < 0 || ox >= os.w)
                      continue;
                    at(out, os, o, oy, ox) +=
                        static_cast<double>(
                            w[((static_cast<std::size_t>(c) * os.c + o) * 4 +
                               ky) * 4 + kx]) *
                        at(*src, is, c, y, x);
                  }
        for (double& v : out) v = activate(nd.act, v);
        break;
      case OpKind::kMaxPool:
        for (int c = 0; c < os.c; ++c)
          for (int y = 0; y < os.h; ++y)
            for (int x = 0; x < os.w; ++x) {
              double best = std::numeric_limits<double>::lowest();
              for (int ky = 0; ky < nd.kernel; ++ky)
                for (int kx = 0; kx < nd.kernel; ++kx) {
                  const int sy = y * nd.stride - nd.pad + ky;
                  const int sx = x * nd.stride - nd.pad + kx;
                  if (sy >= 0 && sy < is.h && sx >= 0 && sx < is.w)
                    best = std::max(best, at(*src, is, c, sy, sx));
                }
              at(out, os, c, y, x) = best;
            }
        break;
      case OpKind::kUpsample:
        for (int c = 0; c < os.c; ++c)
          for (int y = 0; y < os.h; ++y)
            for (int x = 0; x < os.w; ++x)
              at(out, os, c, y, x) = at(*src, is, c, y / 2, x / 2);
        break;
      case OpKind::kConcat: {
        std::size_t off = 0;
        for (int s : nd.inputs) {
          const Map& m = maps[static_cast<std::size_t>(s)];
          std::copy(m.begin(), m.end(), out.begin() + off);
          off += m.size();
        }
        break;
      }
      case OpKind::kAdd: {
        const Map& other = maps[static_cast<std::size_t>(nd.inputs[1])];
        for (std::size_t j = 0; j < out.size(); ++j)
          out[j] = activate(nd.act, (*src)[j] + other[j]);
        break;
      }
      case OpKind::kSlice: {
        const std::size_t plane = static_cast<std::size_t>(is.h) * is.w;
        std::copy_n(src->begin() + nd.slice_begin * plane, out.size(),
                    out.begin());
        break;
      }
      case OpKind::kGlobalAvgPool: {
        const std::size_t plane = static_cast<std::size_t>(is.h) * is.w;
        for (int c = 0; c < os.c; ++c) {
          double acc = 0.0;
          for (std::size_t j = 0; j < plane; ++j) acc += (*src)[c * plane + j];
          out[static_cast<std::size_t>(c)] =
              acc / static_cast<double>(plane);
        }
        break;
      }
      case OpKind::kLinear:  // weight {out, in_features}
        for (int o = 0; o < os.c; ++o) {
          double acc = b[o];
          for (std::size_t j = 0; j < src->size(); ++j)
            acc += static_cast<double>(w[o * src->size() + j]) * (*src)[j];
          out[static_cast<std::size_t>(o)] = activate(nd.act, acc);
        }
        break;
    }
  }

  std::vector<Tensor> outputs;
  for (int node : g.outputs()) {
    const FeatShape s = g.shape(node);
    Tensor t({1, s.c, s.h, s.w});
    const Map& m = maps[static_cast<std::size_t>(node)];
    for (std::size_t j = 0; j < m.size(); ++j)
      t.data()[j] = static_cast<float>(m[j]);
    outputs.push_back(std::move(t));
  }
  return outputs;
}

}  // namespace ocb::nn
