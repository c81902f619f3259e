#include "nn/engine.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <numeric>

#include "core/error.hpp"
#include "parallel/parallel_for.hpp"
#include "tensor/winograd.hpp"

namespace ocb::nn {

namespace {

/// Process-wide plan-verification hook (see Engine::set_plan_verify_hook).
std::atomic<Engine::PlanVerifyHook> g_plan_verify_hook{nullptr};

/// Weights as the quantizer should see them: when pruning is active for
/// the layer, a masked copy staged in `scratch` (the int8 kernels stay
/// dense — the mask only zeroes weights before quantization, matching
/// what the sparse fp32 path computes).
const float* masked_for_quant(const float* w, std::size_t m, std::size_t k,
                              const SparsityConfig& sparsity,
                              std::vector<float>& scratch) {
  const std::size_t count = m * k;
  if (!sparsity.enabled() || layer_sparsity_pct(sparsity, count) == 0)
    return w;
  const std::vector<std::uint8_t> mask = magnitude_mask(w, m, k, sparsity);
  scratch.assign(w, w + count);
  apply_mask(scratch.data(), mask.data(), count);
  return scratch.data();
}

/// The packed GEMM behind a weighted node: the conv geometry it runs as
/// and its output rows. A conv is itself; a deconv is its sub-pixel
/// lowering, a 2×2 stride-1 pad-1 conv with one block of out_c rows per
/// output phase (nn/ops.hpp, DESIGN.md §11); a linear layer is a 1×1
/// conv over its flattened input. rows == 0 marks a node without packed
/// weights.
struct GemmNode {
  ConvGeometry geom{};
  int rows = 0;
  explicit operator bool() const noexcept { return rows > 0; }
};

GemmNode gemm_node(const Graph& graph, int i) {
  const Node& nd = graph.node(i);
  if (nd.inputs.empty()) return {};
  const FeatShape s = graph.shape(nd.inputs[0]);
  switch (nd.kind) {
    case OpKind::kConv:
      return {{s.c, s.h, s.w, nd.kernel, nd.kernel, nd.stride, nd.pad},
              nd.out_c};
    case OpKind::kDeconv:
      return {{s.c, s.h, s.w, 2, 2, 1, 1}, 4 * nd.out_c};
    case OpKind::kLinear:
      return {{static_cast<int>(s.numel()), 1, 1, 1, 1, 1, 0}, nd.out_c};
    default:
      return {};
  }
}

}  // namespace

std::string ExecutionPlan::to_text(const Graph& graph) const {
  std::string out = "execution plan: precision=";
  out += precision_name(precision);
  out += " max_batch=" + std::to_string(max_batch);
  if (sparse_nodes > 0 || fp16_nodes > 0) {
    out += " sparse=" + std::to_string(sparse_nodes);
    out += " fp16=" + std::to_string(fp16_nodes);
  }
  out += " (cache " + std::to_string(cache_hits) + " hit/" +
         std::to_string(cache_misses) + " miss)\n";
  out += "  fusion: residual=" + std::to_string(residual_fused) +
         " concat=" + std::to_string(concat_elided) + " arena " +
         std::to_string(arena_peak_bytes_before / 1024) + "KiB -> " +
         std::to_string(arena_peak_bytes_after / 1024) + "KiB, conv scratch " +
         std::to_string(conv_scratch_bytes / 1024) + "KiB\n";
  for (int i = 0; i < graph.node_count(); ++i) {
    const Node& nd = graph.node(i);
    const ConvPlan& p = nodes[static_cast<std::size_t>(i)];
    // Linear nodes appear once the planner assigns them compressed
    // storage; they run the default dense GEMV otherwise.
    const bool linear_row = nd.kind == OpKind::kLinear &&
                            p.storage != WeightStorage::kDense;
    if (nd.kind != OpKind::kConv && nd.kind != OpKind::kDeconv &&
        !linear_row)
      continue;
    const FeatShape s = graph.shape(nd.inputs[0]);
    // Algo column, e.g. "winograd", "im2col/sparse", "direct/half".
    std::string algo = conv_algo_name(p.algo);
    if (p.storage != WeightStorage::kDense) {
      algo += '/';
      algo += weight_storage_name(p.storage);
    }
    char line[192];
    if (linear_row) {
      std::snprintf(line, sizeof(line),
                    "  %-16s %8zu->%-4d       %-18s est %.3f ms\n",
                    nd.name.empty() ? "linear" : nd.name.c_str(),
                    s.numel(), nd.out_c, algo.c_str(), p.est_ms);
    } else {
      std::snprintf(line, sizeof(line),
                    "  %-16s %3dx%-3d c%-3d->%-3d k%d s%d  %-18s est %.3f ms"
                    " (im2col %.3f ms)\n",
                    nd.name.empty() ? op_name(nd.kind) : nd.name.c_str(),
                    s.h, s.w, s.c,
                    nd.out_c, nd.kernel, nd.stride, algo.c_str(), p.est_ms,
                    p.est_im2col_ms);
    }
    out += line;
  }
  return out;
}

Engine::Engine(const Graph& graph, std::uint64_t seed) : graph_(graph) {
  const int n = graph_.node_count();
  OCB_CHECK_MSG(n > 0, "cannot build an engine over an empty graph");
  weights_.resize(static_cast<std::size_t>(n));
  biases_.resize(static_cast<std::size_t>(n));
  node_views_.resize(static_cast<std::size_t>(n));
  panels_.resize(static_cast<std::size_t>(n));
  plan_.nodes.assign(static_cast<std::size_t>(n), ConvPlan{});
  plan_scratch_.assign(static_cast<std::size_t>(n), ConvPlan{});

  // Initialise every node's weights and pack its panels (with their
  // CRCs) across the pool. Each node draws from its own seeded Rng and
  // touches only its own slots, so the result is the serial one. Node
  // costs differ by orders of magnitude, so each executor claims one
  // node at a time, largest weights first: a range chunk of several
  // deep layers would leave the other executors idle behind it.
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return graph_.weight_shape(a).numel() > graph_.weight_shape(b).numel();
  });
  std::atomic<std::size_t> next{0};
  parallel_for(
      0, ThreadPool::global().executors(),
      [&](std::size_t) {
        for (std::size_t j; (j = next.fetch_add(1, std::memory_order_relaxed)) <
                            order.size();) {
          const int i = order[j];
          const std::size_t ui = static_cast<std::size_t>(i);
          const Shape ws = graph_.weight_shape(i);
          if (ws.numel() == 0) continue;
          // He fan-in: the weights feeding one output channel.
          const int out_c = graph_.shape(i).c;
          Rng rng(hash_combine(seed, static_cast<std::uint64_t>(i)));
          weights_[ui] = Tensor(ws);
          weights_[ui].init_he(rng, static_cast<int>(ws.numel()) / out_c);
          biases_[ui] = Tensor({1, out_c, 1, 1});
          // Load-time plan: pack every GEMM node's weight panels.
          if (gemm_node(graph_, i)) repack(i);
        }
      },
      /*grain=*/1);
  for (int i = 0; i < n; ++i)
    if (gemm_node(graph_, i)) integrity_nodes_.push_back(i);
  size_deconv_stage();
  resize_output_slots();

  // Baseline plan: fp32, batch 1, dense im2col stripes everywhere, with
  // its fusion and arena layout. The cost-model planner only engages
  // through prepare().
  for (int i = 0; i < n; ++i)
    if (graph_.node(i).kind == OpKind::kConv) ++plan_.conv_nodes;
  plan_.fused_nodes = plan_.conv_nodes;
  rebuild_act_layout();
  reserve_conv_scratch();
}

void Engine::resize_output_slots() {
  std::vector<Tensor> row;
  for (int node : graph_.outputs()) {
    const FeatShape s = graph_.shape(node);
    row.push_back(Tensor({1, s.c, s.h, s.w}));
  }
  batch_outputs_.assign(static_cast<std::size_t>(max_batch_), row);
}

void Engine::materialize_outputs(int image, std::vector<Tensor>& dst) const {
  const std::vector<int>& outs = graph_.outputs();
  for (std::size_t j = 0; j < outs.size(); ++j) {
    const int node = outs[j];
    const std::size_t ni = static_cast<std::size_t>(node);
    const float* src = act_base_[ni] +
                       static_cast<std::size_t>(image) * act_stride_[ni];
    const std::size_t n = graph_.shape(node).numel();
    copy_images(src, n, 1, n, dst[j].data(), n);
  }
}

void Engine::rebuild_act_layout() {
  fusion_ = plan_fusion(graph_, plan_.nodes, max_batch_);
  plan_.residual_fused = fusion_.residual_fused;
  plan_.concat_elided = fusion_.concat_elided;
  plan_.arena_peak_bytes_before = fusion_.naive_floats * sizeof(float);
  plan_.arena_peak_bytes_after = fusion_.arena_floats * sizeof(float);

  const std::size_t n = static_cast<std::size_t>(graph_.node_count());
  act_base_.resize(n);
  act_stride_.resize(n);
  act_arena_.resize(fusion_.arena_floats);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t off = 0;
    const int root = fusion_.root_of(static_cast<int>(i), &off);
    const std::size_t ri = static_cast<std::size_t>(root);
    act_base_[i] = act_arena_.data() + fusion_.offsets[ri] + off;
    act_stride_[i] = graph_.shape(root).numel();
  }
  // The new layout may give any slot to another node.
  has_run_ = false;
}

const ExecutionPlan& Engine::prepare(const PlanRequest& request) {
  OCB_CHECK_MSG(request.max_batch >= 1, "prepare needs a positive max_batch");
  const int n = graph_.node_count();
  // Config-only: the verification cadence never keys the plan, so
  // adopting it up front keeps an otherwise-unchanged re-prepare on the
  // heap-free early-return path below.
  integrity_ = request.integrity;
  const bool new_calib = request.calibration != nullptr;
  if (new_calib) calib_ = *request.calibration;
  if (request.precision == Precision::kInt8) {
    OCB_CHECK_MSG(calib_.frames > 0 &&
                      calib_.ranges.size() == static_cast<std::size_t>(n),
                  "INT8 requires a calibration (run calibrate() first)");
  }

  // Plan every conv against the shape-keyed cache. Decisions land in
  // pre-sized staging first so an unchanged re-prepare — the warmed
  // serving path — allocates nothing.
  const simd::Level level = simd::active();
  PlanCache& cache = request.planner.cache != nullptr
                         ? *request.planner.cache
                         : PlanCache::global();
  const PlanCache::Stats before = cache.stats();
  // Pruning keys the plans per layer; under kInt8 the masks only gate
  // quantization (the quantized kernels stay dense), so the sparse
  // candidates are enumerated for float precisions only.
  const bool prune = request.sparsity.enabled() &&
                     request.precision != Precision::kInt8;
  // Linear nodes run the dense packed GEMV unless compressed storage is
  // in play; then they are planned through a pseudo 1×1 conv key (the
  // GEMV is exactly that GEMM shape), which keeps the classic plans —
  // and the cache traffic tests count on — untouched.
  const bool plan_linear = prune || request.precision == Precision::kFp16;
  bool algos_changed = false;
  for (int i = 0; i < n; ++i) {
    const OpKind kind = graph_.node(i).kind;
    const std::size_t ui = static_cast<std::size_t>(i);
    const GemmNode g = gemm_node(graph_, i);
    ConvPlan p{};
    if (g && (kind != OpKind::kLinear || plan_linear)) {
      ConvPlanKey key;
      key.in_c = g.geom.in_c;
      key.in_h = g.geom.in_h;
      key.in_w = g.geom.in_w;
      key.kernel = g.geom.kernel_h;
      key.stride = g.geom.stride;
      key.pad = g.geom.pad;
      key.out_c = g.rows;
      if (kind != OpKind::kLinear) key.batch = request.max_batch;
      // There is no quantized deconv: under kInt8 it is planned (and
      // runs) on the fp32 candidates.
      key.precision = kind == OpKind::kDeconv &&
                              request.precision == Precision::kInt8
                          ? Precision::kFp32
                          : request.precision;
      key.level = level;
      if (prune)
        key.sparsity_pct =
            layer_sparsity_pct(request.sparsity, weights_[ui].numel());
      p = plan_conv(key, request.planner);
      // Only the storage decision applies — linear always runs the
      // packed GEMV, whatever algo the 1×1 enumeration preferred.
      if (kind == OpKind::kLinear) p.algo = ConvAlgo::kIm2colFused;
    }
    plan_scratch_[ui] = p;
    if (p.algo != plan_.nodes[ui].algo ||
        p.storage != plan_.nodes[ui].storage)
      algos_changed = true;
  }
  const PlanCache::Stats after = cache.stats();
  plan_.cache_hits = after.hits - before.hits;
  plan_.cache_misses = after.misses - before.misses;

  const bool grow = request.max_batch > max_batch_;
  const bool precision_change = request.precision != precision_;
  // A pruning-config change can leave every plan identical (e.g. a
  // granularity switch at the same budget) yet still change the masks;
  // a format change re-encodes the half panels. Both force the rebuild
  // path below.
  const bool sparsity_changed = !(request.sparsity == sparsity_);
  const bool format_changed = request.half_format != half_format_;
  if (!grow && !precision_change && !algos_changed && !new_calib &&
      !sparsity_changed && !format_changed)
    return plan_;  // active plan already satisfies the request

  // Same-length element-wise copy — no reallocation.
  for (std::size_t i = 0; i < plan_.nodes.size(); ++i)
    plan_.nodes[i] = plan_scratch_[i];
  if (grow) grow_batch_plan(request.max_batch);

  // Graph fusion + activation placement over the settled plans, and
  // the per-node base/stride views that execute it.
  rebuild_act_layout();

  // Invalidate compressed panels the new configuration re-derives, then
  // (lazily) build whatever the plan's storage choices need. Nodes the
  // plan keeps dense keep their empty slots.
  for (NodeWeights& w : panels_) {
    if (sparsity_changed || (format_changed && w.sparse.half()))
      w.sparse = PackedSparseA{};
    if (format_changed) w.half = PackedHalfA{};
  }
  sparsity_ = request.sparsity;
  half_format_ = request.half_format;
  for (int i = 0; i < n; ++i)
    if (gemm_node(graph_, i)) pack_storage(i);

  // Winograd nodes need their transformed weight panels.
  for (int i = 0; i < n; ++i)
    if (plan_.nodes[static_cast<std::size_t>(i)].algo ==
            ConvAlgo::kWinograd &&
        panels_[static_cast<std::size_t>(i)].wino.empty())
      pack_winograd(i);

  if (request.precision == Precision::kInt8) {
    build_int8_plan();
  } else if (precision_ == Precision::kInt8) {
    // Leaving INT8: drop u8 residency so a later fp32 run can never
    // see stale dequantized activations (the fp32-after-int8 class).
    std::fill(u8_valid_.begin(), u8_valid_.end(), 0);
    std::fill(float_stale_.begin(), float_stale_.end(), 0);
  }
  precision_ = request.precision;
  reserve_conv_scratch();

  plan_.precision = precision_;
  plan_.max_batch = max_batch_;
  plan_.conv_nodes = 0;
  plan_.winograd_nodes = 0;
  plan_.direct_nodes = 0;
  plan_.quant_nodes = 0;
  plan_.sparse_nodes = 0;
  plan_.fp16_nodes = 0;
  plan_.fused_nodes = 0;
  for (int i = 0; i < n; ++i) {
    const OpKind kind = graph_.node(i).kind;
    const ConvPlan& p = plan_.nodes[static_cast<std::size_t>(i)];
    if (gemm_node(graph_, i)) {
      if (p.storage == WeightStorage::kSparse ||
          p.storage == WeightStorage::kSparseHalf)
        ++plan_.sparse_nodes;
      if (p.storage == WeightStorage::kHalf ||
          p.storage == WeightStorage::kSparseHalf)
        ++plan_.fp16_nodes;
    }
    if (kind != OpKind::kConv) continue;
    ++plan_.conv_nodes;
    switch (p.algo) {
      case ConvAlgo::kWinograd: ++plan_.winograd_nodes; break;
      case ConvAlgo::kDirectGemm: ++plan_.direct_nodes; break;
      case ConvAlgo::kIm2colFused: ++plan_.fused_nodes; break;
      case ConvAlgo::kIm2colQuantFused:
        ++plan_.quant_nodes;
        ++plan_.fused_nodes;
        break;
    }
  }

  // Debug-build soundness gate (DESIGN.md §15): hand the fully
  // assembled plan to the static verifier before anyone can run it.
  // The early-return path above never reaches here — it returns a plan
  // a previous rebuild already gated.
#if defined(OCB_PLAN_VERIFY)
  if (const PlanVerifyHook hook = plan_verify_hook()) hook(*this);
#endif
  return plan_;
}

void Engine::set_plan_verify_hook(PlanVerifyHook hook) noexcept {
  g_plan_verify_hook.store(hook, std::memory_order_release);
}

Engine::PlanVerifyHook Engine::plan_verify_hook() noexcept {
  return g_plan_verify_hook.load(std::memory_order_acquire);
}

Engine::PanelState Engine::panel_state(int node) const {
  const std::size_t i = static_cast<std::size_t>(node);
  OCB_CHECK_MSG(i < panels_.size(), "panel_state: node out of range");
  const NodeWeights& w = panels_[i];
  PanelState st;
  st.dense = !w.dense.empty();
  st.sparse = !w.sparse.empty();
  st.sparse_half = st.sparse && w.sparse.half();
  st.half = !w.half.empty();
  st.winograd = !w.wino.empty();
  st.dense_crc = w.dense_crc;
  st.sparse_crc = w.sparse_crc;
  st.half_crc = w.half_crc;
  st.dense_rows = w.dense.rows();
  st.dense_cols = w.dense.cols();
  return st;
}

Engine::QuantState Engine::quant_state(int node) const {
  const std::size_t i = static_cast<std::size_t>(node);
  OCB_CHECK_MSG(i < static_cast<std::size_t>(graph_.node_count()),
                "quant_state: node out of range");
  QuantState st;
  if (i < qlayers_.size() && qlayers_[i].valid()) {
    st.quantized = true;
    st.emit_u8 = qlayers_[i].emit_u8;
  }
  return st;
}

Engine::ActLayoutView Engine::act_layout(int node) const {
  const std::size_t i = static_cast<std::size_t>(node);
  OCB_CHECK_MSG(i < act_base_.size(), "act_layout: node out of range");
  ActLayoutView v;
  v.base = act_base_[i];
  v.stride_floats = act_stride_[i];
  v.backing = act_arena_.data();
  v.backing_floats = act_arena_.size();
  return v;
}

void Engine::grow_batch_plan(int max_batch) {
  OCB_CHECK_MSG(max_batch >= 1, "batch plan needs a positive batch");
  if (max_batch <= max_batch_) return;
  max_batch_ = max_batch;
  // prepare() re-plans the activation arena for the new batch right
  // after this. run_batch needs one output snapshot row per image.
  resize_output_slots();

  size_deconv_stage();
}

void Engine::reserve_conv_scratch() {
  std::size_t need = 0;
  for (int i = 0; i < graph_.node_count(); ++i) {
    const GemmNode g = gemm_node(graph_, i);
    if (!g) continue;
    const std::size_t ui = static_cast<std::size_t>(i);
    const std::size_t rows = static_cast<std::size_t>(g.rows);
    std::size_t bytes = 0;
    if (graph_.node(i).kind == OpKind::kLinear) {
      // The INT8 GEMV pads its quantized input to whole quads.
      if (precision_ == Precision::kInt8 && qlayers_[ui].valid())
        bytes = quad_buffer_bytes(qlayers_[ui].packed.cols(), 1);
    } else {
      switch (plan_.nodes[ui].algo) {
        case ConvAlgo::kWinograd:
          bytes = winograd::scratch_floats(g.geom, g.rows, max_batch_) *
                  sizeof(float);
          break;
        case ConvAlgo::kIm2colFused:
          bytes = fused_conv_scratch_floats(g.geom, rows, max_batch_) *
                  sizeof(float);
          break;
        case ConvAlgo::kIm2colQuantFused:
          bytes = fused_qconv_scratch_bytes(g.geom);
          break;
        case ConvAlgo::kDirectGemm: break;
      }
    }
    need = std::max(need, bytes);
  }
  plan_.conv_scratch_bytes = need;
  need += 2 * Arena::kAlign;  // per-alloc alignment rounding
  if (need > conv_scratch_bytes_) {
    scratch_.arena.reserve_bytes(scratch_.arena.capacity_bytes() + need);
    conv_scratch_bytes_ = need;
  }
}

void Engine::size_deconv_stage() {
  std::size_t floats = 0;
  std::size_t rows = 0;
  for (int i = 0; i < graph_.node_count(); ++i) {
    if (graph_.node(i).kind != OpKind::kDeconv) continue;
    const GemmNode g = gemm_node(graph_, i);
    rows = std::max(rows, static_cast<std::size_t>(g.rows));
    floats = std::max(floats, static_cast<std::size_t>(g.rows) *
                                  g.geom.col_cols());
  }
  deconv_stage_.resize(floats * static_cast<std::size_t>(max_batch_));
  deconv_bias_.resize(rows);
}

const float* Engine::gemm_matrix(int node,
                                 std::vector<float>& scratch) const {
  const std::size_t i = static_cast<std::size_t>(node);
  const Node& nd = graph_.node(node);
  if (nd.kind != OpKind::kDeconv) return weights_[i].data();
  const int in_c = graph_.shape(nd.inputs[0]).c;
  scratch.resize(static_cast<std::size_t>(16) * in_c * nd.out_c);
  deconv_phase_weights(weights_[i].data(), in_c, nd.out_c, scratch.data());
  return scratch.data();
}

void Engine::repack(int node) {
  const std::size_t i = static_cast<std::size_t>(node);
  const Node& nd = graph_.node(node);
  NodeWeights& w = panels_[i];
  const GemmNode g = gemm_node(graph_, node);
  std::vector<float> lowered;
  const float* master = gemm_matrix(node, lowered);
  const std::size_t m = static_cast<std::size_t>(g.rows);
  const std::size_t k = g.geom.col_rows();
  w.dense.pack(master, m, k);
  // Mutated weights invalidate the int8 panels too; requantize against
  // the existing calibration (activation ranges are weight-independent).
  if (i < qlayers_.size() && qlayers_[i].valid()) {
    const TensorQuant in_q = qlayers_[i].in_q;
    const TensorQuant out_q = qlayers_[i].out_q;
    const EpiAct act = qlayers_[i].act;
    const bool emit = qlayers_[i].emit_u8;
    const float* wq = masked_for_quant(master, m, k, sparsity_,
                                       masked_scratch_);
    qlayers_[i] = quantize_layer(wq, m, k, in_q, out_q, act);
    qlayers_[i].emit_u8 = emit;
  }
  // Winograd-planned nodes carry a transformed copy of the weights;
  // refresh it alongside the straight panels.
  if (nd.kind == OpKind::kConv && !w.wino.empty()) pack_winograd(node);
  // Compressed panels re-derive from the mutated weights too (masks are
  // magnitude-based, so they may move).
  if (!w.half.empty()) w.half.pack(master, m, k, half_format_);
  if (!w.sparse.empty()) {
    const std::vector<std::uint8_t> mask =
        magnitude_mask(master, m, k, sparsity_);
    if (w.sparse.half()) {
      w.sparse.pack(master, m, k, mask.data(), half_format_);
    } else {
      w.sparse.pack(master, m, k, mask.data());
    }
  }
  w.dirty = false;
  w.record_checksums();
}

void Engine::pack_storage(int node) {
  const std::size_t i = static_cast<std::size_t>(node);
  const WeightStorage st = plan_.nodes[i].storage;
  NodeWeights& w = panels_[i];
  const bool want_half = st == WeightStorage::kSparseHalf;
  // Current panels match the plan (weights repack via repack()).
  if (st == WeightStorage::kDense ||
      (st == WeightStorage::kHalf && !w.half.empty()) ||
      (st != WeightStorage::kHalf && !w.sparse.empty() &&
       w.sparse.half() == want_half))
    return;
  const std::size_t m = w.dense.rows();
  const std::size_t k = w.dense.cols();
  std::vector<float> lowered;
  const float* master = gemm_matrix(node, lowered);
  if (st == WeightStorage::kHalf) {
    w.half.pack(master, m, k, half_format_);
  } else {
    const std::vector<std::uint8_t> mask =
        magnitude_mask(master, m, k, sparsity_);
    if (want_half) {
      w.sparse.pack(master, m, k, mask.data(), half_format_);
    } else {
      w.sparse.pack(master, m, k, mask.data());
    }
  }
  w.record_checksums();
}

void Engine::pack_winograd(int node) {
  const std::size_t i = static_cast<std::size_t>(node);
  const Node& nd = graph_.node(node);
  OCB_CHECK_MSG(nd.kind == OpKind::kConv && nd.kernel == 3 && nd.stride == 1,
                "winograd panels need a 3x3 stride-1 conv node");
  const FeatShape in0 = graph_.shape(nd.inputs[0]);
  winograd::pack_weights(weights_[i].data(), nd.out_c, in0.c,
                         panels_[i].wino);
}

// ---------------------------------------------------------------------------
// Weight integrity (DESIGN.md §14)
// ---------------------------------------------------------------------------

void Engine::NodeWeights::record_checksums() {
  dense_crc = dense.empty() ? 0 : dense.checksum();
  sparse_crc = sparse.empty() ? 0 : sparse.checksum();
  half_crc = half.empty() ? 0 : half.checksum();
}

bool Engine::NodeWeights::checksums_match() const {
  return (dense.empty() || dense.checksum() == dense_crc) &&
         (sparse.empty() || sparse.checksum() == sparse_crc) &&
         (half.empty() || half.checksum() == half_crc);
}

bool Engine::verify_node(int node, bool recover) {
  ++integrity_report_.nodes_checked;
  if (panels_[static_cast<std::size_t>(node)].checksums_match()) return true;
  ++integrity_report_.mismatches;
  if (recover) {
    // Re-pack every live format of the node from the master fp32
    // weights; repack() re-records the checksums.
    repack(node);
    ++integrity_report_.repacks;
  }
  return false;
}

int Engine::verify_weights(bool recover) {
  int failed = 0;
  for (int node : integrity_nodes_)
    if (!verify_node(node, recover)) ++failed;
  return failed;
}

void Engine::maybe_verify_tick() {
  if (integrity_.verify_every <= 0 || integrity_nodes_.empty()) return;
  if (++integrity_tick_ < integrity_.verify_every) return;
  integrity_tick_ = 0;
  verify_node(integrity_nodes_[integrity_cursor_], integrity_.recover);
  integrity_cursor_ = (integrity_cursor_ + 1) % integrity_nodes_.size();
}

PackedA& Engine::packed_panels(int node) {
  const std::size_t i = static_cast<std::size_t>(node);
  OCB_CHECK_MSG(i < panels_.size() && !panels_[i].dense.empty(),
                "packed_panels: node carries no packed weight panels");
  return panels_[i].dense;
}

std::uint32_t Engine::recorded_checksum(int node) const {
  const std::size_t i = static_cast<std::size_t>(node);
  OCB_CHECK_MSG(i < panels_.size(), "recorded_checksum: node out of range");
  return panels_[i].dense_crc;
}

QuantCalibration Engine::calibrate(const std::vector<Tensor>& frames) {
  OCB_CHECK_MSG(precision_ == Precision::kFp32,
                "calibrate() requires FP32 precision");
  OCB_CHECK_MSG(!frames.empty(), "calibration needs at least one frame");
  QuantCalibration calib;
  calib.ranges.resize(static_cast<std::size_t>(graph_.node_count()));
  // forward() observes every node while its arena slot is still live.
  struct StopObserving {
    QuantCalibration*& target;
    ~StopObserving() { target = nullptr; }
  } stop{observe_};
  observe_ = &calib;
  for (const Tensor& frame : frames) run(frame);
  calib.frames = static_cast<int>(frames.size());
  calib_ = calib;
  return calib;
}

void Engine::build_int8_plan() {
  const std::size_t n = static_cast<std::size_t>(graph_.node_count());
  qlayers_.assign(n, {});
  node_quant_.assign(n, {});
  u8_acts_.assign(n, {});
  u8_valid_.assign(n, 0);
  float_stale_.assign(n, 0);

  for (std::size_t i = 0; i < n; ++i) {
    const TensorRange& r = calib_.ranges[i];
    if (r.valid()) node_quant_[i] = quant_from_range(r.mn, r.mx);
  }

  // Consumer map: a conv keeps its output in u8 when every consumer
  // reads it through the INT8 path (and it isn't a graph output whose
  // caller expects float).
  std::vector<std::vector<int>> consumers(n);
  for (std::size_t j = 0; j < n; ++j)
    for (int s : graph_.node(static_cast<int>(j)).inputs)
      consumers[static_cast<std::size_t>(s)].push_back(static_cast<int>(j));
  // A conv is quantized only when the planner kept kIm2colQuantFused
  // for it (the cost model may keep a tiny layer in fp32); linear nodes
  // are always quantized. Consumers of a fallback node read float, so it
  // must not be counted as an INT8 reader when deciding u8 residency.
  auto quantizable = [&](int i) {
    const OpKind kind = graph_.node(i).kind;
    if (kind == OpKind::kLinear) return true;
    const ConvAlgo algo = plan_.nodes[static_cast<std::size_t>(i)].algo;
    return kind == OpKind::kConv && algo == ConvAlgo::kIm2colQuantFused;
  };
  const auto& outs = graph_.outputs();

  // Every range INT8 reads must have been observed. calibrate() leaves
  // only residual-folded convs unobserved, and those neither emit u8
  // nor feed a quantized layer (their one consumer is the Add).
  auto require_range = [&](int node, const char* role) {
    const Node& nd = graph_.node(node);
    OCB_CHECK_MSG(calib_.ranges[static_cast<std::size_t>(node)].valid(),
                  std::string("INT8 needs a calibrated range for ") + role +
                      " node " + std::to_string(node) + " '" + nd.name +
                      "' (" + op_name(nd.kind) + ")");
  };

  for (std::size_t i = 0; i < n; ++i) {
    const Node& nd = graph_.node(static_cast<int>(i));
    if (!quantizable(static_cast<int>(i))) continue;
    const int src = nd.inputs[0];
    require_range(src, "quantized-layer input");
    const FeatShape in0 = graph_.shape(src);
    const std::size_t k =
        nd.kind == OpKind::kConv
            ? static_cast<std::size_t>(in0.c) * nd.kernel * nd.kernel
            : in0.numel();
    const float* wq =
        masked_for_quant(weights_[i].data(),
                         static_cast<std::size_t>(nd.out_c), k, sparsity_,
                         masked_scratch_);
    qlayers_[i] =
        quantize_layer(wq, static_cast<std::size_t>(nd.out_c), k,
                       node_quant_[static_cast<std::size_t>(src)],
                       node_quant_[i], to_epilogue_act(nd.act));
    bool emit = nd.kind == OpKind::kConv &&
                std::find(outs.begin(), outs.end(), static_cast<int>(i)) ==
                    outs.end() &&
                !consumers[i].empty();
    for (int c : consumers[i])
      if (!quantizable(c)) emit = false;
    qlayers_[i].emit_u8 = emit;
    if (emit) require_range(static_cast<int>(i), "u8-emitting");
    // Quantize-on-demand target for this node's input.
    u8_acts_[static_cast<std::size_t>(src)].resize(in0.numel());
  }
  for (std::size_t i = 0; i < n; ++i)
    if (qlayers_[i].valid() && qlayers_[i].emit_u8)
      u8_acts_[i].resize(graph_.shape(static_cast<int>(i)).numel());
}

const std::vector<Tensor>& Engine::run(const Tensor& input) {
  forward({&input, 1});
  // Snapshot image 0 into the pre-sized output tensors (activations are
  // {max_batch, ...} after a batched prepare(); batch-1 callers get
  // batch-1 tensors either way).
  materialize_outputs(0, batch_outputs_[0]);
  return batch_outputs_[0];
}

std::span<const std::vector<Tensor>> Engine::run_batch(
    const std::vector<Tensor>& inputs) {
  const std::size_t batch = inputs.size();
  OCB_CHECK_MSG(batch >= 1, "run_batch needs at least one frame");
  OCB_CHECK_MSG(batch <= static_cast<std::size_t>(max_batch_),
                "run_batch exceeds the planned batch (prepare a larger "
                "PlanRequest::max_batch)");
  if (precision_ == Precision::kInt8) {
    // The u8 buffers are sized for one image: one pass per frame.
    for (std::size_t b = 0; b < batch; ++b) {
      forward({&inputs[b], 1});
      materialize_outputs(0, batch_outputs_[b]);
    }
  } else {
    forward(inputs);
    for (std::size_t b = 0; b < batch; ++b)
      materialize_outputs(static_cast<int>(b), batch_outputs_[b]);
  }
  return {batch_outputs_.data(), batch};
}

void Engine::forward(std::span<const Tensor> inputs) {
  const int batch = static_cast<int>(inputs.size());
  const bool int8 = precision_ == Precision::kInt8;
  OCB_CHECK_MSG(!int8 || batch == 1,
                "the INT8 path runs one image per forward pass");
  const FeatShape in_shape = graph_.input_shape();
  const Shape expected{1, in_shape.c, in_shape.h, in_shape.w};
  for (const Tensor& in : inputs)
    OCB_CHECK_MSG(in.shape() == expected,
                  "engine input shape mismatch: got " + in.shape().str());
  maybe_verify_tick();

  if (int8) std::fill(u8_valid_.begin(), u8_valid_.end(), 0);
  // Cleared in either mode: a float run after an INT8 one must not let
  // node_output() dequantize stale u8 over the fresh activations.
  std::fill(float_stale_.begin(), float_stale_.end(), 0);
  // Quantize a producer's float activation into its persistent u8
  // buffer on first use this frame (no-op when the producer already
  // emitted u8 directly).
  auto u8_input = [&](int s) -> const std::uint8_t* {
    const std::size_t si = static_cast<std::size_t>(s);
    if (u8_valid_[si] == 0) {
      // Per-image numel: the u8 buffers are sized for one image even
      // when prepare() widened the float activations.
      quantize_to_u8(act_base_[si], graph_.shape(s).numel(), node_quant_[si],
                     u8_acts_[si].data());
      u8_valid_[si] = 1;
    }
    return u8_acts_[si].data();
  };

  const int n = graph_.node_count();
  for (int i = 0; i < n; ++i) {
    const Node& nd = graph_.node(i);
    const std::size_t ui = static_cast<std::size_t>(i);
    const std::size_t out_chw = graph_.shape(i).numel();
    // This node's activation view: image b lives at dst_base + b *
    // dst_stride (the stride is the owning root's per-image extent
    // when the fusion plan placed this node inside another buffer).
    float* dst_base = act_base_[ui];
    const std::size_t dst_stride = act_stride_[ui];
    if (panels_[ui].dirty) repack(i);
    const NodeWeights& w = panels_[ui];
    const float* bias = biases_[ui].data();

    // Image b of input k's activation (all images are live: every node
    // below processes the full batch).
    auto src_stride = [&](std::size_t k) {
      return act_stride_[static_cast<std::size_t>(nd.inputs[k])];
    };
    auto src_at = [&](std::size_t k, int b) -> const float* {
      return act_base_[static_cast<std::size_t>(nd.inputs[k])] +
             static_cast<std::size_t>(b) * src_stride(k);
    };
    auto dst_at = [&](int b) -> float* {
      return dst_base + static_cast<std::size_t>(b) * dst_stride;
    };
    // The node's planned fp32 conv GEMM (a conv, or a deconv's lowered
    // phase conv) over every image of input 0.
    auto run_conv = [&](const ConvGeometry& geom, const float* conv_bias,
                        Act act, float* out, std::size_t out_stride,
                        EpiMode mode) {
      const float* src = src_at(0, 0);
      const std::size_t sstride = src_stride(0);
      switch (plan_.nodes[ui].algo) {
        case ConvAlgo::kWinograd:
          conv2d_winograd(src, sstride, batch, geom, w.wino, conv_bias, act,
                          out, out_stride, scratch_, mode);
          break;
        case ConvAlgo::kDirectGemm:
          w.visit(plan_.nodes[ui].storage, [&](const auto& panels) {
            conv2d_direct1x1(src, sstride, batch, geom, panels, conv_bias,
                             act, out, out_stride, mode);
          });
          break;
        default:  // kIm2colFused (kIm2colQuantFused nodes ran above)
          w.visit(plan_.nodes[ui].storage, [&](const auto& panels) {
            conv2d_fused(src, sstride, batch, geom, panels, conv_bias, act,
                         out, out_stride, scratch_, mode);
          });
          break;
      }
    };

    switch (nd.kind) {
      case OpKind::kInput:
        for (int b = 0; b < batch; ++b)
          copy_images(inputs[static_cast<std::size_t>(b)].data(), out_chw, 1,
                      out_chw, dst_at(b), dst_stride);
        break;
      case OpKind::kConv: {
        const ConvGeometry geom = gemm_node(graph_, i).geom;
        if (int8 && plan_.nodes[ui].algo == ConvAlgo::kIm2colQuantFused &&
            qlayers_[ui].valid()) {
          const std::uint8_t* inq = u8_input(nd.inputs[0]);
          if (qlayers_[ui].emit_u8) {
            qconv2d(inq, geom, qlayers_[ui], bias, /*out_f32=*/nullptr,
                    u8_acts_[ui].data(), scratch_);
            u8_valid_[ui] = 1;
            float_stale_[ui] = 1;
          } else {
            qconv2d(inq, geom, qlayers_[ui], bias, dst_base,
                    /*out_u8=*/nullptr, scratch_);
          }
          break;
        }
        // Residual fusion: this conv writes into the skipped Add's
        // buffer, combining per EpiMode. The buffer must hold the other
        // operand first — free when the plan aliased them, else
        // preloaded per image.
        const NodeFusion& fus = fusion_.nodes[ui];
        EpiMode mode = EpiMode::kStore;
        Act act = nd.act;
        float* outp = dst_base;
        std::size_t out_stride = dst_stride;
        if (fus.residual_add) {
          const std::size_t ai = static_cast<std::size_t>(fus.residual_out);
          mode = fus.mode;
          act = fus.act;
          outp = act_base_[ai];
          out_stride = act_stride_[ai];
          if (fusion_.nodes[ai].place_parent != fus.residual_src) {
            const std::size_t xi =
                static_cast<std::size_t>(fus.residual_src);
            copy_images(act_base_[xi], act_stride_[xi], batch,
                        graph_.shape(fus.residual_out).numel(), outp,
                        out_stride);
          }
        }
        run_conv(geom, bias, act, outp, out_stride, mode);
        break;
      }
      case OpKind::kDwConv: {
        const FeatShape s = graph_.shape(nd.inputs[0]);
        const ConvGeometry geom{s.c, s.h, s.w, nd.kernel, nd.kernel,
                                nd.stride, nd.pad};
        dwconv2d(src_at(0, 0), src_stride(0), batch, geom,
                 weights_[ui].data(), bias, nd.act, dst_base, dst_stride);
        break;
      }
      case OpKind::kDeconv: {
        // Sub-pixel lowering (nn/ops.hpp): the planned phase conv, with
        // the deconv's bias repeated per phase and its activation in the
        // epilogue, stages a [4·out_c × (H+1)·(W+1)] result per image;
        // the interleave copies it into the 2× output. The bias is
        // re-staged every pass because bias() hands out the master.
        const GemmNode g = gemm_node(graph_, i);
        const std::size_t out_c = static_cast<std::size_t>(nd.out_c);
        for (std::size_t p = 0; p < 4; ++p)
          std::copy_n(bias, out_c, deconv_bias_.data() + p * out_c);
        const std::size_t stage_stride =
            static_cast<std::size_t>(g.rows) * g.geom.col_cols();
        run_conv(g.geom, deconv_bias_.data(), nd.act, deconv_stage_.data(),
                 stage_stride, EpiMode::kStore);
        deconv_interleave(deconv_stage_.data(), stage_stride, batch, nd.out_c,
                          g.geom.in_h, g.geom.in_w, dst_base, dst_stride);
        break;
      }
      case OpKind::kMaxPool: {
        const FeatShape s = graph_.shape(nd.inputs[0]);
        const ConvGeometry geom{s.c, s.h, s.w, nd.kernel, nd.kernel,
                                nd.stride, nd.pad};
        maxpool2d(src_at(0, 0), src_stride(0), batch, geom, dst_base,
                  dst_stride);
        break;
      }
      case OpKind::kUpsample: {
        const FeatShape s = graph_.shape(nd.inputs[0]);
        upsample2x_nearest(src_at(0, 0), src_stride(0), batch, s.c, s.h, s.w,
                           dst_base, dst_stride);
        break;
      }
      case OpKind::kConcat: {
        // Inputs the fusion plan placed into this buffer already wrote
        // their channel range; copy only the rest.
        std::size_t coff = 0;
        for (std::size_t k = 0; k < nd.inputs.size(); ++k) {
          const int sn = nd.inputs[k];
          const std::size_t cn = graph_.shape(sn).numel();
          if (fusion_.nodes[static_cast<std::size_t>(sn)].place_parent != i)
            copy_images(src_at(k, 0), src_stride(k), batch, cn,
                        dst_base + coff, dst_stride);
          coff += cn;
        }
        break;
      }
      case OpKind::kAdd: {
        if (fusion_.nodes[ui].skip)
          break;  // folded into the producer conv's epilogue
        const std::size_t s0 = static_cast<std::size_t>(nd.inputs[0]);
        const std::size_t s1 = static_cast<std::size_t>(nd.inputs[1]);
        if (act_stride_[s0] == out_chw && act_stride_[s1] == out_chw &&
            dst_stride == out_chw) {
          // All three buffers hold the batch contiguously: one call
          // covers every image.
          const std::size_t total = out_chw * static_cast<std::size_t>(batch);
          add_elementwise(src_at(0, 0), src_at(1, 0), total, dst_base, nd.act);
        } else {
          for (int b = 0; b < batch; ++b)
            add_elementwise(src_at(0, b), src_at(1, b), out_chw, dst_at(b),
                            nd.act);
        }
        break;
      }
      case OpKind::kSlice: {
        const FeatShape s = graph_.shape(nd.inputs[0]);
        slice_channels(src_at(0, 0), src_stride(0), batch, s.h, s.w,
                       nd.slice_begin, nd.slice_end, dst_base, dst_stride);
        break;
      }
      case OpKind::kGlobalAvgPool: {
        const FeatShape s = graph_.shape(nd.inputs[0]);
        global_avg_pool(src_at(0, 0), src_stride(0), batch, s.c, s.h, s.w,
                        dst_base, dst_stride);
        break;
      }
      case OpKind::kLinear:
        if (int8 && qlayers_[ui].valid()) {
          qlinear(u8_input(nd.inputs[0]), graph_.shape(nd.inputs[0]).numel(),
                  qlayers_[ui], bias, dst_base, /*out_u8=*/nullptr, scratch_);
          break;
        }
        w.visit(plan_.nodes[ui].storage, [&](const auto& panels) {
          for (int b = 0; b < batch; ++b)
            linear(src_at(0, b), panels, bias, nd.act, dst_at(b));
        });
        break;
    }
    // calibrate(): record the range while the node's output is live. A
    // residual-folded conv's output only exists summed into its Add.
    if (observe_ != nullptr && !fusion_.nodes[ui].residual_add)
      observe_->ranges[ui].observe(dst_base, out_chw);
  }
  has_run_ = true;
}

const Tensor& Engine::node_output(int node) const {
  OCB_CHECK(node >= 0 && node < graph_.node_count());
  OCB_CHECK_MSG(has_run_, "node_output before run()");
  const std::size_t i = static_cast<std::size_t>(node);
  const FeatShape s = graph_.shape(node);
  const std::size_t numel = s.numel();
  Tensor& view = node_views_[i];
  const Shape shape{max_batch_, s.c, s.h, s.w};
  if (!(view.shape() == shape)) view = Tensor(shape);
  if (!float_stale_.empty() && float_stale_[i] != 0) {
    // The node kept its output in u8 (all consumers were INT8).
    dequantize_u8(u8_acts_[i].data(), numel, node_quant_[i], view.data());
  } else {
    for (int b = 0; b < max_batch_; ++b)
      std::copy_n(act_base_[i] + static_cast<std::size_t>(b) * act_stride_[i],
                  numel, view.data() + static_cast<std::size_t>(b) * numel);
  }
  return view;
}

Tensor& Engine::weight(int node) {
  OCB_CHECK(node >= 0 && node < graph_.node_count());
  OCB_CHECK_MSG(!weights_[static_cast<std::size_t>(node)].empty(),
                "node has no weights");
  panels_[static_cast<std::size_t>(node)].dirty = true;
  return weights_[static_cast<std::size_t>(node)];
}

Tensor& Engine::bias(int node) {
  OCB_CHECK(node >= 0 && node < graph_.node_count());
  OCB_CHECK_MSG(!biases_[static_cast<std::size_t>(node)].empty(),
                "node has no bias");
  return biases_[static_cast<std::size_t>(node)];
}

const Tensor& Engine::weight(int node) const {
  OCB_CHECK(node >= 0 && node < graph_.node_count());
  OCB_CHECK_MSG(!weights_[static_cast<std::size_t>(node)].empty(),
                "node has no weights");
  return weights_[static_cast<std::size_t>(node)];
}

const Tensor& Engine::bias(int node) const {
  OCB_CHECK(node >= 0 && node < graph_.node_count());
  OCB_CHECK_MSG(!biases_[static_cast<std::size_t>(node)].empty(),
                "node has no bias");
  return biases_[static_cast<std::size_t>(node)];
}

}  // namespace ocb::nn
