// Kernel-planner benchmark: measured per-layer latency of the planner's
// chosen conv implementation vs the always-im2col baseline.
//
// Walks the conv layers of MiniYolo detector graphs (a small-input nano
// and the 3×3-heavy x-large trunk at 256×256), plans each layer with
// the default cost model, then *measures* the chosen candidate next to
// a materialized im2col conv (the full column matrix lowered by
// im2col(), then one prepacked gemm_packed — the classic lowering,
// kept here as the fixed yardstick), so the table shows both what the
// planner predicted and what the machine delivered. A whole-model
// section runs the planned engine against the legacy engine — the
// constructor's unplanned plan, dense im2col stripes everywhere — and
// reports the frame speedup plus the maximum output divergence.
//
// Emits BENCH_planner.json (top-level "bench": "planner") consumed by
// scripts/check_bench_regression.py --mode planner in CI: the planner
// must put at least one trunk stage on Winograd with a >= 1.5× measured
// layer speedup, and no chosen path may measure slower than im2col.
#include <chrono>
#include <cmath>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/rng.hpp"
#include "models/mini_yolo.hpp"
#include "nn/engine.hpp"
#include "nn/ops.hpp"
#include "nn/planner.hpp"
#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"
#include "tensor/simd.hpp"
#include "tensor/winograd.hpp"

using namespace ocb;

namespace {

using Clock = std::chrono::steady_clock;

template <typename F>
double best_seconds(F&& body, double min_seconds) {
  double best = 1e300;
  double total = 0.0;
  int iters = 0;
  while (total < min_seconds || iters < 2) {
    const auto t0 = Clock::now();
    body();
    const double dt = std::chrono::duration<double>(Clock::now() - t0).count();
    best = std::min(best, dt);
    total += dt;
    ++iters;
  }
  return best;
}

struct LayerResult {
  std::string label;
  nn::ConvPlanKey key;
  nn::ConvPlan plan;                 ///< planner decision + estimates
  double im2col_ms = 0.0;            ///< measured materialized im2col
  double chosen_ms = 0.0;            ///< measured planner-chosen path
  double speedup() const noexcept {
    return chosen_ms > 0.0 ? im2col_ms / chosen_ms : 0.0;
  }
  double est_speedup() const noexcept {
    return plan.est_ms > 0.0 ? plan.est_im2col_ms / plan.est_ms : 0.0;
  }
};

/// Measure one conv layer through `algo`, or through the materialized
/// im2col baseline when `algo` is empty (panels/weights prepacked and
/// the column matrix allocated outside the timed region, exactly like
/// an engine's steady state).
double measure_algo(const nn::ConvPlanKey& key,
                    std::optional<nn::ConvAlgo> algo, double min_seconds) {
  const ConvGeometry geom = key.geometry();
  Rng rng(23);
  Tensor input({1, key.in_c, key.in_h, key.in_w});
  input.init_uniform(rng, -1.0f, 1.0f);
  Tensor weight({key.out_c, key.in_c, key.kernel, key.kernel});
  weight.init_uniform(rng, -0.5f, 0.5f);
  std::vector<float> bias(static_cast<std::size_t>(key.out_c), 0.1f);
  Tensor output({1, key.out_c, geom.out_h(), geom.out_w()});

  nn::ConvScratch scratch;
  const nn::Act act = nn::Act::kLeakyRelu;
  if (!algo) {
    PackedA packed(weight.data(), static_cast<std::size_t>(key.out_c),
                   geom.col_rows());
    std::vector<float> col(geom.col_rows() * geom.col_cols());
    const GemmEpilogue epi{bias.data(), nn::to_epilogue_act(act)};
    return best_seconds(
               [&] {
                 im2col(input.data(), geom, col.data());
                 gemm_packed(packed, col.data(), output.data(),
                             geom.col_cols(), /*accumulate=*/false, epi);
               },
               min_seconds) *
           1e3;
  }
  switch (*algo) {
    case nn::ConvAlgo::kDirectGemm: {
      PackedA packed(weight.data(), static_cast<std::size_t>(key.out_c),
                     geom.col_rows());
      return best_seconds(
                 [&] {
                   nn::conv2d_direct1x1(input.data(), input.numel(), 1, geom,
                                        packed, bias.data(), act,
                                        output.data(), output.numel());
                 },
                 min_seconds) *
             1e3;
    }
    case nn::ConvAlgo::kWinograd: {
      std::vector<PackedA> panels;
      winograd::pack_weights(weight.data(), key.out_c, key.in_c, panels);
      return best_seconds(
                 [&] {
                   nn::conv2d_winograd(input.data(), input.numel(), 1, geom,
                                       panels, bias.data(), act,
                                       output.data(), output.numel(),
                                       scratch);
                 },
                 min_seconds) *
             1e3;
    }
    case nn::ConvAlgo::kIm2colFused: {
      PackedA packed(weight.data(), static_cast<std::size_t>(key.out_c),
                     geom.col_rows());
      return best_seconds(
                 [&] {
                   nn::conv2d_fused(input.data(), input.numel(), 1, geom,
                                    packed, bias.data(), act, output.data(),
                                    output.numel(), scratch);
                 },
                 min_seconds) *
             1e3;
    }
    case nn::ConvAlgo::kIm2colQuantFused:
      break;  // fp32 bench; the quantized path has its own sweep
  }
  return 0.0;
}

/// Conv layers of `graph`, deduplicated by plan key.
std::vector<LayerResult> collect_layers(const nn::Graph& graph,
                                        const std::string& model_tag) {
  std::vector<LayerResult> layers;
  for (int i = 0; i < graph.node_count(); ++i) {
    const nn::Node& nd = graph.node(i);
    if (nd.kind != nn::OpKind::kConv) continue;
    const nn::FeatShape s = graph.shape(nd.inputs[0]);
    nn::ConvPlanKey key;
    key.in_c = s.c;
    key.in_h = s.h;
    key.in_w = s.w;
    key.kernel = nd.kernel;
    key.stride = nd.stride;
    key.pad = nd.pad;
    key.out_c = nd.out_c;
    key.batch = 1;
    key.precision = nn::Precision::kFp32;
    key.level = simd::active();
    bool seen = false;
    for (const LayerResult& prior : layers) seen = seen || prior.key == key;
    if (seen) continue;
    LayerResult layer;
    layer.label = model_tag + "/" + nd.name;
    layer.key = key;
    layers.push_back(layer);
  }
  return layers;
}

struct ModelResult {
  std::string name;
  double legacy_ns_frame = 0.0;   ///< unplanned engine (stripes only)
  double planned_ns_frame = 0.0;  ///< Engine::prepare() default request
  double max_abs_diff = 0.0;      ///< planned vs legacy output divergence
  int winograd_nodes = 0;
  int direct_nodes = 0;
  double speedup() const noexcept {
    return planned_ns_frame > 0.0 ? legacy_ns_frame / planned_ns_frame : 0.0;
  }
};

ModelResult bench_model(const nn::Graph& graph, const std::string& name,
                        double min_seconds) {
  nn::Engine legacy(graph, 1);   // constructor plan: stripes everywhere
  nn::Engine planned(graph, 1);  // same weights (same seed), planner on
  const nn::ExecutionPlan& plan = planned.prepare({});

  const nn::FeatShape in = graph.input_shape();
  Tensor input({1, in.c, in.h, in.w});
  Rng rng(3);
  input.init_uniform(rng, 0.0f, 1.0f);

  ModelResult result;
  result.name = name;
  result.winograd_nodes = plan.winograd_nodes;
  result.direct_nodes = plan.direct_nodes;

  const auto ref = legacy.run(input);  // also warms both engines
  const auto got = planned.run(input);
  for (std::size_t o = 0; o < ref.size(); ++o)
    for (std::size_t i = 0; i < ref[o].numel(); ++i)
      result.max_abs_diff = std::max(
          result.max_abs_diff,
          static_cast<double>(std::fabs(ref[o][i] - got[o][i])));

  // Both engines run the same stripes on most layers of the small
  // model, so its ratio sits near 1: alternate short sampling rounds
  // so host drift reaches both sides alike, and keep each side's best.
  constexpr int kRounds = 8;
  double legacy_s = 1e300, planned_s = 1e300;
  for (int round = 0; round < kRounds; ++round) {
    legacy_s = std::min(legacy_s, best_seconds([&] { legacy.run(input); },
                                               min_seconds / kRounds));
    planned_s = std::min(planned_s, best_seconds([&] { planned.run(input); },
                                                 min_seconds / kRounds));
  }
  result.legacy_ns_frame = legacy_s * 1e9;
  result.planned_ns_frame = planned_s * 1e9;
  return result;
}

std::string to_json(const std::vector<LayerResult>& layers,
                    const std::vector<ModelResult>& model_results) {
  std::ostringstream out;
  out << "{\n  \"bench\": \"planner\",\n";
  out << "  \"simd\": \"" << simd::level_name(simd::active()) << "\",\n";
  out << "  \"layers\": [\n";
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const LayerResult& l = layers[i];
    out << "    {\"label\": \"" << l.label << "\", \"in_c\": " << l.key.in_c
        << ", \"h\": " << l.key.in_h << ", \"w\": " << l.key.in_w
        << ", \"out_c\": " << l.key.out_c << ", \"kernel\": " << l.key.kernel
        << ", \"stride\": " << l.key.stride
        << ", \"chosen\": \"" << nn::conv_algo_name(l.plan.algo) << "\""
        << ", \"est_ms\": " << l.plan.est_ms
        << ", \"est_im2col_ms\": " << l.plan.est_im2col_ms
        << ", \"est_speedup\": " << l.est_speedup()
        << ", \"im2col_ms\": " << l.im2col_ms
        << ", \"chosen_ms\": " << l.chosen_ms
        << ", \"speedup\": " << l.speedup() << "}"
        << (i + 1 < layers.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"models\": [\n";
  for (std::size_t i = 0; i < model_results.size(); ++i) {
    const ModelResult& m = model_results[i];
    out << "    {\"name\": \"" << m.name
        << "\", \"legacy_ns_frame\": " << m.legacy_ns_frame
        << ", \"planned_ns_frame\": " << m.planned_ns_frame
        << ", \"speedup\": " << m.speedup()
        << ", \"winograd_nodes\": " << m.winograd_nodes
        << ", \"direct_nodes\": " << m.direct_nodes
        << ", \"max_abs_diff\": " << m.max_abs_diff << "}"
        << (i + 1 < model_results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("bench_conv_planner",
          "cost-model kernel planner: chosen conv paths vs always-im2col");
  bench::add_common_flags(cli);
  cli.add_double("min-seconds", 0.2,
                 "minimum sampling time per measurement point");
  cli.add_string("out", "BENCH_planner.json",
                 "machine-readable output path (empty disables)");
  if (!cli.parse(argc, argv)) return 0;
  bench::apply_common_flags(cli);
  const double min_seconds = cli.real("min-seconds");

  // The Ocularone detector family the planner serves: the nano at its
  // native 64×64 (small planes — most layers should *stay* on im2col)
  // and the v11 x-large trunk at 256×256, whose 56-channel 3×3 refine
  // stages are the Winograd case.
  struct Variant {
    models::YoloFamily family;
    models::YoloSize size;
    models::MiniYoloConfig config;
    const char* tag;
  };
  const std::vector<Variant> variants = {
      {models::YoloFamily::kV8, models::YoloSize::kNano, {64, 8, 0.6f},
       "mini-v8n/64"},
      {models::YoloFamily::kV11, models::YoloSize::kXLarge, {256, 32, 0.6f},
       "mini-v11x/256"},
  };

  std::vector<LayerResult> layers;
  std::vector<ModelResult> model_results;
  for (const Variant& v : variants) {
    const models::MiniYolo model(v.family, v.size, v.config, 1);
    const nn::Graph graph = model.export_graph();
    for (LayerResult& layer : collect_layers(graph, v.tag))
      layers.push_back(layer);
    model_results.push_back(bench_model(graph, v.tag, min_seconds));
  }

  ResultTable layer_table(
      std::string("Planner-chosen conv path vs im2col (simd: ") +
          simd::level_name(simd::active()) + ")",
      {"layer", "shape", "k", "chosen", "est ms", "est im2col", "meas ms",
       "meas im2col", "speedup"});
  for (LayerResult& layer : layers) {
    layer.plan = nn::plan_conv(layer.key);
    layer.im2col_ms = measure_algo(layer.key, std::nullopt, min_seconds);
    layer.chosen_ms = measure_algo(layer.key, layer.plan.algo, min_seconds);
    std::ostringstream shape;
    shape << layer.key.in_c << "x" << layer.key.in_h << "x" << layer.key.in_w
          << "->" << layer.key.out_c;
    layer_table.row()
        .cell(layer.label)
        .cell(shape.str())
        .cell(static_cast<double>(layer.key.kernel), 0)
        .cell(nn::conv_algo_name(layer.plan.algo))
        .cell(layer.plan.est_ms, 4)
        .cell(layer.plan.est_im2col_ms, 4)
        .cell(layer.chosen_ms, 4)
        .cell(layer.im2col_ms, 4)
        .cell(layer.speedup(), 2);
  }

  ResultTable model_table(
      "Whole model: planned engine vs legacy (unplanned stripe) engine",
      {"model", "legacy ms", "planned ms", "speedup", "wino", "direct",
       "max |diff|"});
  for (const ModelResult& m : model_results) {
    model_table.row()
        .cell(m.name)
        .cell(m.legacy_ns_frame * 1e-6, 3)
        .cell(m.planned_ns_frame * 1e-6, 3)
        .cell(m.speedup(), 2)
        .cell(static_cast<double>(m.winograd_nodes), 0)
        .cell(static_cast<double>(m.direct_nodes), 0)
        .cell(m.max_abs_diff, 6);
  }

  bench::emit(cli, {layer_table, model_table});

  if (!cli.string("out").empty()) {
    std::ofstream file(cli.string("out"));
    file << to_json(layers, model_results);
    std::cout << "wrote " << cli.string("out") << '\n';
  }
  return 0;
}
