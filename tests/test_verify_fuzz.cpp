// Fuzzed soundness property (DESIGN.md §15): for seeded random graphs
// spanning residual blocks, concat branches, pools, upsamples and
// stride-2 convs, every plan the production pipeline produces —
// plan_conv() per layer under randomized candidate toggles, then
// plan_fusion() with the full fusion stack — must pass the static
// verifier. Runs the pure-planner property across worker threads
// (hammering the shared PlanCache, which is why the concurrency label
// puts this leg under TSan and ASan), plus an engine-backed subset
// where prepared live engines are verified before and after running a
// frame.
#include <gtest/gtest.h>

#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/rng.hpp"
#include "nn/engine.hpp"
#include "nn/planner.hpp"
#include "tensor/simd.hpp"
#include "verify/verify.hpp"

namespace ocb::verify {
namespace {

constexpr int kGraphs = 200;
constexpr int kThreads = 4;

nn::Act random_act(Rng& rng) {
  switch (rng.uniform_int(0, 4)) {
    case 0: return nn::Act::kNone;
    case 1: return nn::Act::kRelu;
    case 2: return nn::Act::kLeakyRelu;
    case 3: return nn::Act::kSilu;
    default: return nn::Act::kSigmoid;
  }
}

/// A random but well-formed model: starts from a small input and
/// appends conv / residual / concat / pool / upsample blocks while
/// tracking the current tail. Occasionally marks an intermediate node
/// as an extra graph output (pinning its buffer live to the end —
/// the planner path the arena checks care most about).
nn::Graph random_graph(Rng& rng) {
  nn::Graph g;
  const int channels[] = {4, 8, 12};
  int cur = g.input(static_cast<int>(rng.uniform_int(1, 3)),
                    rng.bernoulli(0.5) ? 16 : 8,
                    rng.bernoulli(0.5) ? 16 : 8);
  int extra_output = -1;
  const int blocks = static_cast<int>(rng.uniform_int(2, 5));
  for (int b = 0; b < blocks; ++b) {
    const int oc = channels[rng.uniform_int(0, 2)];
    switch (rng.uniform_int(0, 4)) {
      case 0: {  // plain conv, maybe 1×1, maybe stride 2
        const int k = rng.bernoulli(0.3) ? 1 : 3;
        const int s = (k == 3 && g.shape(cur).h >= 8 && rng.bernoulli(0.3))
                          ? 2
                          : 1;
        cur = g.conv(cur, oc, k, s, k / 2, random_act(rng));
        break;
      }
      case 1: {  // residual bottleneck (fusable or not, per the acts)
        const int c0 = g.conv(cur, oc, 3, 1, 1, random_act(rng));
        const int c1 = g.conv(c0, oc, 3, 1, 1, random_act(rng));
        const int c2 = g.conv(c1, oc, 3, 1, 1,
                              rng.bernoulli(0.7) ? nn::Act::kNone
                                                 : random_act(rng));
        cur = g.add(c0, c2, "",
                    rng.bernoulli(0.5) ? random_act(rng) : nn::Act::kNone);
        break;
      }
      case 2: {  // two-branch concat (3×3 and 1×1 keep h/w equal)
        const int b0 = g.conv(cur, oc, 3, 1, 1, random_act(rng));
        const int b1 = g.conv(cur, channels[rng.uniform_int(0, 2)], 1, 1, 0,
                              random_act(rng));
        cur = rng.bernoulli(0.3) ? g.concat({b0, b1, cur})
                                 : g.concat({b0, b1});
        break;
      }
      case 3: {
        if (g.shape(cur).h >= 8)
          cur = g.maxpool(cur, 2, 2, 0);
        else
          cur = g.upsample2x(cur);
        break;
      }
      default: {
        if (g.shape(cur).h <= 16)
          cur = g.upsample2x(cur);
        else
          cur = g.maxpool(cur, 2, 2, 0);
        break;
      }
    }
    if (extra_output < 0 && rng.bernoulli(0.2)) extra_output = cur;
  }
  if (extra_output >= 0 && extra_output != cur) g.mark_output(extra_output);
  g.mark_output(cur);
  return g;
}

/// Mirror of the engine's plan assembly: per-conv plan_conv() under
/// randomized candidate toggles, plan_fusion(), and a counter
/// recompute matching ExecutionPlan's
/// definitions. Deliberately independent code — agreement between this,
/// the engine, and the verifier is the property under test.
PlanSnapshot planned_snapshot(const nn::Graph& g, Rng& rng) {
  nn::PlannerConfig cfg;
  cfg.enable_winograd = rng.bernoulli(0.8);
  cfg.enable_direct = rng.bernoulli(0.8);
  cfg.use_cache = rng.bernoulli(0.7);  // shared-cache traffic under TSan
  const int max_batch = static_cast<int>(rng.uniform_int(1, 3));

  const int n = g.node_count();
  std::vector<nn::ConvPlan> plans(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const nn::Node& nd = g.node(i);
    if (nd.kind != nn::OpKind::kConv) continue;
    const nn::FeatShape in = g.shape(nd.inputs[0]);
    nn::ConvPlanKey key;
    key.in_c = in.c;
    key.in_h = in.h;
    key.in_w = in.w;
    key.kernel = nd.kernel;
    key.stride = nd.stride;
    key.pad = nd.pad;
    key.out_c = nd.out_c;
    key.batch = max_batch;
    key.level = simd::active();
    plans[static_cast<std::size_t>(i)] = nn::plan_conv(key, cfg);
  }

  PlanSnapshot snap;
  snap.fusion = plan_fusion(g, plans, max_batch);
  snap.max_batch = max_batch;

  snap.plan.precision = nn::Precision::kFp32;
  snap.plan.max_batch = max_batch;
  snap.plan.nodes = plans;
  for (int i = 0; i < n; ++i) {
    if (g.node(i).kind != nn::OpKind::kConv) continue;
    ++snap.plan.conv_nodes;
    switch (plans[static_cast<std::size_t>(i)].algo) {
      case nn::ConvAlgo::kWinograd: ++snap.plan.winograd_nodes; break;
      case nn::ConvAlgo::kDirectGemm: ++snap.plan.direct_nodes; break;
      case nn::ConvAlgo::kIm2colFused: ++snap.plan.fused_nodes; break;
      case nn::ConvAlgo::kIm2colQuantFused:
        ++snap.plan.quant_nodes;
        ++snap.plan.fused_nodes;
        break;
    }
  }
  snap.plan.residual_fused = snap.fusion.residual_fused;
  snap.plan.concat_elided = snap.fusion.concat_elided;
  snap.plan.arena_peak_bytes_before =
      snap.fusion.naive_floats * sizeof(float);
  snap.plan.arena_peak_bytes_after =
      snap.fusion.arena_floats * sizeof(float);
  snap.graph = g;
  return snap;
}

TEST(VerifyFuzz, EveryPlannedGraphVerifiesClean) {
  std::mutex mu;
  std::vector<std::string> failures;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t, &mu, &failures] {
      Rng rng(hash_combine(0xF022, static_cast<std::uint64_t>(t)));
      for (int i = 0; i < kGraphs / kThreads; ++i) {
        Rng child = rng.fork();
        const nn::Graph g = random_graph(child);
        const PlanSnapshot snap = planned_snapshot(g, child);
        const Report report = verify(snap);
        if (!report.clean()) {
          std::lock_guard<std::mutex> lock(mu);
          failures.push_back("thread " + std::to_string(t) + " graph " +
                             std::to_string(i) + ":\n" + report.to_text());
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (const std::string& f : failures) ADD_FAILURE() << f;
}

TEST(VerifyFuzz, EngineBackedGraphsVerifyCleanBeforeAndAfterRunning) {
  Rng rng(0xE12A);
  for (int i = 0; i < 16; ++i) {
    Rng child = rng.fork();
    const nn::Graph g = random_graph(child);
    nn::Engine engine(g, hash_combine(31, static_cast<std::uint64_t>(i)));

    nn::PlanRequest req;
    req.max_batch = static_cast<int>(child.uniform_int(1, 2));
    if (child.bernoulli(0.3)) req.precision = nn::Precision::kFp16;
    if (child.bernoulli(0.3)) {
      req.sparsity.scheme = nn::SparsityScheme::kNm;
      req.sparsity.nm_n = 2;
      req.sparsity.nm_m = 4;
    }
    engine.prepare(req);
    const Report before = verify(engine);
    EXPECT_TRUE(before.clean()) << "graph " << i << ":\n" << before.to_text();

    const nn::FeatShape in = g.input_shape();
    Tensor frame({1, in.c, in.h, in.w});
    frame.init_uniform(child, -1.0f, 1.0f);
    (void)engine.run(frame);
    const Report after = verify(engine);
    EXPECT_TRUE(after.clean()) << "graph " << i << ":\n" << after.to_text();
  }
}

}  // namespace
}  // namespace ocb::verify
