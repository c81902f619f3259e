// Graph fusion + liveness arena planning (nn/fusion.hpp) and the
// engine integration behind PlanRequest::fusion: residual epilogues,
// concat placement and the shared activation arena must be
// numerically equivalent to the unfused baseline (≤1e-5) and stay
// heap-free on the warmed frame path.
#include "nn/fusion.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/alloc_guard.hpp"
#include "nn/engine.hpp"

namespace ocb::nn {
namespace {

constexpr float kTol = 1e-5f;

float max_abs_diff(const Tensor& a, const Tensor& b) {
  EXPECT_EQ(a.shape(), b.shape());
  float m = 0.0f;
  for (std::size_t i = 0; i < a.numel(); ++i)
    m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

Tensor random_input(int c, int h, int w, std::uint64_t seed) {
  Tensor t({1, c, h, w});
  Rng rng(seed);
  t.init_uniform(rng, -1.0f, 1.0f);
  return t;
}

/// Residual bottleneck feeding a concat — the C2f-style shape both
/// fusion passes engage on: `res = silu(c0 + c2)` folds into c2's
/// epilogue (c2 has no activation of its own) and `c3`, read only by
/// the concat, is placed into the concat's buffer. `res` feeds both
/// c3 and the concat, so it must NOT be placed.
Graph residual_concat_graph() {
  Graph g;
  const int in = g.input(3, 16, 16);
  const int c0 = g.conv(in, 8, 3, 1, 1, Act::kSilu, "c0");
  const int c1 = g.conv(c0, 8, 3, 1, 1, Act::kSilu, "c1");
  const int c2 = g.conv(c1, 8, 3, 1, 1, Act::kNone, "c2");
  const int res = g.add(c0, c2, "res", Act::kSilu);
  const int c3 = g.conv(res, 8, 3, 1, 1, Act::kSilu, "c3");
  const int cat = g.concat({res, c3}, "cat");
  const int head = g.conv(cat, 4, 1, 1, 0, Act::kSigmoid, "head");
  g.mark_output(head);
  return g;
}

/// Straight conv chain: at most two buffers are ever live, so the
/// liveness planner must fold the arena far below one-buffer-per-node.
Graph chain_graph(int depth) {
  Graph g;
  int cur = g.input(8, 16, 16);
  for (int i = 0; i < depth; ++i)
    cur = g.conv(cur, 8, 3, 1, 1, Act::kLeakyRelu, "c" + std::to_string(i));
  g.mark_output(cur);
  return g;
}

/// Dense residual-capable plans (one per node) for plan_fusion unit
/// tests that bypass the engine: the default ConvPlan, dense im2col
/// stripes, whose epilogue carries a residual add.
std::vector<ConvPlan> fused_plans(const Graph& g) {
  return std::vector<ConvPlan>(static_cast<std::size_t>(g.node_count()));
}

FusionConfig all_on() { return FusionConfig{true, true, true}; }

// --- plan_fusion unit tests ------------------------------------------------

TEST(PlanFusion, DefaultConfigIsIdentity) {
  const Graph g = residual_concat_graph();
  const MemoryPlan mp = plan_fusion(g, fused_plans(g), FusionConfig{}, 1);
  EXPECT_EQ(mp.residual_fused, 0);
  EXPECT_EQ(mp.concat_elided, 0);
  EXPECT_FALSE(mp.planned);
  EXPECT_EQ(mp.arena_floats, mp.naive_floats);
  for (const NodeFusion& f : mp.nodes) {
    EXPECT_FALSE(f.skip);
    EXPECT_EQ(f.place_parent, -1);
  }
}

TEST(PlanFusion, ResidualFoldsIntoConvEpilogue) {
  const Graph g = residual_concat_graph();
  const MemoryPlan mp = plan_fusion(g, fused_plans(g), all_on(), 1);
  // Node ids follow construction order: in=0 c0=1 c1=2 c2=3 res=4.
  EXPECT_EQ(mp.residual_fused, 1);
  const NodeFusion& conv = mp.nodes[3];
  EXPECT_TRUE(conv.residual_add);
  EXPECT_EQ(conv.residual_src, 1);
  EXPECT_EQ(conv.residual_out, 4);
  // c2 has no activation, so the fold activates the *sum*.
  EXPECT_EQ(conv.mode, EpiMode::kAccThenAct);
  EXPECT_EQ(conv.act, Act::kSilu);
  EXPECT_TRUE(mp.nodes[4].skip);
  // c0 is read by c1 (before c2 runs) and nothing later: the add can
  // alias c0's buffer and the preload copy disappears.
  EXPECT_EQ(mp.nodes[4].place_parent, 1);
  EXPECT_EQ(mp.nodes[4].place_offset_floats, 0u);
}

TEST(PlanFusion, ResidualActivationOrdering) {
  // Conv already activated + add without one: activate first, then
  // accumulate. Both activated: no legal epilogue, no fusion.
  Graph g;
  const int in = g.input(4, 8, 8);
  const int c0 = g.conv(in, 4, 3, 1, 1, Act::kSilu, "c0");
  const int c1 = g.conv(c0, 4, 3, 1, 1, Act::kRelu, "c1");
  const int res = g.add(c0, c1, "res");
  g.mark_output(res);
  const MemoryPlan mp = plan_fusion(g, fused_plans(g), all_on(), 1);
  ASSERT_EQ(mp.residual_fused, 1);
  EXPECT_EQ(mp.nodes[2].mode, EpiMode::kActThenAcc);
  EXPECT_EQ(mp.nodes[2].act, Act::kRelu);

  Graph h;
  const int hin = h.input(4, 8, 8);
  const int h0 = h.conv(hin, 4, 3, 1, 1, Act::kSilu, "h0");
  const int h1 = h.conv(h0, 4, 3, 1, 1, Act::kRelu, "h1");
  const int hres = h.add(h0, h1, "hres", Act::kSilu);
  h.mark_output(hres);
  const MemoryPlan mh = plan_fusion(h, fused_plans(h), all_on(), 1);
  EXPECT_EQ(mh.residual_fused, 0);
  EXPECT_FALSE(mh.nodes[3].skip);
}

TEST(PlanFusion, ResidualFoldsIntoDenseStripesButNotCompressed) {
  const Graph g = residual_concat_graph();
  // Dense stripes carry the residual epilogue.
  EXPECT_EQ(plan_fusion(g, fused_plans(g), all_on(), 1).residual_fused, 1);
  // Compressed storage blocks the fold outright: those kernels run
  // kStore only.
  for (WeightStorage st : {WeightStorage::kHalf, WeightStorage::kSparse}) {
    std::vector<ConvPlan> plans = fused_plans(g);
    plans[3].storage = st;
    EXPECT_EQ(plan_fusion(g, plans, all_on(), 1).residual_fused, 0);
  }
}

TEST(PlanFusion, ConcatPlacesSingleConsumerProducers) {
  const Graph g = residual_concat_graph();
  const MemoryPlan mp = plan_fusion(g, fused_plans(g), all_on(), 1);
  // c3 (node 5) is read only by the concat (node 6): placed at the
  // second slot, after res's 8×16×16 channels.
  EXPECT_EQ(mp.concat_elided, 1);
  EXPECT_EQ(mp.nodes[5].place_parent, 6);
  EXPECT_EQ(mp.nodes[5].place_offset_floats, 8u * 16u * 16u);
  // res (node 4) also feeds c3 — it must keep its own slot... except
  // it was aliased onto c0 by the residual pass, whose parent is c0,
  // not the concat.
  EXPECT_NE(mp.nodes[4].place_parent, 6);
}

TEST(PlanFusion, ConcatNeverPlacesInputsOutputsOrSharedProducers) {
  Graph g;
  const int in = g.input(2, 4, 4);
  const int c0 = g.conv(in, 2, 3, 1, 1, Act::kRelu, "c0");
  const int cat = g.concat({in, c0, c0}, "cat");
  g.mark_output(cat);
  g.mark_output(c0);
  const MemoryPlan mp = plan_fusion(g, fused_plans(g), all_on(), 1);
  // `in` is the graph input, `c0` is a graph output AND appears twice
  // in the concat: nothing can be placed.
  EXPECT_EQ(mp.concat_elided, 0);
  EXPECT_EQ(mp.nodes[0].place_parent, -1);
  EXPECT_EQ(mp.nodes[1].place_parent, -1);
}

TEST(PlanFusion, RootOfResolvesPlacementChains) {
  // concat-of-concat: inner's child resolves through two hops.
  Graph g;
  const int in = g.input(2, 4, 4);
  const int a = g.conv(in, 2, 3, 1, 1, Act::kRelu, "a");
  const int b = g.conv(in, 3, 3, 1, 1, Act::kRelu, "b");
  const int inner = g.concat({a, b}, "inner");
  const int c = g.conv(in, 4, 3, 1, 1, Act::kRelu, "c");
  const int outer = g.concat({c, inner}, "outer");
  const int head = g.conv(outer, 2, 1, 1, 0, Act::kNone, "head");
  g.mark_output(head);
  const MemoryPlan mp = plan_fusion(g, fused_plans(g), all_on(), 1);
  EXPECT_EQ(mp.nodes[static_cast<std::size_t>(inner)].place_parent, outer);
  std::size_t off = 0;
  EXPECT_EQ(mp.root_of(b, &off), outer);
  // b sits after a inside inner, which sits after c inside outer.
  EXPECT_EQ(off, (4u + 2u) * 4u * 4u);
}

TEST(PlanFusion, LivenessArenaShrinksChainGraphs) {
  const Graph g = chain_graph(6);
  const MemoryPlan mp = plan_fusion(g, fused_plans(g), all_on(), 1);
  ASSERT_TRUE(mp.planned);
  EXPECT_LT(mp.arena_floats, mp.naive_floats / 2)
      << "a chain keeps at most two buffers live";
  // Without plan_memory the arena stays at the naive footprint.
  FusionConfig no_mem = all_on();
  no_mem.plan_memory = false;
  const MemoryPlan flat = plan_fusion(g, fused_plans(g), no_mem, 1);
  EXPECT_FALSE(flat.planned);
  EXPECT_EQ(flat.arena_floats, flat.naive_floats);
}

TEST(PlanFusion, OverlappingRangesNeverShareOffsets) {
  const Graph g = residual_concat_graph();
  const MemoryPlan mp = plan_fusion(g, fused_plans(g), all_on(), 2);
  ASSERT_TRUE(mp.planned);
  // Brute-force check: any two roots whose live ranges overlap must
  // occupy disjoint [offset, offset+size) intervals. Ranges are
  // conservative here: every root is treated live from its earliest
  // writer to its last consumer (or the end, for outputs).
  const int n = g.node_count();
  std::vector<std::vector<int>> consumers(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j)
    for (int s : g.node(j).inputs)
      consumers[static_cast<std::size_t>(s)].push_back(j);
  auto last_use = [&](int root) {
    int last = root;
    for (int i = 0; i < n; ++i) {
      if (mp.root_of(i, nullptr) != root) continue;
      for (int t : consumers[static_cast<std::size_t>(i)])
        last = std::max(last, t);
      for (int o : g.outputs())
        if (o == i) last = n;
    }
    return last;
  };
  for (int a = 0; a < n; ++a) {
    if (mp.nodes[static_cast<std::size_t>(a)].place_parent != -1) continue;
    for (int b = a + 1; b < n; ++b) {
      if (mp.nodes[static_cast<std::size_t>(b)].place_parent != -1) continue;
      if (last_use(a) < b) continue;  // a dead before b defined
      const std::size_t a0 = mp.offsets[static_cast<std::size_t>(a)];
      const std::size_t a1 = a0 + 2u * g.shape(a).numel();
      const std::size_t b0 = mp.offsets[static_cast<std::size_t>(b)];
      const std::size_t b1 = b0 + 2u * g.shape(b).numel();
      EXPECT_TRUE(a1 <= b0 || b1 <= a0)
          << "roots " << a << " and " << b << " overlap";
    }
  }
}

// --- engine integration ----------------------------------------------------

TEST(EngineFusion, FusedRunMatchesUnfusedBaseline) {
  const Graph g = residual_concat_graph();
  Engine fused(g, 7), base(g, 7);
  PlanRequest req;
  req.fusion = all_on();
  const ExecutionPlan& plan = fused.prepare(req);
  EXPECT_GE(plan.residual_fused, 1);
  EXPECT_GE(plan.concat_elided, 1);
  EXPECT_LT(plan.arena_peak_bytes_after, plan.arena_peak_bytes_before);
  base.prepare(PlanRequest{});

  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Tensor input = random_input(3, 16, 16, seed);
    const auto& out_f = fused.run(input);
    const float* fdata = out_f[0].data();
    Tensor fcopy(out_f[0].shape());
    std::copy(fdata, fdata + out_f[0].numel(), fcopy.data());
    const auto& out_b = base.run(input);
    EXPECT_LE(max_abs_diff(fcopy, out_b[0]), kTol) << "seed " << seed;
  }
}

TEST(EngineFusion, BatchedFusedRunMatchesPerFrameBaseline) {
  const Graph g = residual_concat_graph();
  Engine fused(g, 9), base(g, 9);
  PlanRequest req;
  req.max_batch = 3;
  req.fusion = all_on();
  fused.prepare(req);
  base.prepare(PlanRequest{});

  std::vector<Tensor> frames;
  for (std::uint64_t s = 10; s < 13; ++s)
    frames.push_back(random_input(3, 16, 16, s));
  const auto batched = fused.run_batch(frames);
  ASSERT_EQ(batched.size(), 3u);
  for (std::size_t b = 0; b < 3; ++b) {
    const auto& ref = base.run(frames[b]);
    EXPECT_LE(max_abs_diff(batched[b][0], ref[0]), kTol) << "frame " << b;
  }
}

TEST(EngineFusion, NodeOutputCopiesPlacedBuffersBack) {
  const Graph g = residual_concat_graph();
  Engine fused(g, 11), base(g, 11);
  PlanRequest req;
  // plan_memory stays off: recycled arena slots legitimately lose dead
  // intermediates, but pure fusion must keep every node observable.
  req.fusion = FusionConfig{true, true, false};
  fused.prepare(req);
  base.prepare(PlanRequest{});
  const Tensor input = random_input(3, 16, 16, 21);
  fused.run(input);
  base.run(input);
  // c3 (node 5) lives inside the concat's buffer; res (node 4) was
  // folded into c2's epilogue and aliased onto c0. Both views must
  // still materialise on demand.
  EXPECT_LE(max_abs_diff(fused.node_output(5), base.node_output(5)), kTol);
  EXPECT_LE(max_abs_diff(fused.node_output(4), base.node_output(4)), kTol);
}

TEST(EngineFusion, RePrepareWithoutFusionRestoresBaseline) {
  const Graph g = residual_concat_graph();
  Engine engine(g, 13), base(g, 13);
  PlanRequest req;
  req.fusion = all_on();
  engine.prepare(req);
  const Tensor input = random_input(3, 16, 16, 31);
  engine.run(input);

  const ExecutionPlan& plan = engine.prepare(PlanRequest{});
  EXPECT_EQ(plan.residual_fused, 0);
  EXPECT_EQ(plan.concat_elided, 0);
  EXPECT_EQ(plan.arena_peak_bytes_after, plan.arena_peak_bytes_before);
  base.prepare(PlanRequest{});
  const auto& out = engine.run(input);
  const float* data = out[0].data();
  Tensor copy(out[0].shape());
  std::copy(data, data + out[0].numel(), copy.data());
  const auto& ref = base.run(input);
  EXPECT_LE(max_abs_diff(copy, ref[0]), kTol);
}

TEST(EngineFusion, WarmFusedRunsAreHeapFree) {
  const Graph g = residual_concat_graph();
  Engine engine(g, 17);
  PlanRequest req;
  req.fusion = all_on();
  engine.prepare(req);
  const Tensor input = random_input(3, 16, 16, 41);
  (void)engine.run(input);  // warm: packs, arena, output slots

  AllocGuard guard;
  for (int rep = 0; rep < 3; ++rep) {
    (void)engine.prepare(req);  // unchanged request: heap-free replan
    (void)engine.run(input);
  }
  guard.check_zero("warmed fused prepare()+run()");
}

TEST(EngineFusion, Int8PrecisionForcesUnfusedPlan) {
  const Graph g = residual_concat_graph();
  Engine engine(g, 19);
  std::vector<Tensor> frames;
  frames.push_back(random_input(3, 16, 16, 51));
  engine.calibrate(frames);

  PlanRequest req;
  req.precision = Precision::kInt8;
  req.fusion = all_on();  // ignored: the u8 path keeps per-node buffers
  const ExecutionPlan& plan = engine.prepare(req);
  EXPECT_EQ(plan.residual_fused, 0);
  EXPECT_EQ(plan.concat_elided, 0);
  EXPECT_EQ(plan.arena_peak_bytes_after, plan.arena_peak_bytes_before);
  EXPECT_NO_THROW(engine.run(frames[0]));
}

}  // namespace
}  // namespace ocb::nn
