#include "nn/engine.hpp"

#include <gtest/gtest.h>

#include "core/alloc_guard.hpp"
#include "nn/profile.hpp"
#include "nn/prune.hpp"
#include "nn/reference.hpp"

namespace ocb::nn {
namespace {

Graph tiny_graph() {
  Graph g;
  const int in = g.input(3, 16, 16);
  const int c1 = g.conv(in, 8, 3, 2, 1, Act::kSilu, "c1");
  const int c2 = g.conv(c1, 8, 3, 1, 1, Act::kSilu, "c2");
  const int add = g.add(c1, c2, "res");
  const int pool = g.maxpool(add, 2, 2, 0, "pool");
  const int up = g.upsample2x(pool, "up");
  const int cat = g.concat({up, add}, "cat");
  const int head = g.conv(cat, 4, 1, 1, 0, Act::kSigmoid, "head");
  g.mark_output(head);
  return g;
}

TEST(Engine, RunsAndProducesOutputShape) {
  const Graph g = tiny_graph();
  Engine engine(g, 1);
  Tensor input({1, 3, 16, 16}, 0.5f);
  const auto outputs = engine.run(input);
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_EQ(outputs[0].shape(), (Shape{1, 4, 8, 8}));
}

TEST(Engine, SigmoidOutputInUnitRange) {
  const Graph g = tiny_graph();
  Engine engine(g, 2);
  Tensor input({1, 3, 16, 16});
  Rng rng(3);
  input.init_uniform(rng, 0.0f, 1.0f);
  const auto outputs = engine.run(input);
  for (std::size_t i = 0; i < outputs[0].numel(); ++i) {
    EXPECT_GE(outputs[0][i], 0.0f);
    EXPECT_LE(outputs[0][i], 1.0f);
  }
}

TEST(Engine, DeterministicAcrossInstances) {
  const Graph g = tiny_graph();
  Engine a(g, 42), b(g, 42);
  Tensor input({1, 3, 16, 16}, 0.25f);
  const auto out_a = a.run(input);
  const auto out_b = b.run(input);
  EXPECT_TRUE(allclose(out_a[0], out_b[0]));
}

TEST(Engine, DifferentSeedsDifferentWeights) {
  const Graph g = tiny_graph();
  Engine a(g, 1), b(g, 2);
  Tensor input({1, 3, 16, 16}, 0.25f);
  const auto out_a = a.run(input);
  const auto out_b = b.run(input);
  EXPECT_FALSE(allclose(out_a[0], out_b[0]));
}

TEST(Engine, InputShapeMismatchThrows) {
  const Graph g = tiny_graph();
  Engine engine(g, 1);
  Tensor wrong({1, 3, 8, 8});
  EXPECT_THROW(engine.run(wrong), Error);
}

TEST(Engine, NodeOutputAccessibleAfterRun) {
  const Graph g = tiny_graph();
  Engine engine(g, 1);
  Tensor input({1, 3, 16, 16}, 0.1f);
  engine.run(input);
  EXPECT_EQ(engine.node_output(1).shape(), (Shape{1, 8, 8, 8}));
}

TEST(Engine, NodeOutputBeforeRunThrows) {
  const Graph g = tiny_graph();
  Engine engine(g, 1);
  EXPECT_THROW(engine.node_output(1), Error);
}

TEST(Engine, WeightAccessorsValidated) {
  const Graph g = tiny_graph();
  Engine engine(g, 1);
  EXPECT_NO_THROW(engine.weight(1));
  EXPECT_THROW(engine.weight(0), Error);   // input has no weights
  EXPECT_THROW(engine.weight(99), Error);  // out of range
}

TEST(Engine, ZeroWeightsGiveBiasOnlyOutput) {
  Graph g;
  const int in = g.input(1, 4, 4);
  const int c = g.conv(in, 2, 1, 1, 0, Act::kNone, "c");
  g.mark_output(c);
  Engine engine(g, 1);
  engine.weight(c).fill(0.0f);
  engine.bias(c).fill(1.25f);
  Tensor input({1, 1, 4, 4}, 0.7f);
  const auto out = engine.run(input);
  for (std::size_t i = 0; i < out[0].numel(); ++i)
    EXPECT_FLOAT_EQ(out[0][i], 1.25f);
}

TEST(Engine, MultipleOutputsReturned) {
  Graph g;
  const int in = g.input(1, 8, 8);
  const int a = g.conv(in, 2, 3, 1, 1, Act::kRelu, "a");
  const int b = g.conv(in, 3, 3, 2, 1, Act::kRelu, "b");
  g.mark_output(a);
  g.mark_output(b);
  Engine engine(g, 1);
  Tensor input({1, 1, 8, 8}, 0.5f);
  const auto outputs = engine.run(input);
  ASSERT_EQ(outputs.size(), 2u);
  EXPECT_EQ(outputs[0].shape(), (Shape{1, 2, 8, 8}));
  EXPECT_EQ(outputs[1].shape(), (Shape{1, 3, 4, 4}));
}

// --- compressed weight storage (sparsity / fp16) ---------------------------

// Conv layers above the default 4096-param pruning floor plus a
// GEMV-shaped linear head — the layer half storage exists for.
Graph compressed_graph() {
  Graph g;
  const int in = g.input(16, 16, 16);
  const int c1 = g.conv(in, 32, 3, 1, 1, Act::kLeakyRelu, "c1");
  const int c2 = g.conv(c1, 32, 3, 1, 1, Act::kLeakyRelu, "c2");
  const int pool = g.global_avg_pool(c2, "gap");
  const int fc = g.linear(pool, 128, Act::kNone, "fc");
  g.mark_output(fc);
  return g;
}

Tensor compressed_input(std::uint64_t seed) {
  Tensor input({1, 16, 16, 16});
  Rng rng(seed);
  input.init_uniform(rng, 0.0f, 1.0f);
  return input;
}

TEST(EngineSparse, PrepareSelectsSparseKernels) {
  Engine engine(compressed_graph(), 61);
  PlanRequest request;
  request.sparsity.scheme = SparsityScheme::kNm;  // 2:4, budget 0.5
  const ExecutionPlan& plan = engine.prepare(request);
  // Both big convs and the 4096-param linear head qualify; the planner
  // must route at least the convs onto the sparse kernels, and the
  // chosen storage is visible in the plan text.
  EXPECT_GE(plan.sparse_nodes, 2);
  EXPECT_EQ(plan.precision, Precision::kFp32);
  const std::string text = plan.to_text(engine.graph());
  EXPECT_NE(text.find("sparse="), std::string::npos);
  EXPECT_NE(text.find("/sparse"), std::string::npos);
}

TEST(EngineSparse, MatchesMaskedDenseBaselineBitClose) {
  // The sparse engine's output is defined as a dense run over
  // magnitude-masked weights: build exactly that by hand on a twin
  // engine with the same seed and compare.
  const Graph g = compressed_graph();
  Engine sparse(g, 62);
  PlanRequest request;
  request.sparsity.scheme = SparsityScheme::kNm;
  const ExecutionPlan& plan = sparse.prepare(request);
  ASSERT_GE(plan.sparse_nodes, 2);

  Engine masked(g, 62);
  for (int node = 0; node < g.node_count(); ++node) {
    const Node& nd = g.node(node);
    if (nd.kind != OpKind::kConv && nd.kind != OpKind::kLinear) continue;
    Tensor& w = masked.weight(node);
    const std::size_t rows = static_cast<std::size_t>(nd.out_c);
    const std::size_t cols = w.numel() / rows;
    const auto mask =
        magnitude_mask(w.data(), rows, cols, request.sparsity);
    apply_mask(w.data(), mask.data(), w.numel());
  }

  const Tensor input = compressed_input(63);
  const auto got = sparse.run(input);
  const auto want = masked.run(input);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t o = 0; o < want.size(); ++o)
    EXPECT_TRUE(allclose(got[o], want[o], 1e-4f)) << "output " << o;
}

TEST(EngineFp16, PrepareSelectsHalfStorageForLinearHead) {
  Engine engine(compressed_graph(), 64);
  PlanRequest request;
  request.precision = Precision::kFp16;
  const ExecutionPlan& plan = engine.prepare(request);
  // The GEMV-shaped head is weight-bandwidth-bound: it must move to
  // half storage. (Conv layers may legitimately stay dense.)
  EXPECT_GE(plan.fp16_nodes, 1);
  EXPECT_EQ(plan.precision, Precision::kFp16);
  const std::string text = plan.to_text(engine.graph());
  EXPECT_NE(text.find("fp16="), std::string::npos);

  // fp16 tolerance: half storage rounds every weight to 11 significant
  // bits (relative error ≤ 2^-11 ≈ 4.9e-4); over two 3×3 convs (K = 144
  // and 288) and the 32→128 head those roundings random-walk to ~1e-3
  // of the O(1) outputs. 2e-2 absolute against the fp64 interpreter
  // keeps a wide margin yet fails on a mis-widened or dropped weight.
  const Tensor input = compressed_input(65);
  const auto got = engine.run(input);
  const auto want = reference_run(engine, input);
  for (std::size_t o = 0; o < want.size(); ++o)
    EXPECT_TRUE(allclose(got[o], want[o], 2e-2f)) << "output " << o;
}

TEST(EngineSparse, RequestIsPerPrepareNotSticky) {
  Engine engine(compressed_graph(), 66);
  PlanRequest sparse_req;
  sparse_req.sparsity.scheme = SparsityScheme::kNm;
  EXPECT_GE(engine.prepare(sparse_req).sparse_nodes, 2);
  // A default request must fall back to dense kernels everywhere.
  const ExecutionPlan& dense_plan = engine.prepare({});
  EXPECT_EQ(dense_plan.sparse_nodes, 0);
  EXPECT_EQ(dense_plan.fp16_nodes, 0);
  const auto out = engine.run(compressed_input(67));
  EXPECT_EQ(out.size(), 1u);
}

TEST(EngineSparse, Int8PruningStaysOnQuantKernels) {
  // Under kInt8 the masks zero weights before quantization; the plan
  // must keep the quantized algo and report no sparse kernels.
  Engine engine(compressed_graph(), 68);
  std::vector<Tensor> frames;
  frames.push_back(compressed_input(69));
  frames.push_back(compressed_input(70));
  engine.calibrate(frames);

  PlanRequest request;
  request.precision = Precision::kInt8;
  request.sparsity.scheme = SparsityScheme::kNm;
  const ExecutionPlan& plan = engine.prepare(request);
  EXPECT_GT(plan.quant_nodes, 0);
  EXPECT_EQ(plan.sparse_nodes, 0);
  const auto out = engine.run(frames[0]);
  EXPECT_EQ(out.size(), 1u);
}

TEST(EngineSparse, WarmSparseFp16RePrepareAndRunAreHeapFree) {
  if (!alloc_counting_active())
    GTEST_SKIP() << "operator new hooks compiled out";
  Engine engine(compressed_graph(), 71);
  PlanRequest request;
  request.precision = Precision::kFp16;
  request.sparsity.scheme = SparsityScheme::kNm;
  engine.prepare(request);

  const Tensor input = compressed_input(72);
  (void)engine.run(input);  // warm: compressed panels, arena, outputs

  AllocGuard guard;
  for (int rep = 0; rep < 3; ++rep) {
    (void)engine.prepare(request);  // unchanged request: cache-hit path
    (void)engine.run(input);
  }
  guard.check_zero("warmed sparse/fp16 prepare()+run()");
}

TEST(Profile, CountsMatchGraph) {
  const Graph g = tiny_graph();
  const ModelProfile profile = profile_graph(g, "tiny");
  EXPECT_EQ(profile.model_name, "tiny");
  EXPECT_EQ(profile.input_h, 16);
  EXPECT_DOUBLE_EQ(profile.total_flops(), g.flops());
  EXPECT_EQ(profile.total_params(), g.param_count());
  EXPECT_EQ(profile.layers.size(),
            static_cast<std::size_t>(g.node_count()));
}

TEST(Profile, KernelCountExcludesInput) {
  const Graph g = tiny_graph();
  const ModelProfile profile = profile_graph(g, "tiny");
  EXPECT_EQ(profile.kernel_count(),
            static_cast<std::size_t>(g.node_count()) - 1);
}

TEST(Profile, BytesArePositiveForRealLayers) {
  const Graph g = tiny_graph();
  const ModelProfile profile = profile_graph(g, "tiny");
  for (std::size_t i = 1; i < profile.layers.size(); ++i) {
    EXPECT_GT(profile.layers[i].in_bytes, 0u) << profile.layers[i].name;
    EXPECT_GT(profile.layers[i].out_bytes, 0u) << profile.layers[i].name;
  }
}

}  // namespace
}  // namespace ocb::nn
