// Kernel planner and plan-cache contracts: key identity across every
// field, hit/miss/eviction accounting, thread-safety under concurrent
// planning (run under TSan via the `concurrency` label), candidate
// selection and config gating, Engine::prepare() observability, the
// fold of precision into PlanRequest, and the AllocGuard proof that a
// cache-hit re-prepare plus run() stays heap-free on a warmed engine.

#include "nn/planner.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/alloc_guard.hpp"
#include "core/rng.hpp"
#include "nn/engine.hpp"
#include "nn/reference.hpp"
#include "tensor/simd.hpp"
#include "tensor/winograd.hpp"

namespace ocb::nn {
namespace {

ConvPlanKey base_key() {
  ConvPlanKey key;
  key.in_c = 16;
  key.in_h = 32;
  key.in_w = 32;
  key.kernel = 3;
  key.stride = 1;
  key.pad = 1;
  key.out_c = 32;
  key.batch = 1;
  key.precision = Precision::kFp32;
  key.level = simd::Level::kScalar;
  return key;
}

// --- PlanCache -------------------------------------------------------------

TEST(PlanCache, KeyCoversEveryPlanInput) {
  PlanCache cache(64);
  const ConvPlanKey key = base_key();
  cache.insert(key, ConvPlan{ConvAlgo::kWinograd, WeightStorage::kDense,
                             1.0f, 1.0, 2.0});

  ConvPlan out;
  ASSERT_TRUE(cache.lookup(key, &out));
  EXPECT_EQ(out.algo, ConvAlgo::kWinograd);
  EXPECT_DOUBLE_EQ(out.est_ms, 1.0);
  EXPECT_DOUBLE_EQ(out.est_im2col_ms, 2.0);

  // Perturbing any single field must miss: a plan may only ever be
  // replayed for the exact (shape, batch, precision, SIMD) it was
  // costed for.
  const auto expect_miss = [&](ConvPlanKey probe, const char* field) {
    ConvPlan ignored;
    EXPECT_FALSE(cache.lookup(probe, &ignored)) << field;
  };
  ConvPlanKey k = key;
  k.in_c = 17;
  expect_miss(k, "in_c");
  k = key;
  k.in_h = 33;
  expect_miss(k, "in_h");
  k = key;
  k.in_w = 31;
  expect_miss(k, "in_w");
  k = key;
  k.kernel = 1;
  expect_miss(k, "kernel");
  k = key;
  k.stride = 2;
  expect_miss(k, "stride");
  k = key;
  k.pad = 0;
  expect_miss(k, "pad");
  k = key;
  k.out_c = 8;
  expect_miss(k, "out_c");
  k = key;
  k.batch = 4;
  expect_miss(k, "batch");
  k = key;
  k.precision = Precision::kInt8;
  expect_miss(k, "precision");
  k = key;
  k.level = simd::Level::kAvx2;
  expect_miss(k, "level");
  k = key;
  k.sparsity_pct = 50;
  expect_miss(k, "sparsity_pct");
}

TEST(PlanCache, CountsHitsMissesInsertions) {
  PlanCache cache(8);
  const ConvPlanKey key = base_key();
  ConvPlan plan;
  EXPECT_FALSE(cache.lookup(key, &plan));
  cache.insert(key, ConvPlan{});
  EXPECT_TRUE(cache.lookup(key, &plan));
  EXPECT_TRUE(cache.lookup(key, &plan));

  const PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.size, 1u);
  EXPECT_EQ(stats.capacity, 8u);
}

TEST(PlanCache, ReinsertRefreshesWithoutGrowth) {
  PlanCache cache(4);
  const ConvPlanKey key = base_key();
  cache.insert(key, ConvPlan{ConvAlgo::kIm2colFused, WeightStorage::kDense,
                             1.0f, 3.0, 3.0});
  cache.insert(key, ConvPlan{ConvAlgo::kWinograd, WeightStorage::kDense,
                             1.0f, 1.5, 3.0});
  ConvPlan out;
  ASSERT_TRUE(cache.lookup(key, &out));
  EXPECT_EQ(out.algo, ConvAlgo::kWinograd);
  EXPECT_EQ(cache.stats().size, 1u);
}

TEST(PlanCache, EvictsFifoAtCapacity) {
  PlanCache cache(4);
  for (int i = 0; i < 10; ++i) {
    ConvPlanKey key = base_key();
    key.in_c = 1 + i;
    cache.insert(key, ConvPlan{});
  }
  const PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.size, 4u);
  EXPECT_EQ(stats.capacity, 4u);
  EXPECT_EQ(stats.insertions, 10u);
  EXPECT_EQ(stats.evictions, 6u);

  // The four newest keys survive; the oldest six are gone.
  ConvPlan plan;
  for (int i = 0; i < 10; ++i) {
    ConvPlanKey key = base_key();
    key.in_c = 1 + i;
    EXPECT_EQ(cache.lookup(key, &plan), i >= 6) << "i=" << i;
  }
}

TEST(PlanCache, ClearResetsContentsAndStats) {
  PlanCache cache(4);
  cache.insert(base_key(), ConvPlan{});
  cache.clear();
  const PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.size, 0u);
  EXPECT_EQ(stats.insertions, 0u);
  EXPECT_EQ(stats.capacity, 4u);
  ConvPlan plan;
  EXPECT_FALSE(cache.lookup(base_key(), &plan));
}

TEST(PlanCache, ConcurrentPlanningIsRaceFree) {
  // 4 threads plan overlapping keys against one small shared cache so
  // lookups, insertions and evictions interleave. TSan (ctest -L
  // concurrency on the sanitizer build) checks the locking; the
  // invariant checked here is that every thread always reads a
  // *coherent* plan equal to a fresh uncached computation.
  PlanCache cache(16);
  PlannerConfig config;
  config.cache = &cache;

  std::vector<std::thread> threads;
  std::vector<int> bad_plans(4, 0);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(100 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < 500; ++i) {
        ConvPlanKey key = base_key();
        key.in_c = 4 << rng.uniform_int(0, 2);
        key.out_c = 4 << rng.uniform_int(0, 2);
        key.in_h = key.in_w = 8 << rng.uniform_int(0, 2);
        key.kernel = rng.bernoulli(0.5) ? 3 : 1;
        key.pad = key.kernel / 2;
        const ConvPlan cached = plan_conv(key, config);

        PlannerConfig uncached = config;
        uncached.use_cache = false;
        const ConvPlan fresh = plan_conv(key, uncached);
        if (cached.algo != fresh.algo) ++bad_plans[static_cast<std::size_t>(t)];
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < 4; ++t) EXPECT_EQ(bad_plans[static_cast<std::size_t>(t)], 0);
  const PlanCache::Stats stats = cache.stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.insertions, 0u);
  EXPECT_LE(stats.size, 16u);
}

// --- plan_conv candidate selection -----------------------------------------

TEST(Planner, PicksDirectForPointwiseConv) {
  ConvPlanKey key = base_key();
  key.kernel = 1;
  key.pad = 0;
  PlannerConfig config;
  config.use_cache = false;
  const ConvPlan plan = plan_conv(key, config);
  EXPECT_EQ(plan.algo, ConvAlgo::kDirectGemm);
  EXPECT_LE(plan.est_ms, plan.est_im2col_ms);
}

TEST(Planner, StridedConvStaysOnIm2colStripes) {
  // No Winograd and no direct path for a strided 3×3: the one im2col
  // lowering keeps the node, at every batch.
  ConvPlanKey key = base_key();
  key.stride = 2;
  PlannerConfig config;
  config.use_cache = false;
  EXPECT_FALSE(winograd_applicable(key));
  for (int batch : {1, 4}) {
    key.batch = batch;
    const ConvPlan plan = plan_conv(key, config);
    EXPECT_EQ(plan.algo, ConvAlgo::kIm2colFused);
    EXPECT_DOUBLE_EQ(plan.est_ms, plan.est_im2col_ms);
  }
}

TEST(Planner, BatchSpanningStripesShareOneWeightPass) {
  // The stripes run over the whole batch's columns, so four small maps
  // cost less than four separate single-image convs: the GEMM's
  // per-dispatch overhead and column-tile ramp are paid once.
  ConvPlanKey key = base_key();
  key.in_h = key.in_w = 8;
  key.stride = 2;
  key.level = simd::Level::kAvx2;
  const KernelCostModel model = KernelCostModel::defaults(key.level);
  const double one = est_im2col_ms(key, model);
  key.batch = 4;
  EXPECT_LT(est_im2col_ms(key, model), 4.0 * one);
}

TEST(Planner, PicksWinogradWhenTransformsAreCheap) {
  // A cost model with free transforms and expensive GEMM: the 2.25×
  // multiply reduction must win for any reasonably-sized 3×3 layer.
  ConvPlanKey key = base_key();
  key.in_c = 32;
  key.out_c = 32;
  PlannerConfig config;
  config.use_cache = false;
  config.cost = KernelCostModel{1.0, 2.0, 100.0, 1000.0, 0.0};
  const ConvPlan plan = plan_conv(key, config);
  EXPECT_EQ(plan.algo, ConvAlgo::kWinograd);
  EXPECT_LT(plan.est_ms, plan.est_im2col_ms);
}

TEST(Planner, DisabledCandidatesNeverWin) {
  ConvPlanKey key = base_key();
  PlannerConfig config;
  config.use_cache = false;
  config.enable_winograd = false;
  config.cost = KernelCostModel{1.0, 2.0, 100.0, 1000.0, 0.0};
  EXPECT_EQ(plan_conv(key, config).algo, ConvAlgo::kIm2colFused);

  key.kernel = 1;
  key.pad = 0;
  config = PlannerConfig{};
  config.use_cache = false;
  config.enable_direct = false;
  EXPECT_EQ(plan_conv(key, config).algo, ConvAlgo::kIm2colFused);
}

TEST(Planner, Int8PrecisionPlansQuantizedPath) {
  ConvPlanKey key = base_key();
  key.precision = Precision::kInt8;
  PlannerConfig config;
  config.use_cache = false;
  config.enable_fp32_fallback = false;
  EXPECT_EQ(plan_conv(key, config).algo, ConvAlgo::kIm2colQuantFused);
}

TEST(Planner, RestrictedEnumerationNeverPollutesCache) {
  PlanCache cache(16);
  ConvPlanKey key = base_key();

  // A restricted candidate set must not insert: a later full
  // enumeration would replay the handicapped decision.
  PlannerConfig restricted;
  restricted.cache = &cache;
  restricted.enable_winograd = false;
  (void)plan_conv(key, restricted);
  EXPECT_EQ(cache.stats().insertions, 0u);

  // A custom cost model only caches into an explicitly-private cache.
  PlannerConfig custom;
  custom.cost = KernelCostModel{1.0, 2.0, 100.0, 1000.0, 0.0};
  custom.cache = &cache;
  (void)plan_conv(key, custom);
  EXPECT_EQ(cache.stats().insertions, 1u);
}

TEST(Planner, CostModelDefaultsAndRoofline) {
  EXPECT_TRUE(KernelCostModel::defaults(simd::Level::kScalar).valid());
  EXPECT_TRUE(KernelCostModel::defaults(simd::Level::kAvx2).valid());
  const KernelCostModel device =
      KernelCostModel::from_roofline(400.0, 30.0, 10.0, 2.0);
  EXPECT_TRUE(device.valid());
  EXPECT_DOUBLE_EQ(device.gemm_gflops, 400.0);
  EXPECT_DOUBLE_EQ(device.int8_gops, 800.0);
  EXPECT_DOUBLE_EQ(device.gemm_overhead_us, 10.0);
  // Bigger layers must cost more under any valid model.
  ConvPlanKey small = base_key();
  ConvPlanKey big = base_key();
  big.in_c *= 4;
  big.out_c *= 4;
  EXPECT_GT(est_im2col_ms(big, device), est_im2col_ms(small, device));
  for (const int tile : winograd::kTiles)
    EXPECT_GT(est_winograd_ms(big, device, tile),
              est_winograd_ms(small, device, tile));
}

// --- compressed-storage candidates -----------------------------------------

// A GEMV-shaped pseudo-conv key, as Engine::prepare() files linear
// layers: the whole reduction in in_c, one output column.
ConvPlanKey gemv_key(int in_features, int out_features) {
  ConvPlanKey key;
  key.in_c = in_features;
  key.in_h = 1;
  key.in_w = 1;
  key.kernel = 1;
  key.stride = 1;
  key.pad = 0;
  key.out_c = out_features;
  key.batch = 1;
  key.precision = Precision::kFp32;
  key.level = simd::Level::kAvx2;  // pin the model: host-independent
  return key;
}

TEST(Planner, Fp16PicksHalfStorageOnGemvShapes) {
  // A big linear layer at n == 1 is weight-bandwidth-bound: halving
  // the panel bytes must beat every dense candidate.
  ConvPlanKey key = gemv_key(4096, 512);
  key.precision = Precision::kFp16;
  PlannerConfig config;
  config.use_cache = false;
  const ConvPlan plan = plan_conv(key, config);
  EXPECT_EQ(plan.storage, WeightStorage::kHalf);
  EXPECT_EQ(plan.algo, ConvAlgo::kDirectGemm);
  EXPECT_FLOAT_EQ(plan.density, 1.0f);
  EXPECT_LT(plan.est_ms, plan.est_im2col_ms);
}

TEST(Planner, SparsityKeyEnablesSparseStorage) {
  // 50% pruning on a conv-heavy layer: half the FLOPs at a modest
  // indirection derate beats the dense GEMM.
  ConvPlanKey key = base_key();
  key.level = simd::Level::kAvx2;
  key.sparsity_pct = 50;
  PlannerConfig config;
  config.use_cache = false;
  config.enable_winograd = false;  // isolate sparse-vs-dense GEMM
  const ConvPlan plan = plan_conv(key, config);
  EXPECT_EQ(plan.storage, WeightStorage::kSparse);
  EXPECT_EQ(plan.algo, ConvAlgo::kIm2colFused);
  EXPECT_FLOAT_EQ(plan.density, 0.5f);
  EXPECT_LT(plan.est_ms, plan.est_im2col_ms);
}

TEST(Planner, Fp16PlusSparsityPicksSparseHalfWhenBandwidthBound) {
  // On a bandwidth-starved device model (2 GB/s weight streaming, the
  // edge-accelerator regime) the traffic term dominates both compressed
  // candidates, and sparse-half — fewest bytes per pass — must win.
  // On the compute-rich AVX2 default the same key picks plain kSparse:
  // the combination's widening derate outweighs bytes it never waits on.
  ConvPlanKey key = gemv_key(4096, 512);
  key.precision = Precision::kFp16;
  key.sparsity_pct = 50;
  PlannerConfig config;
  config.use_cache = false;
  config.cost = KernelCostModel::from_roofline(22.0, 2.0, 1.5, 2.0);
  const ConvPlan plan = plan_conv(key, config);
  EXPECT_EQ(plan.storage, WeightStorage::kSparseHalf);
  EXPECT_FLOAT_EQ(plan.density, 0.5f);

  PlannerConfig defaults;
  defaults.use_cache = false;
  const ConvPlan avx2_plan = plan_conv(key, defaults);
  EXPECT_EQ(avx2_plan.storage, WeightStorage::kSparse);
}

TEST(Planner, DenseFp32ConvNeverGetsCompressedStorage) {
  // Without a sparsity key or kFp16 the compressed candidates are not
  // even enumerated; conv-heavy fp16 shapes also stay dense (half
  // storage only pays off where weight traffic dominates).
  ConvPlanKey key = base_key();
  key.level = simd::Level::kAvx2;
  PlannerConfig config;
  config.use_cache = false;
  EXPECT_EQ(plan_conv(key, config).storage, WeightStorage::kDense);

  key.precision = Precision::kFp16;
  const ConvPlan fp16_plan = plan_conv(key, config);
  EXPECT_EQ(fp16_plan.storage, WeightStorage::kDense);
  EXPECT_EQ(fp16_plan.algo, ConvAlgo::kWinograd);
}

TEST(Planner, Int8IgnoresSparsityKey) {
  // Under kInt8 the quantized kernels stay dense — pruning only zeroes
  // weights before quantization (engine-side); the plan must not pick
  // a sparse kernel it cannot run.
  ConvPlanKey key = base_key();
  key.level = simd::Level::kAvx2;
  key.precision = Precision::kInt8;
  key.sparsity_pct = 50;
  PlannerConfig config;
  config.use_cache = false;
  config.enable_fp32_fallback = false;
  const ConvPlan plan = plan_conv(key, config);
  EXPECT_EQ(plan.algo, ConvAlgo::kIm2colQuantFused);
  EXPECT_EQ(plan.storage, WeightStorage::kDense);
}

// --- Engine integration ----------------------------------------------------

Graph planner_graph() {
  Graph g;
  const int in = g.input(3, 32, 32);
  const int c1 = g.conv(in, 16, 3, 1, 1, Act::kLeakyRelu, "c1");
  const int c2 = g.conv(c1, 16, 3, 1, 1, Act::kLeakyRelu, "c2");
  const int head = g.conv(c2, 4, 1, 1, 0, Act::kNone, "head");
  g.mark_output(head);
  return g;
}

TEST(EnginePrepare, ReportsPlanAndCacheTraffic) {
  Engine engine(planner_graph(), 11);
  // Baseline (constructor) plan: dense stripes everywhere, no planner.
  EXPECT_EQ(engine.plan().conv_nodes, 3);
  EXPECT_EQ(engine.plan().fused_nodes, 3);

  PlanRequest request;
  request.planner.cache = nullptr;  // global
  const ExecutionPlan& plan = engine.prepare(request);
  EXPECT_EQ(plan.conv_nodes, 3);
  EXPECT_EQ(plan.winograd_nodes + plan.direct_nodes + plan.fused_nodes, 3);
  EXPECT_EQ(plan.quant_nodes, 0);
  EXPECT_EQ(plan.precision, Precision::kFp32);
  EXPECT_EQ(plan.cache_hits + plan.cache_misses, 3u);
  EXPECT_FALSE(plan.to_text(engine.graph()).empty());

  // A second engine over the same graph replays the cached decisions.
  Engine twin(planner_graph(), 12);
  const ExecutionPlan& twin_plan = twin.prepare(request);
  EXPECT_EQ(twin_plan.cache_hits, 3u);
  EXPECT_EQ(twin_plan.cache_misses, 0u);
  for (std::size_t i = 0; i < plan.nodes.size(); ++i)
    EXPECT_EQ(twin_plan.nodes[i].algo, plan.nodes[i].algo) << "node " << i;
}

TEST(EnginePrepare, PlannedEngineMatchesBaselineNumerically) {
  Tensor input({1, 3, 32, 32});
  Rng rng(9);
  input.init_uniform(rng, 0.0f, 1.0f);

  Engine planned(planner_graph(), 21);
  // The oracle is the fp64 interpreter over the same master weights.
  const auto ref = reference_run(planned, input);

  // Free transforms spread the candidates: the 16→16 3×3 goes Winograd
  // and the head goes direct. (The 3→16 stem legitimately stays on
  // im2col — a reduction dimension of 3 starves the GEMM ramp more
  // than the 2.25× multiply reduction saves.)
  PlanRequest request;
  request.planner.cost = KernelCostModel{1.0, 2.0, 100.0, 1000.0, 0.0};
  const ExecutionPlan& plan = planned.prepare(request);
  EXPECT_GE(plan.winograd_nodes, 1);
  EXPECT_EQ(plan.direct_nodes, 1);
  const auto got = planned.run(input);

  // fp32 tolerance: the engine sums each output in fp32 (K ≤ 144 here)
  // in its kernels' own order, and Winograd's transforms scale the
  // rounding by their constants; on O(1) activations that stays near
  // 1e-6. 1e-4 absolute leaves two orders of magnitude of margin while
  // still catching any wrong tap, row or epilogue.
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t o = 0; o < ref.size(); ++o) {
    ASSERT_EQ(got[o].shape(), ref[o].shape());
    EXPECT_TRUE(allclose(got[o], ref[o], 1e-4f)) << "output " << o;
  }
}

TEST(EnginePrepare, PrecisionIsPerRequestNotStickyState) {
  Engine engine(planner_graph(), 31);
  std::vector<Tensor> frames;
  Rng rng(13);
  for (int i = 0; i < 2; ++i) {
    Tensor t({1, 3, 32, 32});
    t.init_uniform(rng, 0.0f, 1.0f);
    frames.push_back(std::move(t));
  }
  engine.calibrate(frames);

  engine.prepare({.precision = Precision::kInt8});
  EXPECT_EQ(engine.precision(), Precision::kInt8);
  EXPECT_GT(engine.plan().quant_nodes, 0);

  // A default request carries kFp32 — the engine must not leak the
  // previous request's precision into this plan.
  engine.prepare({});
  EXPECT_EQ(engine.precision(), Precision::kFp32);
  EXPECT_EQ(engine.plan().quant_nodes, 0);
  const auto out = engine.run(frames[0]);
  EXPECT_EQ(out.size(), 1u);
}

TEST(EnginePrepare, WarmRePrepareAndRunAreHeapFree) {
  if (!alloc_counting_active())
    GTEST_SKIP() << "operator new hooks compiled out";
  Engine engine(planner_graph(), 41);
  PlanRequest request;
  request.max_batch = 2;
  engine.prepare(request);

  Tensor input({1, 3, 32, 32}, 0.5f);
  (void)engine.run(input);  // warm: packs, arena plan, output slots

  AllocGuard guard;
  for (int rep = 0; rep < 3; ++rep) {
    (void)engine.prepare(request);  // cache-hit replan: no state change
    (void)engine.run(input);
  }
  guard.check_zero("warmed prepare()+run() with an unchanged PlanRequest");
}

}  // namespace
}  // namespace ocb::nn
