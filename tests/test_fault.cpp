// Deterministic fault-replay harness (DESIGN.md §14).
//
// The resilience layer's contract, end to end: the same seed and
// FaultPlan reproduce bit-identical corruption (replay), the checksum
// layer detects it (no silent corruption of packed weights), recovery
// restores bit-exact clean outputs (re-pack from master weights), the
// run-path verify cadence self-heals without an explicit probe, and
// the serving quarantine walks inject → detect → quarantine → reload
// → re-admit. Runs under ASan/TSan in CI (labels analysis;concurrency).
#include "fault/fault.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "core/alloc_guard.hpp"
#include "core/crc32.hpp"
#include "core/rng.hpp"
#include "devsim/device.hpp"
#include "nn/engine.hpp"
#include "nn/ops.hpp"
#include "nn/prune.hpp"
#include "runtime/model_server.hpp"
#include "tensor/fault_hook.hpp"
#include "tensor/gemm.hpp"
#include "tensor/sgemm_sparse.hpp"

namespace ocb {
namespace {

// ------------------------------------------------------------- crc32

TEST(Crc32, KnownVector) {
  // The canonical CRC-32 (IEEE 802.3) check value.
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
}

TEST(Crc32, EmptyBufferIsZero) { EXPECT_EQ(crc32(nullptr, 0), 0u); }

TEST(Crc32, SingleBitFlipChangesChecksum) {
  std::vector<float> data(1024, 1.25f);
  const std::uint32_t clean = crc32(data.data(), data.size() * sizeof(float));
  std::uint32_t bits;
  std::memcpy(&bits, &data[700], sizeof(bits));
  bits ^= 1u << 13;
  std::memcpy(&data[700], &bits, sizeof(bits));
  EXPECT_NE(crc32(data.data(), data.size() * sizeof(float)), clean);
}

TEST(Crc32, ChainingEqualsOneShot) {
  const char buf[] = "the quick brown fox jumps over the lazy dog";
  const std::size_t n = sizeof(buf) - 1;
  const std::uint32_t one_shot = crc32(buf, n);
  for (std::size_t split = 0; split <= n; ++split) {
    const std::uint32_t head = crc32(buf, split);
    EXPECT_EQ(crc32(buf + split, n - split, head), one_shot) << split;
  }
}

// ------------------------------------------------------- panel CRCs

TEST(PanelChecksum, DensePackDetectsMutation) {
  Rng rng(1);
  std::vector<float> a(48 * 32);
  for (float& v : a) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  PackedA packed(a.data(), 48, 32);
  const std::uint32_t clean = packed.checksum();
  packed.mutable_data()[17] += 1.0f;
  EXPECT_NE(packed.checksum(), clean);
}

TEST(PanelChecksum, SparseAndHalfPacksDetectMutation) {
  Rng rng(2);
  const std::size_t m = 24, k = 16;
  std::vector<float> a(m * k);
  for (float& v : a) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  std::vector<std::uint8_t> mask(m * k, 1);
  for (std::size_t i = 0; i < mask.size(); i += 3) mask[i] = 0;

  PackedSparseA sparse;
  sparse.pack(a.data(), m, k, mask.data());
  const std::uint32_t sparse_clean = sparse.checksum();
  sparse.mutable_values()[5] += 0.5f;
  EXPECT_NE(sparse.checksum(), sparse_clean);

  PackedHalfA half;
  half.pack(a.data(), m, k, HalfFormat::kFp16);
  const std::uint32_t half_clean = half.checksum();
  half.mutable_data()[9] ^= 0x0400;
  EXPECT_NE(half.checksum(), half_clean);
}

// ------------------------------------------------------ fault plans

nn::Graph tiny_graph() {
  nn::Graph g;
  const int in = g.input(3, 16, 16);
  const int c1 = g.conv(in, 8, 3, 2, 1, nn::Act::kSilu, "c1");
  const int c2 = g.conv(c1, 8, 3, 1, 1, nn::Act::kSilu, "c2");
  const int add = g.add(c1, c2, "res");
  const int head = g.conv(add, 4, 1, 1, 0, nn::Act::kSigmoid, "head");
  g.mark_output(head);
  return g;
}

bool bit_identical(const std::vector<Tensor>& a,
                   const std::vector<Tensor>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t o = 0; o < a.size(); ++o) {
    if (a[o].numel() != b[o].numel()) return false;
    if (std::memcmp(a[o].data(), b[o].data(),
                    a[o].numel() * sizeof(float)) != 0)
      return false;
  }
  return true;
}

TEST(FaultInjector, RejectsInvalidPlans) {
  fault::FaultPlan plan;
  plan.weight_flip_prob = 1.5;
  EXPECT_THROW(fault::FaultInjector{plan}, Error);
  plan = {};
  plan.weight_flip_bit = 32;
  EXPECT_THROW(fault::FaultInjector{plan}, Error);
  plan = {};
  plan.stuck_lane = 8;
  EXPECT_THROW(fault::FaultInjector{plan}, Error);
}

TEST(FaultInjector, ReplayIsBitIdentical) {
  // The core replay property: the same plan applied to two identical
  // engines produces identical corruption — equal panel checksums,
  // equal flip counts, bit-identical corrupted outputs.
  const nn::Graph g = tiny_graph();
  nn::Engine a(g, 7), b(g, 7);
  Tensor input({1, 3, 16, 16});
  Rng in_rng(3);
  input.init_uniform(in_rng, 0.0f, 1.0f);

  fault::FaultPlan plan;
  plan.seed = 99;
  plan.weight_flip_prob = 1e-3;
  fault::FaultInjector inj_a(plan), inj_b(plan);
  const std::size_t flips_a = inj_a.corrupt_engine(a);
  const std::size_t flips_b = inj_b.corrupt_engine(b);
  EXPECT_GT(flips_a, 0u);
  EXPECT_EQ(flips_a, flips_b);
  for (int node = 0; node < g.node_count(); ++node) {
    if (g.node(node).kind != nn::OpKind::kConv &&
        g.node(node).kind != nn::OpKind::kLinear)
      continue;
    EXPECT_EQ(a.packed_panels(node).checksum(),
              b.packed_panels(node).checksum());
  }
  EXPECT_TRUE(bit_identical(a.run(input), b.run(input)));
}

TEST(FaultInjector, DifferentSeedsDiverge) {
  const nn::Graph g = tiny_graph();
  nn::Engine a(g, 7), b(g, 7);
  fault::FaultPlan plan;
  plan.weight_flip_prob = 1e-2;
  plan.seed = 1;
  fault::FaultInjector inj_a(plan);
  plan.seed = 2;
  fault::FaultInjector inj_b(plan);
  inj_a.corrupt_engine(a);
  inj_b.corrupt_engine(b);
  bool any_diff = false;
  for (int node = 0; node < g.node_count() && !any_diff; ++node)
    if (g.node(node).kind == nn::OpKind::kConv)
      any_diff = a.packed_panels(node).checksum() !=
                 b.packed_panels(node).checksum();
  EXPECT_TRUE(any_diff);
}

TEST(FaultInjector, FixedBitPlanFlipsOnlyThatBit) {
  std::vector<float> data(4096, 1.0f);
  fault::FaultPlan plan;
  plan.weight_flip_prob = 0.05;
  plan.weight_flip_bit = 23;  // lowest exponent bit: 1.0 -> 0.5
  fault::FaultInjector injector(plan);
  const std::size_t flips = injector.flip_weights(data.data(), data.size());
  ASSERT_GT(flips, 0u);
  std::size_t changed = 0;
  for (const float v : data) {
    if (v == 1.0f) continue;
    EXPECT_EQ(v, 0.5f);  // only bit 23 may have moved
    ++changed;
  }
  EXPECT_EQ(changed, flips);
}

TEST(FaultInjector, ActivationFlipsAreSeededAndCounted) {
  std::vector<float> a(2048, 0.5f), b(2048, 0.5f);
  fault::FaultPlan plan;
  plan.seed = 5;
  plan.activation_flip_prob = 1e-2;
  fault::FaultInjector inj_a(plan), inj_b(plan);
  const std::size_t flips = inj_a.flip_activations(a.data(), a.size());
  EXPECT_GT(flips, 0u);
  EXPECT_EQ(inj_b.flip_activations(b.data(), b.size()), flips);
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
}

// ------------------------------------------- detect / recover / heal

TEST(Resilience, DetectionFiresAndRecoveryIsBitExact) {
  const nn::Graph g = tiny_graph();
  nn::Engine engine(g, 11);
  Tensor input({1, 3, 16, 16});
  Rng in_rng(4);
  input.init_uniform(in_rng, 0.0f, 1.0f);
  const std::vector<Tensor> clean = engine.run(input);
  ASSERT_EQ(engine.verify_weights(/*recover=*/false), 0);

  fault::FaultPlan plan;
  plan.weight_flip_prob = 1e-3;
  fault::FaultInjector injector(plan);
  ASSERT_GT(injector.corrupt_engine(engine), 0u);

  // Detection-only pass reports the damage without touching panels...
  const int failed = engine.verify_weights(/*recover=*/false);
  EXPECT_GT(failed, 0);
  EXPECT_EQ(engine.verify_weights(/*recover=*/false), failed);
  const auto& report = engine.integrity_report();
  EXPECT_GT(report.mismatches, 0u);
  EXPECT_EQ(report.repacks, 0u);

  // ...recovery re-packs from the master weights: checksums green and
  // outputs bit-identical to the pre-fault run.
  EXPECT_GT(engine.verify_weights(/*recover=*/true), 0);
  EXPECT_EQ(engine.verify_weights(/*recover=*/false), 0);
  EXPECT_GT(engine.integrity_report().repacks, 0u);
  EXPECT_TRUE(bit_identical(engine.run(input), clean));
}

TEST(Resilience, RunPathCadenceSelfHeals) {
  // With integrity.verify_every = 1 the engine checks one node per
  // frame round-robin; after node_count frames every corrupted panel
  // has been visited and re-packed — no explicit verify call needed.
  const nn::Graph g = tiny_graph();
  nn::Engine engine(g, 13);
  nn::PlanRequest request;
  request.integrity.verify_every = 1;
  engine.prepare(request);
  Tensor input({1, 3, 16, 16});
  Rng in_rng(5);
  input.init_uniform(in_rng, 0.0f, 1.0f);
  const std::vector<Tensor> clean = engine.run(input);

  fault::FaultPlan plan;
  plan.weight_flip_prob = 1e-3;
  fault::FaultInjector injector(plan);
  ASSERT_GT(injector.corrupt_engine(engine), 0u);

  for (int frame = 0; frame < g.node_count(); ++frame) engine.run(input);
  EXPECT_EQ(engine.verify_weights(/*recover=*/false), 0);
  EXPECT_TRUE(bit_identical(engine.run(input), clean));
}

TEST(Resilience, DeconvPanelFlipIsCaughtByATickAndRepackedBitExact) {
  // A deconv's panels hold its lowered phase matrix, packed from the
  // master weights like a conv's: corrupt_engine reaches them, the next
  // verify tick detects the flip, and the repack restores every panel
  // bit and the clean output.
  nn::Graph g;
  const int in = g.input(5, 6, 6);
  const int up = g.deconv(in, 7, nn::Act::kRelu, "up");
  g.mark_output(up);
  nn::Engine engine(g, 29);
  nn::PlanRequest request;
  request.integrity.verify_every = 1;
  engine.prepare(request);
  Tensor input({1, 5, 6, 6});
  Rng in_rng(6);
  input.init_uniform(in_rng, -1.0f, 1.0f);
  const std::vector<Tensor> clean = engine.run(input);
  const PackedA& panels = engine.packed_panels(up);
  const std::vector<float> pristine(panels.data(),
                                    panels.data() + panels.stored_floats());

  fault::FaultPlan plan;
  plan.weight_flip_prob = 1e-2;
  fault::FaultInjector injector(plan);
  ASSERT_GT(injector.corrupt_engine(engine), 0u);
  ASSERT_NE(panels.checksum(), engine.recorded_checksum(up));

  const std::uint64_t mismatches = engine.integrity_report().mismatches;
  EXPECT_TRUE(bit_identical(engine.run(input), clean));
  EXPECT_EQ(engine.integrity_report().mismatches, mismatches + 1);
  EXPECT_EQ(std::memcmp(panels.data(), pristine.data(),
                        pristine.size() * sizeof(float)),
            0);
}

TEST(Resilience, VerifyTickIsHeapFreeWhenWarm) {
  const nn::Graph g = tiny_graph();
  nn::Engine engine(g, 17);
  nn::PlanRequest request;
  request.integrity.verify_every = 1;  // a CRC check on every frame
  engine.prepare(request);
  Tensor input({1, 3, 16, 16}, 0.25f);
  engine.run(input);  // warm buffers
  AllocGuard guard;
  engine.run(input);
  EXPECT_EQ(guard.allocations(), 0u);
}

TEST(Resilience, IntegrityConfigDoesNotInvalidatePlans) {
  // Changing only the verify cadence is config, not a plan change: it
  // must not trigger the allocating prepare() rebuild.
  const nn::Graph g = tiny_graph();
  nn::Engine engine(g, 19);
  nn::PlanRequest request;
  engine.prepare(request);
  Tensor input({1, 3, 16, 16}, 0.25f);
  engine.run(input);
  AllocGuard guard;
  request.integrity.verify_every = 2;
  engine.prepare(request);
  EXPECT_EQ(guard.allocations(), 0u);
}

TEST(Resilience, RecordedChecksumRejectsOutOfRangeNodes) {
  const nn::Graph g = tiny_graph();
  const nn::Engine engine(g, 23);
  EXPECT_THROW(engine.recorded_checksum(-1), Error);
  EXPECT_THROW(engine.recorded_checksum(g.node_count()), Error);
}

TEST(Resilience, ParallelConstructionMatchesSerialInitAndPack) {
  // The constructor initialises and packs nodes across the pool. Every
  // node's master weights must still be the serial per-node draw
  // Rng(hash_combine(seed, i)) + init_he, every recorded CRC that of a
  // fresh pack of the node's GEMM matrix, and two engines must agree.
  nn::Graph g;
  int x = g.input(3, 12, 12);
  for (int i = 0; i < 9; ++i)
    x = g.conv(x, 6 + i, i % 2 == 0 ? 3 : 1, 1, i % 2 == 0 ? 1 : 0,
               nn::Act::kRelu, "c" + std::to_string(i));
  const int up = g.deconv(x, 5, nn::Act::kNone, "up");
  const int pool = g.global_avg_pool(up, "gap");
  g.mark_output(g.linear(pool, 7, nn::Act::kNone, "fc"));
  const std::uint64_t seed = 41;
  nn::Engine a(g, seed), b(g, seed);

  int checked = 0;
  for (int i = 0; i < g.node_count(); ++i) {
    const nn::Node& nd = g.node(i);
    const Shape ws = g.weight_shape(i);
    if (ws.numel() == 0) continue;
    SCOPED_TRACE(nd.name);
    Rng rng(hash_combine(seed, static_cast<std::uint64_t>(i)));
    Tensor want(ws);
    want.init_he(rng, static_cast<int>(ws.numel()) / g.shape(i).c);
    ASSERT_EQ(std::memcmp(a.weight(i).data(), want.data(),
                          want.numel() * sizeof(float)),
              0);
    ASSERT_EQ(std::memcmp(b.weight(i).data(), want.data(),
                          want.numel() * sizeof(float)),
              0);

    // The node's GEMM matrix: a deconv packs its sub-pixel phase
    // matrix, a conv or linear layer its weights as [out × rest].
    const int in_c = g.shape(nd.inputs[0]).c;
    std::vector<float> matrix(want.data(), want.data() + want.numel());
    std::size_t rows = static_cast<std::size_t>(nd.out_c);
    if (nd.kind == nn::OpKind::kDeconv) {
      nn::deconv_phase_weights(want.data(), in_c, nd.out_c, matrix.data());
      rows *= 4;
    }
    const PackedA packed(matrix.data(), rows, matrix.size() / rows);
    EXPECT_EQ(a.recorded_checksum(i), packed.checksum());
    EXPECT_EQ(b.recorded_checksum(i), packed.checksum());
    ++checked;
  }
  EXPECT_EQ(checked, 11);
  EXPECT_EQ(a.verify_weights(/*recover=*/false), 0);
}

// ------------------------------------------------------- stuck lane

TEST(LaneFault, HookCorruptsExactlyTheArmedLane) {
  if (!fault_hook::compiled()) GTEST_SKIP() << "OCB_FAULT_HOOKS off";
  const std::size_t m = 8, k = 8, n = 32;
  std::vector<float> a(m * k, 1.0f), b(k * n, 1.0f);
  std::vector<float> clean(m * n, 0.0f), faulty(m * n, 0.0f);
  PackedA packed(a.data(), m, k);
  gemm_packed(packed, b.data(), clean.data(), n);

  fault::FaultPlan plan;
  plan.stuck_lane = 5;
  plan.stuck_value = -3.0f;
  fault::FaultInjector injector(plan);
  const std::uint64_t before = fault_hook::corrupted_elements();
  ASSERT_TRUE(injector.arm_lane_fault());
  gemm_packed(packed, b.data(), faulty.data(), n);
  fault::FaultInjector::disarm_lane_fault();
  EXPECT_EQ(fault_hook::corrupted_elements() - before, m * (n / 8));

  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      if (j % 8 == 5)
        EXPECT_EQ(faulty[i * n + j], -3.0f);
      else
        EXPECT_EQ(faulty[i * n + j], clean[i * n + j]);
    }

  // Disarmed: the kernel is clean again.
  std::vector<float> again(m * n, 0.0f);
  gemm_packed(packed, b.data(), again.data(), n);
  EXPECT_EQ(std::memcmp(again.data(), clean.data(),
                        again.size() * sizeof(float)),
            0);
}

// --------------------------------------------------- devsim degrade

TEST(Degradation, ScalesLatencyMonotonically) {
  const devsim::DeviceSpec& spec = devsim::device_by_short_name("o-nano");
  devsim::Degradation thermal;
  thermal.compute_scale = 0.5;
  const devsim::DeviceSpec throttled = devsim::degraded(spec, thermal);
  EXPECT_DOUBLE_EQ(throttled.eff_gflops, spec.eff_gflops * 0.5);
  EXPECT_DOUBLE_EQ(throttled.eff_bw_gbps, spec.eff_bw_gbps);

  devsim::Degradation collapse;
  collapse.bandwidth_scale = 0.3;
  const devsim::DeviceSpec starved = devsim::degraded(spec, collapse);
  EXPECT_DOUBLE_EQ(starved.eff_bw_gbps, spec.eff_bw_gbps * 0.3);
  EXPECT_FALSE(devsim::Degradation{}.any());
  EXPECT_TRUE(thermal.any());
}

TEST(Degradation, RejectsNonPhysicalScales) {
  const devsim::DeviceSpec& spec = devsim::device_by_short_name("o-nano");
  devsim::Degradation bad;
  bad.compute_scale = 0.0;
  EXPECT_THROW(devsim::degraded(spec, bad), Error);
  bad.compute_scale = 1.5;  // degradation can't speed a device up
  EXPECT_THROW(devsim::degraded(spec, bad), Error);
}

// ------------------------------------------------ serving quarantine

TEST(ServingQuarantine, InjectDetectQuarantineReloadReadmit) {
  // The full state machine through the public serving API: a fault is
  // injected, the runner's checksum sweep flags the model unhealthy,
  // the server quarantines it (degraded answers, engine bypassed),
  // cooldown expires, the reload probe repairs the weights, and the
  // model is re-admitted with healthy answers.
  const nn::Graph g = tiny_graph();
  nn::Engine engine(g, 23);
  runtime::ModelServer server{runtime::ServerConfig{}};
  runtime::ServedModelConfig cfg;
  cfg.name = "tiny";
  cfg.max_batch = 1;
  cfg.batch_window_ms = 0.0;
  cfg.degraded_cooldown = 2;
  cfg.quarantine_after = 1;
  nn::IntegrityConfig integrity;
  integrity.verify_every = 1;
  const int handle = server.add_model(
      cfg, std::make_unique<runtime::EngineBatchRunner>(
               engine, cfg.max_batch, integrity));

  Tensor input({1, 3, 16, 16});
  Rng in_rng(6);
  input.init_uniform(in_rng, 0.0f, 1.0f);
  const auto shared_input = std::make_shared<const Tensor>(input);

  fault::FaultPlan plan;
  plan.weight_flip_prob = 1e-3;
  fault::FaultInjector injector(plan);
  ASSERT_GT(injector.corrupt_engine(engine), 0u);

  std::vector<runtime::ServeOutcome> outcomes;
  for (int frame = 0; frame < 8; ++frame) {
    runtime::ServeRequest request;
    request.frame = frame;
    request.input = shared_input;
    outcomes.push_back(server.serve(handle, request).outcome);
  }

  // Frame 0 runs (and trips the verify); the quarantine answers
  // degraded during cooldown; the probe then re-admits.
  int first_degraded = -1, readmitted_at = -1;
  for (int i = 0; i < static_cast<int>(outcomes.size()); ++i) {
    if (outcomes[i] == runtime::ServeOutcome::kDegraded &&
        first_degraded < 0)
      first_degraded = i;
    if (first_degraded >= 0 && outcomes[i] == runtime::ServeOutcome::kOk &&
        readmitted_at < 0)
      readmitted_at = i;
  }
  EXPECT_GE(first_degraded, 0);
  EXPECT_GT(readmitted_at, first_degraded);
  // Re-admission required an actually repaired engine.
  EXPECT_EQ(engine.verify_weights(/*recover=*/false), 0);

  const runtime::ServerReport report = server.report();
  ASSERT_EQ(report.models.size(), 1u);
  EXPECT_GE(report.models[0].quarantines, 1u);
  EXPECT_GE(report.models[0].reloads, 1u);
  EXPECT_GE(report.models[0].unhealthy_batches, 1u);
  server.shutdown();
}

TEST(ServingQuarantine, HealthyModelNeverQuarantined) {
  const nn::Graph g = tiny_graph();
  nn::Engine engine(g, 29);
  runtime::ModelServer server{runtime::ServerConfig{}};
  runtime::ServedModelConfig cfg;
  cfg.name = "tiny";
  cfg.max_batch = 1;
  cfg.batch_window_ms = 0.0;
  cfg.quarantine_after = 1;
  nn::IntegrityConfig integrity;
  integrity.verify_every = 1;
  const int handle = server.add_model(
      cfg, std::make_unique<runtime::EngineBatchRunner>(
               engine, cfg.max_batch, integrity));

  const auto shared_input =
      std::make_shared<const Tensor>(Tensor({1, 3, 16, 16}, 0.5f));
  for (int frame = 0; frame < 6; ++frame) {
    runtime::ServeRequest request;
    request.frame = frame;
    request.input = shared_input;
    EXPECT_EQ(server.serve(handle, request).outcome,
              runtime::ServeOutcome::kOk);
  }
  const runtime::ServerReport report = server.report();
  EXPECT_EQ(report.models[0].quarantines, 0u);
  EXPECT_EQ(report.models[0].unhealthy_batches, 0u);
  server.shutdown();
}

}  // namespace
}  // namespace ocb
