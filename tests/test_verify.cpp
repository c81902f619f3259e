// Static plan verifier (src/verify, DESIGN.md §15): every prepared
// plan across the precision/storage cross-product verifies clean, the
// applied-layout checks agree with the live engine, the prepare() gate
// hook fires when compiled in — and, the core of the leg, mutation
// testing: each PlanDefect planted into a snapshot copy must be caught
// by its intended check, proving no check is vacuously green.
#include "verify/verify.hpp"

#include <gtest/gtest.h>

#include <atomic>

#include "core/rng.hpp"
#include "nn/engine.hpp"
#include "verify/plan_mutator.hpp"

namespace ocb::verify {
namespace {

/// Residual bottleneck + concat + heads: every defect class has a
/// site. The fold's residual operand (c0) is read again by the concat
/// *after* the folding conv, so the planner must not alias the add —
/// which is exactly the alias-overwrite mutation's precondition. c3
/// and c4 are single-consumer concat feeds (placed views), c4 is a
/// 1×1 (illegal-Winograd site), the linear head gives storage
/// mutations a non-conv site, and the deconv branch off the head is
/// the deconv-Winograd site.
nn::Graph reference_graph() {
  nn::Graph g;
  const int in = g.input(3, 16, 16);
  const int c0 = g.conv(in, 8, 3, 1, 1, nn::Act::kSilu, "c0");
  const int c1 = g.conv(c0, 8, 3, 1, 1, nn::Act::kSilu, "c1");
  const int c2 = g.conv(c1, 8, 3, 1, 1, nn::Act::kNone, "c2");
  const int res = g.add(c0, c2, "res", nn::Act::kSilu);
  const int c3 = g.conv(res, 8, 3, 1, 1, nn::Act::kSilu, "c3");
  const int c4 = g.conv(res, 8, 1, 1, 0, nn::Act::kRelu, "c4");
  const int cat = g.concat({c3, c4, c0}, "cat");
  const int head = g.conv(cat, 8, 3, 1, 1, nn::Act::kSilu, "head");
  const int gap = g.global_avg_pool(head, "gap");
  const int fc = g.linear(gap, 10, nn::Act::kNone, "fc");
  const int up = g.deconv(head, 4, nn::Act::kRelu, "up");
  g.mark_output(fc);
  g.mark_output(up);
  return g;
}

/// Residual chain whose add CAN be aliased in place (c0 is never read
/// after the folding conv) — the legal-alias shape must verify clean.
nn::Graph aliased_graph() {
  nn::Graph g;
  const int in = g.input(3, 16, 16);
  const int c0 = g.conv(in, 8, 3, 1, 1, nn::Act::kSilu, "c0");
  const int c1 = g.conv(c0, 8, 3, 1, 1, nn::Act::kSilu, "c1");
  const int c2 = g.conv(c1, 8, 3, 1, 1, nn::Act::kNone, "c2");
  const int res = g.add(c0, c2, "res", nn::Act::kSilu);
  const int c3 = g.conv(res, 4, 3, 1, 1, nn::Act::kSigmoid, "c3");
  g.mark_output(c3);
  return g;
}

nn::PlanRequest plan_request(nn::Precision precision = nn::Precision::kFp32,
                              bool sparse = false, int max_batch = 2) {
  nn::PlanRequest req;
  req.precision = precision;
  req.max_batch = max_batch;
  if (sparse) {
    req.sparsity.scheme = nn::SparsityScheme::kNm;
    req.sparsity.nm_n = 2;
    req.sparsity.nm_m = 4;
  }
  return req;
}

/// A calibrated engine holding an INT8 plan with u8-resident
/// mid-graph activations (fp32 fallback off so every conv quantizes).
nn::Engine int8_engine(const nn::Graph& g) {
  nn::Engine engine(g, 23);
  const nn::FeatShape in = g.input_shape();
  Tensor frame({1, in.c, in.h, in.w});
  Rng rng(17);
  frame.init_uniform(rng, 0.0f, 1.0f);
  engine.calibrate({frame});
  nn::PlanRequest req;
  req.precision = nn::Precision::kInt8;
  req.planner.enable_fp32_fallback = false;
  engine.prepare(req);
  return engine;
}

// --- Clean plans across the cross-product ----------------------------------

TEST(Verify, CleanAcrossVariants) {
  const nn::Graph g = reference_graph();
  nn::Engine engine(g, 5);

  struct Leg {
    nn::Precision precision;
    bool sparse;
  };
  const Leg legs[] = {
      {nn::Precision::kFp32, false},
      {nn::Precision::kFp16, false},
      {nn::Precision::kFp32, true},
      {nn::Precision::kFp16, true},
  };
  for (const Leg& leg : legs) {
    engine.prepare(plan_request(leg.precision, leg.sparse));
    const Report report = verify(engine);
    EXPECT_TRUE(report.clean()) << report.to_text();
  }
}

TEST(Verify, CleanOnInt8Plan) {
  const nn::Graph g = reference_graph();
  nn::Engine engine = int8_engine(g);
  const Report report = verify(engine);
  EXPECT_TRUE(report.clean()) << report.to_text();
  // The mutation tests below rely on u8-resident activations existing.
  const PlanSnapshot snap = snapshot(engine);
  int emitters = 0;
  for (const QuantRecord& q : snap.quant) emitters += q.emit_u8 ? 1 : 0;
  EXPECT_GT(emitters, 0);
  // INT8 activations live in the liveness-planned arena too.
  EXPECT_LT(snap.plan.arena_peak_bytes_after,
            snap.plan.arena_peak_bytes_before);
}

TEST(Verify, CleanOnAliasedResidual) {
  const nn::Graph g = aliased_graph();
  nn::Engine engine(g, 5);
  engine.prepare(plan_request());
  const Report report = verify(engine);
  EXPECT_TRUE(report.clean()) << report.to_text();
  // The legal in-place alias must actually be present (otherwise this
  // test shrinks to the unaliased case).
  const PlanSnapshot snap = snapshot(engine);
  EXPECT_GE(snap.plan.residual_fused, 1);
  bool alias = false;
  for (int i = 0; i < snap.graph.node_count(); ++i) {
    const nn::NodeFusion& f = snap.fusion.nodes[static_cast<std::size_t>(i)];
    if (f.skip && f.place_parent != -1) alias = true;
  }
  EXPECT_TRUE(alias);
}

TEST(Verify, ReferencePlanHasAllMutationSites) {
  // Guard against the reference graph drifting into a shape where
  // defect classes have no site (which would make the mutation sweep
  // silently weaker).
  const nn::Graph g = reference_graph();
  nn::Engine engine(g, 5);
  engine.prepare(plan_request());
  const PlanSnapshot snap = snapshot(engine);
  EXPECT_GE(snap.plan.residual_fused, 1);
  EXPECT_GE(snap.plan.concat_elided, 2);
  // The fold must be the non-aliased kind (alias-overwrite site).
  for (int i = 0; i < snap.graph.node_count(); ++i) {
    const nn::NodeFusion& f = snap.fusion.nodes[static_cast<std::size_t>(i)];
    if (f.residual_add)
      EXPECT_EQ(snap.fusion.nodes[static_cast<std::size_t>(f.residual_out)]
                    .place_parent,
                -1);
  }
}

// --- Mutation testing: every check individually fires ----------------------

TEST(Verify, EveryPlantedDefectIsCaughtByItsCheck) {
  const nn::Graph g = reference_graph();
  nn::Engine engine(g, 5);
  engine.prepare(plan_request());
  const PlanSnapshot float_snap = snapshot(engine);
  ASSERT_TRUE(verify(float_snap).clean()) << verify(float_snap).to_text();

  nn::Engine quant = int8_engine(g);
  const PlanSnapshot int8_snap = snapshot(quant);
  ASSERT_TRUE(verify(int8_snap).clean()) << verify(int8_snap).to_text();

  const PlanSnapshot* snaps[] = {&float_snap, &int8_snap};
  const PlanDefect* defects = all_defects();
  for (int d = 0; d < kDefectCount; ++d) {
    const PlanDefect defect = defects[d];
    int planted = 0;
    for (const PlanSnapshot* base : snaps) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        PlanSnapshot mutated = *base;
        if (!plant_defect(mutated, defect, seed)) continue;
        ++planted;
        const Report report = verify(mutated);
        EXPECT_GT(report.count(expected_check(defect)), 0)
            << defect_name(defect) << " (seed " << seed
            << ") was planted but "
            << check_name(expected_check(defect))
            << " stayed silent:\n"
            << report.to_text();
      }
    }
    // No defect may be unplantable everywhere — that check would never
    // be exercised.
    EXPECT_GT(planted, 0) << defect_name(defect)
                          << " found no applicable site on either "
                             "reference snapshot";
  }
}

TEST(Verify, InapplicableDefectLeavesSnapshotUntouched) {
  const nn::Graph g = reference_graph();
  nn::Engine engine(g, 5);
  engine.prepare(plan_request());
  PlanSnapshot snap = snapshot(engine);
  // Dequant defects need an INT8 plan; on a float snapshot the mutator
  // must decline and leave the snapshot verifying clean.
  EXPECT_FALSE(plant_defect(snap, PlanDefect::kDroppedDequant, 1));
  EXPECT_TRUE(verify(snap).clean());
}

// --- Malformed-snapshot handling -------------------------------------------

TEST(Verify, SizeMismatchReportsInsteadOfIndexing) {
  const nn::Graph g = reference_graph();
  nn::Engine engine(g, 5);
  engine.prepare(plan_request());
  PlanSnapshot snap = snapshot(engine);
  snap.plan.nodes.pop_back();  // plan no longer covers the graph
  const Report report = verify(snap);
  EXPECT_GT(report.count(CheckId::kPlanCounters), 0);
}

TEST(Verify, SkippedOutputIsUnproduced) {
  const nn::Graph g = reference_graph();
  nn::Engine engine(g, 5);
  engine.prepare(plan_request());
  PlanSnapshot snap = snapshot(engine);
  const int out = g.outputs().front();
  snap.fusion.nodes[static_cast<std::size_t>(out)].skip = true;
  const Report report = verify(snap);
  EXPECT_GT(report.count(CheckId::kReachability), 0);
}

TEST(Verify, CheckAndDefectNamesAreDistinct) {
  for (int i = 0; i < kCheckCount; ++i) {
    for (int j = i + 1; j < kCheckCount; ++j) {
      EXPECT_STRNE(check_name(static_cast<CheckId>(i)),
                   check_name(static_cast<CheckId>(j)));
    }
  }
  const PlanDefect* defects = all_defects();
  for (int i = 0; i < kDefectCount; ++i) {
    for (int j = i + 1; j < kDefectCount; ++j) {
      EXPECT_STRNE(defect_name(defects[i]), defect_name(defects[j]));
    }
  }
}

TEST(Verify, ReportTextListsEveryFinding) {
  Report report;
  detail::add_finding(report, CheckId::kLivenessOverlap, 3, "first");
  detail::add_finding(report, CheckId::kViewBounds, -1, "second");
  EXPECT_EQ(report.count(CheckId::kLivenessOverlap), 1);
  EXPECT_EQ(report.count(CheckId::kViewBounds), 1);
  EXPECT_EQ(report.count(CheckId::kPlanCounters), 0);
  const std::string text = report.to_text();
  EXPECT_NE(text.find("first"), std::string::npos);
  EXPECT_NE(text.find("second"), std::string::npos);
  EXPECT_NE(text.find(check_name(CheckId::kLivenessOverlap)),
            std::string::npos);
}

// --- The Engine::prepare() gate --------------------------------------------

#if defined(OCB_PLAN_VERIFY)

std::atomic<int> g_hook_calls{0};
void counting_hook(const nn::Engine&) { ++g_hook_calls; }

TEST(PrepareGate, HookFiresOnPlanRebuild) {
  nn::Engine::set_plan_verify_hook(&counting_hook);
  g_hook_calls = 0;
  const nn::Graph g = reference_graph();
  nn::Engine engine(g, 5);
  engine.prepare(plan_request());
  nn::Engine::set_plan_verify_hook(nullptr);
  EXPECT_GE(g_hook_calls.load(), 1);
}

TEST(PrepareGate, AcceptsEveryLegalPlan) {
  // install_prepare_gate OCB_CHECK-fails (throws under the test
  // suite's failure mode) on any finding: a full prepare sweep under
  // the gate passing without throwing IS the assertion.
  ScopedPrepareGate gate;
  const nn::Graph g = reference_graph();
  nn::Engine engine(g, 5);
  engine.prepare(plan_request());
  engine.prepare(plan_request(nn::Precision::kFp16, true));
  (void)int8_engine(g);  // calibrates, then prepares an INT8 arena plan
}

#endif  // OCB_PLAN_VERIFY

}  // namespace
}  // namespace ocb::verify
