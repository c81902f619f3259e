#include "verify/plan_mutator.hpp"

#include <algorithm>
#include <vector>

#include "core/rng.hpp"

namespace ocb::verify {

namespace {

int pick_node(Rng& rng, const std::vector<int>& candidates) {
  return candidates[static_cast<std::size_t>(rng.uniform_int(
      0, static_cast<std::int64_t>(candidates.size()) - 1))];
}

/// Root + within-image offset via the same chain walk the planner
/// applies (fine here: the mutator *constructs* defects, it never
/// certifies anything).
int root_of(const nn::MemoryPlan& mp, int node, std::size_t* off) {
  return mp.root_of(node, off);
}

/// Adjust the plan's algo counters when a conv node moves from `from`
/// to `to`, so a geometry defect doesn't also read as counter drift.
void recount_algo(nn::ExecutionPlan& plan, nn::ConvAlgo from,
                  nn::ConvAlgo to) {
  auto bucket = [&plan](nn::ConvAlgo a) -> int* {
    switch (a) {
      case nn::ConvAlgo::kWinograd: return &plan.winograd_nodes;
      case nn::ConvAlgo::kDirectGemm: return &plan.direct_nodes;
      case nn::ConvAlgo::kIm2colFused: return &plan.fused_nodes;
      case nn::ConvAlgo::kIm2colQuantFused: return nullptr;  // two buckets
    }
    return nullptr;
  };
  if (int* b = bucket(from)) --*b;
  if (int* b = bucket(to)) ++*b;
}

}  // namespace

const PlanDefect* all_defects() noexcept {
  static const PlanDefect kAll[kDefectCount] = {
      PlanDefect::kOverlappingPlacement, PlanDefect::kArenaOverflow,
      PlanDefect::kDanglingView,         PlanDefect::kPlacementCycle,
      PlanDefect::kConcatOffsetSkew,     PlanDefect::kOrphanSkip,
      PlanDefect::kActivationReorder,    PlanDefect::kIncapableFold,
      PlanDefect::kAliasOverwrite,       PlanDefect::kDroppedDequant,
      PlanDefect::kStorageMismatch,      PlanDefect::kIllegalWinograd,
      PlanDefect::kDeconvWinograd,       PlanDefect::kWinogradTileMismatch,
      PlanDefect::kMissingChecksum,      PlanDefect::kCounterDrift,
  };
  return kAll;
}

const char* defect_name(PlanDefect defect) noexcept {
  switch (defect) {
    case PlanDefect::kOverlappingPlacement: return "overlapping-placement";
    case PlanDefect::kArenaOverflow: return "arena-overflow";
    case PlanDefect::kDanglingView: return "dangling-view";
    case PlanDefect::kPlacementCycle: return "placement-cycle";
    case PlanDefect::kConcatOffsetSkew: return "concat-offset-skew";
    case PlanDefect::kOrphanSkip: return "orphan-skip";
    case PlanDefect::kActivationReorder: return "activation-reorder";
    case PlanDefect::kIncapableFold: return "incapable-fold";
    case PlanDefect::kAliasOverwrite: return "alias-overwrite";
    case PlanDefect::kDroppedDequant: return "dropped-dequant";
    case PlanDefect::kStorageMismatch: return "storage-mismatch";
    case PlanDefect::kIllegalWinograd: return "illegal-winograd";
    case PlanDefect::kDeconvWinograd: return "deconv-winograd";
    case PlanDefect::kWinogradTileMismatch: return "winograd-tile-mismatch";
    case PlanDefect::kMissingChecksum: return "missing-checksum";
    case PlanDefect::kCounterDrift: return "counter-drift";
  }
  return "unknown";
}

CheckId expected_check(PlanDefect defect) noexcept {
  switch (defect) {
    case PlanDefect::kOverlappingPlacement: return CheckId::kLivenessOverlap;
    case PlanDefect::kArenaOverflow: return CheckId::kViewBounds;
    case PlanDefect::kDanglingView: return CheckId::kViewBounds;
    case PlanDefect::kPlacementCycle: return CheckId::kPlacementChain;
    case PlanDefect::kConcatOffsetSkew: return CheckId::kPlacementChain;
    case PlanDefect::kOrphanSkip: return CheckId::kFusionSkip;
    case PlanDefect::kActivationReorder: return CheckId::kFusionEpilogue;
    case PlanDefect::kIncapableFold: return CheckId::kFusionCapability;
    case PlanDefect::kAliasOverwrite: return CheckId::kFusionAlias;
    case PlanDefect::kDroppedDequant: return CheckId::kPrecisionBoundary;
    case PlanDefect::kStorageMismatch: return CheckId::kStorageTyping;
    case PlanDefect::kIllegalWinograd: return CheckId::kShapeLegality;
    case PlanDefect::kDeconvWinograd: return CheckId::kShapeLegality;
    case PlanDefect::kWinogradTileMismatch: return CheckId::kStorageTyping;
    case PlanDefect::kMissingChecksum: return CheckId::kChecksumCoverage;
    case PlanDefect::kCounterDrift: return CheckId::kPlanCounters;
  }
  return CheckId::kPlanCounters;
}

bool plant_defect(PlanSnapshot& snap, PlanDefect defect,
                  std::uint64_t seed) {
  Rng rng(hash_combine(seed, static_cast<std::uint64_t>(defect)));
  const int n = snap.graph.node_count();

  switch (defect) {
    case PlanDefect::kOverlappingPlacement: {
      // Collapse a producer's arena offset onto a consumer's: the two
      // buffers are necessarily live together at the consumer's index.
      struct Pair {
        int a, b;
      };
      std::vector<Pair> pairs;
      for (int j = 0; j < n; ++j) {
        if (snap.fusion.nodes[static_cast<std::size_t>(j)].skip) continue;
        const int rj = root_of(snap.fusion, j, nullptr);
        for (int s : snap.graph.node(j).inputs) {
          const int rs = root_of(snap.fusion, s, nullptr);
          if (rs != rj) pairs.push_back(Pair{rj, rs});
        }
      }
      if (pairs.empty()) return false;
      const Pair p = pairs[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(pairs.size()) - 1))];
      snap.fusion.offsets[static_cast<std::size_t>(p.a)] =
          snap.fusion.offsets[static_cast<std::size_t>(p.b)];
      return true;
    }

    case PlanDefect::kArenaOverflow: {
      // Shrink the arena below the largest root block.
      std::size_t largest = 0;
      for (int i = 0; i < n; ++i) {
        if (snap.fusion.nodes[static_cast<std::size_t>(i)].place_parent !=
            -1)
          continue;
        const std::size_t extent =
            snap.fusion.offsets[static_cast<std::size_t>(i)] +
            static_cast<std::size_t>(snap.max_batch) *
                snap.graph.shape(i).numel();
        largest = std::max(largest, extent);
      }
      if (largest == 0) return false;
      snap.fusion.arena_floats = largest - 1;
      // Keep the byte counters in sync so only the bounds check trips.
      snap.plan.arena_peak_bytes_after =
          snap.fusion.arena_floats * sizeof(float);
      return true;
    }

    case PlanDefect::kDanglingView: {
      std::vector<int> placed;
      for (int i = 0; i < n; ++i)
        if (snap.fusion.nodes[static_cast<std::size_t>(i)].place_parent !=
            -1)
          placed.push_back(i);
      if (placed.empty()) return false;
      const int i = pick_node(rng, placed);
      const int parent =
          snap.fusion.nodes[static_cast<std::size_t>(i)].place_parent;
      const int root = root_of(snap.fusion, parent, nullptr);
      // Push the view past the end of its root's image.
      snap.fusion.nodes[static_cast<std::size_t>(i)].place_offset_floats +=
          snap.graph.shape(root).numel();
      return true;
    }

    case PlanDefect::kPlacementCycle: {
      std::vector<int> placed;
      for (int i = 0; i < n; ++i)
        if (snap.fusion.nodes[static_cast<std::size_t>(i)].place_parent !=
            -1)
          placed.push_back(i);
      if (placed.empty()) return false;
      const int i = pick_node(rng, placed);
      const int parent =
          snap.fusion.nodes[static_cast<std::size_t>(i)].place_parent;
      snap.fusion.nodes[static_cast<std::size_t>(parent)].place_parent = i;
      snap.fusion.nodes[static_cast<std::size_t>(parent)]
          .place_offset_floats = 0;
      return true;
    }

    case PlanDefect::kConcatOffsetSkew: {
      std::vector<int> members;
      for (int i = 0; i < n; ++i) {
        const int parent =
            snap.fusion.nodes[static_cast<std::size_t>(i)].place_parent;
        if (parent >= 0 &&
            snap.graph.node(parent).kind == nn::OpKind::kConcat)
          members.push_back(i);
      }
      if (members.empty()) return false;
      const int i = pick_node(rng, members);
      nn::NodeFusion& f = snap.fusion.nodes[static_cast<std::size_t>(i)];
      // One float off its channel slot: the concat's skipped copy now
      // reassembles a shifted feature map.
      f.place_offset_floats = f.place_offset_floats > 0
                                  ? f.place_offset_floats - 1
                                  : f.place_offset_floats + 1;
      return true;
    }

    case PlanDefect::kOrphanSkip: {
      std::vector<int> candidates;
      for (int i = 0; i < n; ++i) {
        const nn::NodeFusion& f =
            snap.fusion.nodes[static_cast<std::size_t>(i)];
        if (f.skip || f.residual_add) continue;
        if (snap.graph.node(i).kind == nn::OpKind::kAdd) continue;
        if (snap.graph.node(i).kind == nn::OpKind::kInput) continue;
        candidates.push_back(i);
      }
      if (candidates.empty()) return false;
      snap.fusion.nodes[static_cast<std::size_t>(pick_node(rng, candidates))]
          .skip = true;
      return true;
    }

    case PlanDefect::kActivationReorder: {
      std::vector<int> folds;
      for (int c = 0; c < n; ++c)
        if (snap.fusion.nodes[static_cast<std::size_t>(c)].residual_add)
          folds.push_back(c);
      if (folds.empty()) return false;
      nn::NodeFusion& f =
          snap.fusion.nodes[static_cast<std::size_t>(pick_node(rng, folds))];
      f.mode = f.mode == EpiMode::kAccThenAct ? EpiMode::kActThenAcc
                                              : EpiMode::kAccThenAct;
      return true;
    }

    case PlanDefect::kIncapableFold: {
      std::vector<int> folds;
      for (int c = 0; c < n; ++c)
        if (snap.fusion.nodes[static_cast<std::size_t>(c)].residual_add)
          folds.push_back(c);
      if (folds.empty()) return false;
      const int c = pick_node(rng, folds);
      nn::ConvPlan& p = snap.plan.nodes[static_cast<std::size_t>(c)];
      p.storage = nn::WeightStorage::kSparse;
      ++snap.plan.sparse_nodes;  // stay counter-consistent
      return true;
    }

    case PlanDefect::kAliasOverwrite: {
      // Alias a fold whose residual operand is still read after the
      // conv — exactly the case the planner must never alias.
      std::vector<std::vector<int>> consumers(static_cast<std::size_t>(n));
      for (int j = 0; j < n; ++j)
        for (int s : snap.graph.node(j).inputs)
          consumers[static_cast<std::size_t>(s)].push_back(j);
      std::vector<int> candidates;
      for (int c = 0; c < n; ++c) {
        const nn::NodeFusion& cf =
            snap.fusion.nodes[static_cast<std::size_t>(c)];
        if (!cf.residual_add) continue;
        const int a = cf.residual_out;
        const int src = cf.residual_src;
        if (snap.fusion.nodes[static_cast<std::size_t>(a)].place_parent !=
            -1)
          continue;  // already aliased (legally)
        bool late_reader = false;
        for (int t : consumers[static_cast<std::size_t>(src)])
          if (t != a && t >= c) late_reader = true;
        if (late_reader) candidates.push_back(c);
      }
      if (candidates.empty()) return false;
      const int c = pick_node(rng, candidates);
      const nn::NodeFusion& cf =
          snap.fusion.nodes[static_cast<std::size_t>(c)];
      nn::NodeFusion& af =
          snap.fusion.nodes[static_cast<std::size_t>(cf.residual_out)];
      af.place_parent = cf.residual_src;
      af.place_offset_floats = 0;
      return true;
    }

    case PlanDefect::kDroppedDequant: {
      if (snap.precision != nn::Precision::kInt8 || snap.quant.empty())
        return false;
      std::vector<int> emitters;
      for (int i = 0; i < n; ++i)
        if (snap.quant[static_cast<std::size_t>(i)].emit_u8)
          emitters.push_back(i);
      if (emitters.empty()) return false;
      const int i = pick_node(rng, emitters);
      // Flip one of its readers back to the float path: the reader now
      // consumes raw u8 bytes through the float view.
      for (int t = i + 1; t < n; ++t) {
        const nn::Node& tn = snap.graph.node(t);
        if (std::find(tn.inputs.begin(), tn.inputs.end(), i) ==
            tn.inputs.end())
          continue;
        snap.quant[static_cast<std::size_t>(t)] = QuantRecord{};
        return true;
      }
      return false;
    }

    case PlanDefect::kStorageMismatch: {
      if (snap.panels.empty()) return false;
      std::vector<int> candidates;
      for (int i = 0; i < n; ++i) {
        const std::size_t ui = static_cast<std::size_t>(i);
        const nn::OpKind kind = snap.graph.node(i).kind;
        // Any node whose kernel legally reads sparse panels: linears
        // always, convs on the im2col stripes or the direct GEMM.
        const bool sparse_capable =
            kind == nn::OpKind::kLinear ||
            (kind == nn::OpKind::kConv &&
             (snap.plan.nodes[ui].algo == nn::ConvAlgo::kIm2colFused ||
              snap.plan.nodes[ui].algo == nn::ConvAlgo::kDirectGemm));
        if (!sparse_capable) continue;
        if (snap.fusion.nodes[ui].residual_add) continue;
        if (snap.plan.nodes[ui].storage != nn::WeightStorage::kDense)
          continue;
        if (snap.panels[ui].sparse) continue;
        candidates.push_back(i);
      }
      if (candidates.empty()) return false;
      const int i = pick_node(rng, candidates);
      snap.plan.nodes[static_cast<std::size_t>(i)].storage =
          nn::WeightStorage::kSparse;
      ++snap.plan.sparse_nodes;  // stay counter-consistent
      return true;
    }

    case PlanDefect::kIllegalWinograd: {
      std::vector<int> candidates;
      for (int i = 0; i < n; ++i) {
        const std::size_t ui = static_cast<std::size_t>(i);
        const nn::Node& nd = snap.graph.node(i);
        if (nd.kind != nn::OpKind::kConv) continue;
        if (nd.kernel == 3 && nd.stride == 1) continue;  // would be legal
        if (snap.plan.nodes[ui].storage != nn::WeightStorage::kDense)
          continue;
        if (snap.fusion.nodes[ui].residual_add) continue;
        candidates.push_back(i);
      }
      if (candidates.empty()) return false;
      const int i = pick_node(rng, candidates);
      nn::ConvPlan& p = snap.plan.nodes[static_cast<std::size_t>(i)];
      recount_algo(snap.plan, p.algo, nn::ConvAlgo::kWinograd);
      p.algo = nn::ConvAlgo::kWinograd;
      p.wino_tile = 2;
      return true;
    }

    case PlanDefect::kDeconvWinograd: {
      // A 4×4 stride-2 deconv has no Winograd form; the engine would
      // run the 3×3 transform over its phase panels. Deconvs sit
      // outside the conv algo counters, so no recount is needed.
      std::vector<int> candidates;
      for (int i = 0; i < n; ++i)
        if (snap.graph.node(i).kind == nn::OpKind::kDeconv &&
            snap.plan.nodes[static_cast<std::size_t>(i)].storage ==
                nn::WeightStorage::kDense)
          candidates.push_back(i);
      if (candidates.empty()) return false;
      snap.plan.nodes[static_cast<std::size_t>(pick_node(rng, candidates))]
          .algo = nn::ConvAlgo::kWinograd;
      return true;
    }

    case PlanDefect::kWinogradTileMismatch: {
      // The plan switches a Winograd node to the other (legal) tile
      // while its panels stay packed for the old one: the driver would
      // index (m+2)² panels that are not there.
      if (snap.panels.empty()) return false;
      std::vector<int> candidates;
      for (int i = 0; i < n; ++i) {
        const std::size_t ui = static_cast<std::size_t>(i);
        if (snap.plan.nodes[ui].algo == nn::ConvAlgo::kWinograd &&
            snap.panels[ui].winograd_panels > 0)
          candidates.push_back(i);
      }
      if (candidates.empty()) return false;
      nn::ConvPlan& p =
          snap.plan.nodes[static_cast<std::size_t>(pick_node(rng, candidates))];
      p.wino_tile = p.wino_tile == 2 ? 4 : 2;
      return true;
    }

    case PlanDefect::kMissingChecksum: {
      if (snap.panels.empty()) return false;
      std::vector<int> candidates;
      for (int i = 0; i < n; ++i) {
        const PanelRecord& pr = snap.panels[static_cast<std::size_t>(i)];
        if (pr.dense && pr.dense_crc != 0) candidates.push_back(i);
      }
      if (candidates.empty()) return false;
      snap.panels[static_cast<std::size_t>(pick_node(rng, candidates))]
          .dense_crc = 0;
      return true;
    }

    case PlanDefect::kCounterDrift: {
      ++snap.plan.winograd_nodes;
      return true;
    }
  }
  return false;
}

}  // namespace ocb::verify
