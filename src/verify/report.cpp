#include "verify/verify.hpp"

#include "core/error.hpp"

namespace ocb::verify {

const char* check_name(CheckId id) noexcept {
  switch (id) {
    case CheckId::kLivenessOverlap: return "liveness-overlap";
    case CheckId::kViewBounds: return "view-bounds";
    case CheckId::kPlacementChain: return "placement-chain";
    case CheckId::kFusionSkip: return "fusion-skip";
    case CheckId::kFusionEpilogue: return "fusion-epilogue";
    case CheckId::kFusionCapability: return "fusion-capability";
    case CheckId::kFusionAlias: return "fusion-alias";
    case CheckId::kPrecisionBoundary: return "precision-boundary";
    case CheckId::kStorageTyping: return "storage-typing";
    case CheckId::kShapeLegality: return "shape-legality";
    case CheckId::kChecksumCoverage: return "checksum-coverage";
    case CheckId::kReachability: return "reachability";
    case CheckId::kPlanCounters: return "plan-counters";
  }
  return "unknown";
}

int Report::count(CheckId id) const noexcept {
  int n = 0;
  for (const Finding& f : findings)
    if (f.check == id) ++n;
  return n;
}

std::string Report::to_text() const {
  if (findings.empty()) return "plan verification: clean\n";
  std::string out = "plan verification: " +
                    std::to_string(findings.size()) + " finding(s)\n";
  for (const Finding& f : findings) {
    out += "  [";
    out += check_name(f.check);
    out += "] ";
    if (f.node >= 0) out += "node " + std::to_string(f.node) + ": ";
    out += f.message;
    out += '\n';
  }
  return out;
}

namespace detail {

void add_finding(Report& report, CheckId check, int node,
                 std::string message) {
  report.findings.push_back(Finding{check, node, std::move(message)});
}

bool check_well_formed(const PlanSnapshot& snap, Report& report) {
  const std::size_t n = static_cast<std::size_t>(snap.graph.node_count());
  bool ok = true;
  if (snap.plan.nodes.size() != n) {
    add_finding(report, CheckId::kPlanCounters, -1,
                "plan has " + std::to_string(snap.plan.nodes.size()) +
                    " node entries for a " + std::to_string(n) +
                    "-node graph");
    ok = false;
  }
  if (snap.fusion.nodes.size() != n) {
    add_finding(report, CheckId::kPlanCounters, -1,
                "fusion plan has " + std::to_string(snap.fusion.nodes.size()) +
                    " node entries for a " + std::to_string(n) +
                    "-node graph");
    ok = false;
  }
  if (snap.fusion.offsets.size() != n) {
    add_finding(report, CheckId::kPlanCounters, -1,
                "planned arena carries " +
                    std::to_string(snap.fusion.offsets.size()) +
                    " offsets for a " + std::to_string(n) + "-node graph");
    ok = false;
  }
  if (!snap.panels.empty() && snap.panels.size() != n) {
    add_finding(report, CheckId::kPlanCounters, -1,
                "panel records do not cover the graph");
    ok = false;
  }
  if (!snap.quant.empty() && snap.quant.size() != n) {
    add_finding(report, CheckId::kPlanCounters, -1,
                "quant records do not cover the graph");
    ok = false;
  }
  if (snap.max_batch < 1) {
    add_finding(report, CheckId::kPlanCounters, -1,
                "non-positive max_batch");
    ok = false;
  }
  return ok;
}

}  // namespace detail

Report verify(const PlanSnapshot& snap) {
  Report report;
  if (!detail::check_well_formed(snap, report)) return report;
  // Edge well-formedness next: every other pass indexes through node
  // input lists, so a malformed graph stops the run here.
  if (!detail::check_structure(snap, report)) return report;
  const detail::Placement placement =
      detail::resolve_placement(snap, report);
  detail::check_liveness(snap, placement, report);
  detail::check_fusion(snap, report);
  detail::check_dataflow(snap, report);
  detail::check_coverage(snap, report);
  return report;
}

}  // namespace ocb::verify
