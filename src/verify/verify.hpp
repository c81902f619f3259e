// Static plan verifier (DESIGN.md §15): prove every ExecutionPlan
// sound before it runs.
//
// PRs 6–8 made Engine::prepare() emit increasingly aggressive
// artifacts — cost-model kernel picks, residual/concat fusion with
// buffer aliasing, a liveness-driven arena that overlaps activations,
// compressed weight storage — and until now the only thing standing
// between a subtly-illegal plan and silent wrong detections was the
// same code that constructed the plan. This subsystem is the
// independent oracle: it re-derives, from the Graph and the plan's
// *decisions* alone and sharing no logic with nn/planner.cpp or
// nn/fusion.cpp,
//
//   (a) liveness/aliasing soundness — its own placement-chain walk and
//       write/read interval analysis proving no two simultaneously-
//       live buffers overlap in the arena and every placed view stays
//       inside its root allocation;
//   (b) fusion legality — residual-fold structure, activation order
//       and EpiMode re-proved per fused node;
//   (c) dataflow typing — precision, weight-storage and shape
//       consistency on every edge (u8-resident outputs only feed
//       quantized readers, compressed panels only where the plan says
//       so, Winograd only on legal 3×3 stride-1 shapes);
//   (d) coverage completeness — every live packed panel has a CRC32
//       record, every node is well-formed, every output is produced,
//       and the plan's summary counters match its per-node contents.
//
// It runs three ways: as a debug-build gate inside Engine::prepare()
// (install_prepare_gate — compiled out of Release hot paths like
// OCB_FAULT_HOOKS), as the standalone tools/ocb_verify CLI sweeping
// the model registry × precision/storage cross-product, and
// under mutation testing (plan_mutator.hpp) that plants seeded defects
// and proves each check individually fires — so the analyzer itself is
// validated, not trusted.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/engine.hpp"

namespace ocb::verify {

/// The check catalog. Every Finding names the check that produced it;
/// the mutation tests prove each one fires on its target defect class.
enum class CheckId : std::uint8_t {
  // (a) liveness / aliasing
  kLivenessOverlap,  ///< two simultaneously-live buffers share arena bytes
  kViewBounds,       ///< a view or root escapes its backing allocation
  kPlacementChain,   ///< placement cycle / bad parent / wrong concat offset
  // (b) fusion legality
  kFusionSkip,      ///< skipped node isn't a legally folded residual Add
  kFusionEpilogue,  ///< EpiMode / activation order reorders the fold
  kFusionCapability,  ///< fold on a kernel or storage without EpiMode
  kFusionAlias,       ///< in-place residual alias overwrites live data
  // (c) dataflow typing
  kPrecisionBoundary,  ///< u8 output feeds a float reader (dropped dequant)
  kStorageTyping,      ///< planned storage without matching packed panels
  kShapeLegality,      ///< algo illegal for the node's geometry
  // (d) coverage completeness
  kChecksumCoverage,  ///< live packed panel without a CRC32 record
  kReachability,      ///< malformed graph / output never produced
  kPlanCounters,      ///< summary counters disagree with per-node plans
};

inline constexpr int kCheckCount = 13;

const char* check_name(CheckId id) noexcept;

/// One verifier finding. `node` is the offending graph node, or -1 for
/// whole-plan findings.
struct Finding {
  CheckId check = CheckId::kPlanCounters;
  int node = -1;
  std::string message;
};

/// The result of one verification pass.
struct Report {
  std::vector<Finding> findings;

  bool clean() const noexcept { return findings.empty(); }
  int count(CheckId id) const noexcept;
  /// Multi-line human-readable listing ("clean" when empty).
  std::string to_text() const;
};

/// Which packed weight formats a node carries and their recorded CRCs
/// (mirrors Engine::PanelState; 0 = no record).
struct PanelRecord {
  bool dense = false;
  bool sparse = false;
  bool sparse_half = false;
  bool half = false;
  bool winograd = false;
  std::uint32_t dense_crc = 0;
  std::uint32_t sparse_crc = 0;
  std::uint32_t half_crc = 0;
  std::size_t dense_rows = 0;  ///< shape of the packed dense matrix
  std::size_t dense_cols = 0;
};

/// A node's INT8 state under the plan (mirrors Engine::QuantState).
struct QuantRecord {
  bool quantized = false;
  bool emit_u8 = false;
};

/// Everything the analyzer sees: the graph plus the plan's *decisions*,
/// held by value so mutation tests can corrupt any field without
/// touching an engine. Panels/quant may be empty (pure plan_fusion
/// snapshots, e.g. the fuzz tests) — the corresponding checks skip.
struct PlanSnapshot {
  nn::Graph graph;
  nn::ExecutionPlan plan;
  nn::MemoryPlan fusion;
  nn::Precision precision = nn::Precision::kFp32;
  int max_batch = 1;
  std::vector<PanelRecord> panels;
  std::vector<QuantRecord> quant;
};

/// Capture an engine's active plan for verification or mutation.
PlanSnapshot snapshot(const nn::Engine& engine);

/// Run the full check catalog over a snapshot.
Report verify(const PlanSnapshot& snap);

/// Snapshot + verify, plus the applied-layout checks only a live
/// engine supports: the actual per-node base pointers and strides are
/// compared against the independently re-derived placement and proved
/// in bounds of their backing storage.
Report verify(const nn::Engine& engine);

/// Install/remove the Engine::prepare() gate: every rebuilt plan is
/// verified and a finding OCB_CHECK-fails with the report text. The
/// call sites inside the engine compile away unless OCB_PLAN_VERIFY is
/// defined (default outside Release); installing is always safe.
void install_prepare_gate() noexcept;
void remove_prepare_gate() noexcept;

/// RAII gate for tests: installs on construction, removes on scope
/// exit.
class ScopedPrepareGate {
 public:
  ScopedPrepareGate() noexcept { install_prepare_gate(); }
  ~ScopedPrepareGate() { remove_prepare_gate(); }
  ScopedPrepareGate(const ScopedPrepareGate&) = delete;
  ScopedPrepareGate& operator=(const ScopedPrepareGate&) = delete;
};

// --- Internal: the per-family passes (one TU each) -------------------
// Exposed so tests can aim a single family; verify() runs them all.
namespace detail {

/// Independently resolved placement: root buffer and within-image
/// float offset per node, or ok=false when the chain itself is broken
/// (cycle / out-of-range parent) — in which case interval analysis is
/// skipped for the affected nodes.
struct Placement {
  std::vector<int> root;
  std::vector<std::size_t> offset;
  std::vector<char> ok;
};

/// Walk every placement chain with cycle detection; appends
/// kPlacementChain findings for broken chains.
Placement resolve_placement(const PlanSnapshot& snap, Report& report);

void check_liveness(const PlanSnapshot& snap, const Placement& placement,
                    Report& report);
void check_fusion(const PlanSnapshot& snap, Report& report);
void check_dataflow(const PlanSnapshot& snap, Report& report);
void check_coverage(const PlanSnapshot& snap, Report& report);

/// Graph edge well-formedness (inputs in range and strictly earlier —
/// the topological invariant every other pass leans on). Returns false
/// when indexing through the graph would be unsafe.
bool check_structure(const PlanSnapshot& snap, Report& report);

/// True when the snapshot is too malformed (size mismatches) for the
/// per-node passes to index safely; verify() reports and stops there.
bool check_well_formed(const PlanSnapshot& snap, Report& report);

void add_finding(Report& report, CheckId check, int node,
                 std::string message);

}  // namespace detail

}  // namespace ocb::verify
