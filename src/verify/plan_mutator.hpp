// Test-only plan mutation: plant seeded defects into a PlanSnapshot so
// the mutation-test leg (tests/test_verify.cpp, tools/ocb_verify
// --mutations) can prove every verifier check individually fires —
// validating the analyzer instead of trusting it (DESIGN.md §15).
//
// Each defect models a realistic planner/engine bug class and maps to
// exactly one *intended* check (expected_check). A planted defect may
// legitimately trip additional checks — e.g. an arena shrunk under a
// root's extent also desynchronises the byte counters — the contract
// is that the intended check fires, never that it fires alone.
//
// Mutations operate on snapshot *copies*; nothing here can touch a
// live engine, so the production plan path carries no test backdoors.
#pragma once

#include <cstdint>

#include "verify/verify.hpp"

namespace ocb::verify {

enum class PlanDefect : std::uint8_t {
  kOverlappingPlacement,  ///< two live root buffers share an arena offset
  kArenaOverflow,         ///< arena shrunk below a root block's extent
  kDanglingView,          ///< placed view pushed past its root's image
  kPlacementCycle,        ///< placement chain made circular
  kConcatOffsetSkew,      ///< concat member moved off its channel slot
  kOrphanSkip,            ///< node skipped with no fold computing it
  kActivationReorder,     ///< residual EpiMode flipped across the act
  kIncapableFold,         ///< fold left on storage without an epilogue
  kAliasOverwrite,        ///< residual alias despite a later reader
  kDroppedDequant,        ///< u8 output rewired into a float reader
  kStorageMismatch,       ///< sparse storage planned, no sparse panels
  kIllegalWinograd,       ///< Winograd forced onto a non-3×3 conv
  kDeconvWinograd,        ///< Winograd forced onto a deconv
  kMissingChecksum,       ///< live panel's CRC32 record erased
  kCounterDrift,          ///< summary counter bumped off its contents
};

inline constexpr int kDefectCount = 15;

/// All defects, in declaration order (for sweep-style tests/tools).
const PlanDefect* all_defects() noexcept;

const char* defect_name(PlanDefect defect) noexcept;

/// The check a planted defect must trip.
CheckId expected_check(PlanDefect defect) noexcept;

/// Plant `defect` into `snap`, choosing among applicable sites with a
/// deterministic `seed`. Returns false (snapshot untouched) when the
/// snapshot offers no applicable site — e.g. kDroppedDequant needs an
/// INT8 plan, kIncapableFold a residual fold.
bool plant_defect(PlanSnapshot& snap, PlanDefect defect,
                  std::uint64_t seed);

}  // namespace ocb::verify
