// Deterministic, seedable fault injection (DESIGN.md §14).
//
// A FaultPlan is a complete, replayable description of an injection
// campaign: seeded bit-flips in packed weight panels and activations,
// a stuck SIMD lane in the GEMM epilogue (tensor/fault_hook.hpp), and
// devsim degradation modes (thermal throttle, bandwidth collapse).
// FaultInjector executes a plan with an Rng derived only from the
// plan's seed, so the same plan applied to the same engine produces
// bit-identical corruption — the replay property the fault tests and
// bench_fault's sweeps are built on.
//
// Injection writes through the mutable panel accessors (PackedA::
// mutable_data() etc.), which bypass the engine's pack tracking —
// exactly the silent in-memory corruption the checksum layer detects
// and repairs via Engine::verify_weights().
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/rng.hpp"
#include "devsim/device.hpp"
#include "nn/engine.hpp"
#include "tensor/fault_hook.hpp"
#include "tensor/gemm.hpp"

namespace ocb::fault {

/// A replayable fault campaign. Default-constructed = inject nothing.
struct FaultPlan {
  std::uint64_t seed = 0xFA017;  ///< sole source of injection randomness

  /// Per-element probability of flipping one bit in a packed weight.
  double weight_flip_prob = 0.0;
  /// Bit position to flip (0..31); -1 = uniform random per flip. High
  /// exponent bits (23..30) model the catastrophic upsets, mantissa
  /// bits the silent accuracy creep.
  int weight_flip_bit = -1;

  /// Per-element probability of flipping one bit in an activation
  /// buffer handed to flip_activations().
  double activation_flip_prob = 0.0;

  /// Stuck SIMD lane in the GEMM epilogue: lane index 0..7, or -1 to
  /// leave the hook disarmed. stuck_value is the value the lane emits.
  int stuck_lane = -1;
  float stuck_value = 0.0f;

  /// Device-level degradation driven through devsim::degraded().
  devsim::Degradation degradation{};
};

/// Executes a FaultPlan. All randomness comes from the plan's seed;
/// calls consume the stream in order, so replaying the same sequence
/// of calls on identical targets reproduces identical corruption.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan);

  const FaultPlan& plan() const noexcept { return plan_; }

  /// Flip bits in `count` floats at weight_flip_prob. Returns flips.
  std::size_t flip_weights(float* data, std::size_t count);

  /// Flip bits in `count` floats at activation_flip_prob.
  std::size_t flip_activations(float* data, std::size_t count);

  /// Corrupt one node's dense packed panels in place.
  std::size_t corrupt_panels(PackedA& panels);

  /// Corrupt every conv/deconv/linear node's dense packed panels. Returns
  /// total bit flips across the engine.
  std::size_t corrupt_engine(nn::Engine& engine);

  /// Arm the process-wide stuck-lane hook from the plan. Returns false
  /// when the plan has no lane fault or the hooks are compiled out.
  bool arm_lane_fault() const;
  static void disarm_lane_fault();

  /// The plan's degradation applied to a device spec.
  devsim::DeviceSpec degraded_device(const devsim::DeviceSpec& spec) const;

 private:
  std::size_t flip(float* data, std::size_t count, double prob);

  FaultPlan plan_;
  Rng rng_;
};

}  // namespace ocb::fault
