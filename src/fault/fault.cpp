#include "fault/fault.hpp"

#include <cstring>

#include "core/check.hpp"
#include "nn/layer.hpp"

namespace ocb::fault {

FaultInjector::FaultInjector(const FaultPlan& plan)
    : plan_(plan), rng_(plan.seed) {
  OCB_CHECK_MSG(plan.weight_flip_prob >= 0.0 && plan.weight_flip_prob <= 1.0,
                "weight_flip_prob must be a probability");
  OCB_CHECK_MSG(
      plan.activation_flip_prob >= 0.0 && plan.activation_flip_prob <= 1.0,
      "activation_flip_prob must be a probability");
  OCB_CHECK_MSG(plan.weight_flip_bit >= -1 && plan.weight_flip_bit < 32,
                "weight_flip_bit must be -1 (random) or 0..31");
  OCB_CHECK_MSG(plan.stuck_lane >= -1 &&
                    plan.stuck_lane <
                        static_cast<int>(fault_hook::kLanes),
                "stuck_lane must be -1 (off) or 0..7");
}

std::size_t FaultInjector::flip(float* data, std::size_t count, double prob) {
  if (prob <= 0.0 || count == 0) return 0;
  std::size_t flips = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (!rng_.bernoulli(prob)) continue;
    const int bit = plan_.weight_flip_bit >= 0
                        ? plan_.weight_flip_bit
                        : static_cast<int>(rng_.uniform_int(0, 31));
    std::uint32_t bits = 0;
    std::memcpy(&bits, data + i, sizeof(bits));
    bits ^= (1u << bit);
    std::memcpy(data + i, &bits, sizeof(bits));
    ++flips;
  }
  return flips;
}

std::size_t FaultInjector::flip_weights(float* data, std::size_t count) {
  return flip(data, count, plan_.weight_flip_prob);
}

std::size_t FaultInjector::flip_activations(float* data, std::size_t count) {
  return flip(data, count, plan_.activation_flip_prob);
}

std::size_t FaultInjector::corrupt_panels(PackedA& panels) {
  return flip(panels.mutable_data(), panels.stored_floats(),
              plan_.weight_flip_prob);
}

std::size_t FaultInjector::corrupt_engine(nn::Engine& engine) {
  std::size_t flips = 0;
  const int n = engine.graph().node_count();
  for (int i = 0; i < n; ++i) {
    const nn::OpKind kind = engine.graph().node(i).kind;
    if (kind != nn::OpKind::kConv && kind != nn::OpKind::kDeconv &&
        kind != nn::OpKind::kLinear)
      continue;
    flips += corrupt_panels(engine.packed_panels(i));
  }
  return flips;
}

bool FaultInjector::arm_lane_fault() const {
  if (plan_.stuck_lane < 0 || !fault_hook::compiled()) return false;
  fault_hook::LaneFault fault;
  fault.enabled = true;
  fault.lane = static_cast<std::size_t>(plan_.stuck_lane);
  std::memcpy(&fault.stuck_bits, &plan_.stuck_value,
              sizeof(fault.stuck_bits));
  fault_hook::set_lane_fault(fault);
  return true;
}

void FaultInjector::disarm_lane_fault() {
  fault_hook::set_lane_fault(fault_hook::LaneFault{});
}

devsim::DeviceSpec FaultInjector::degraded_device(
    const devsim::DeviceSpec& spec) const {
  return devsim::degraded(spec, plan_.degradation);
}

}  // namespace ocb::fault
