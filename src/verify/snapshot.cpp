// Engine capture + the applied-layout checks only a live engine
// supports, plus the Engine::prepare() gate (DESIGN.md §15).
#include <string>

#include "core/error.hpp"
#include "verify/verify.hpp"

namespace ocb::verify {

PlanSnapshot snapshot(const nn::Engine& engine) {
  PlanSnapshot snap;
  snap.graph = engine.graph();
  snap.plan = engine.plan();
  snap.fusion = engine.fusion_plan();
  snap.precision = engine.precision();
  snap.max_batch = engine.max_batch();
  const int n = snap.graph.node_count();
  snap.panels.resize(static_cast<std::size_t>(n));
  snap.quant.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const std::size_t ui = static_cast<std::size_t>(i);
    const nn::Engine::PanelState ps = engine.panel_state(i);
    snap.panels[ui] = PanelRecord{
        ps.dense,     ps.sparse,   ps.sparse_half, ps.half,
        ps.winograd,  ps.dense_crc, ps.sparse_crc, ps.half_crc,
        ps.dense_rows, ps.dense_cols};
    // Quant state outlives a precision switch inside the engine (the
    // qlayers are retained for a cheap int8 re-prepare); it only
    // *means* anything under kInt8, so a float snapshot records none.
    if (snap.precision == nn::Precision::kInt8) {
      const nn::Engine::QuantState qs = engine.quant_state(i);
      snap.quant[ui] = QuantRecord{qs.quantized, qs.emit_u8};
    }
  }
  return snap;
}

Report verify(const nn::Engine& engine) {
  const PlanSnapshot snap = snapshot(engine);
  Report report = verify(snap);

  // Applied layout: the engine's actual per-node base pointers and
  // strides must realise exactly the placement re-derived above, and
  // every view must fit its backing storage for the full batch. This
  // is the strongest aliasing proof available — raw pointers, not
  // plan fields.
  Report scratch;  // placement findings already reported by verify(snap)
  const detail::Placement placement =
      detail::resolve_placement(snap, scratch);
  const int n = snap.graph.node_count();
  for (int i = 0; i < n; ++i) {
    const std::size_t ui = static_cast<std::size_t>(i);
    if (placement.ok[ui] == 0) continue;
    const int root = placement.root[ui];
    const nn::Engine::ActLayoutView v = engine.act_layout(i);
    const std::size_t root_off =
        snap.fusion.offsets[static_cast<std::size_t>(root)];
    const float* want = v.backing + root_off + placement.offset[ui];
    if (v.base != want) {
      detail::add_finding(
          report, CheckId::kPlacementChain, i,
          "applied activation base disagrees with the re-derived "
          "placement (root " +
              std::to_string(root) + ", offset " +
              std::to_string(root_off + placement.offset[ui]) + ")");
      continue;
    }
    const std::size_t want_stride = snap.graph.shape(root).numel();
    if (v.stride_floats != want_stride) {
      detail::add_finding(
          report, CheckId::kPlacementChain, i,
          "applied per-image stride " + std::to_string(v.stride_floats) +
              " disagrees with root " + std::to_string(root) + "'s " +
              std::to_string(want_stride) + "-float image");
      continue;
    }
    const std::size_t base_off =
        static_cast<std::size_t>(v.base - v.backing);
    const std::size_t extent =
        base_off +
        static_cast<std::size_t>(snap.max_batch - 1) * v.stride_floats +
        snap.graph.shape(i).numel();
    if (extent > v.backing_floats) {
      detail::add_finding(
          report, CheckId::kViewBounds, i,
          "applied view extends to float " + std::to_string(extent) +
              " of a " + std::to_string(v.backing_floats) +
              "-float backing");
    }
  }
  return report;
}

namespace {

/// The installed gate: verify the engine's freshly rebuilt plan and
/// fail loudly on any finding — an unsound plan must never run.
void prepare_gate(const nn::Engine& engine) {
  const Report report = verify(engine);
  OCB_CHECK_MSG(report.clean(),
                "static plan verifier rejected the prepared plan\n" +
                    report.to_text());
}

}  // namespace

void install_prepare_gate() noexcept {
  nn::Engine::set_plan_verify_hook(&prepare_gate);
}

void remove_prepare_gate() noexcept {
  nn::Engine::set_plan_verify_hook(nullptr);
}

}  // namespace ocb::verify
