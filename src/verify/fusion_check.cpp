// Fusion legality (check family (b), DESIGN.md §15).
//
// A residual fold rewrites `out = add_act(x + conv_act(W·u))` into a
// single conv whose epilogue accumulates into x's (preloaded) buffer.
// That is only sound when: the skipped Add really is claimed by exactly
// one conv; the conv's result reaches no one except through the fold
// (single consumer, not a graph output, buffer not doubling as a
// concat view); at most one of the two activations exists, and the
// EpiMode applies it on the correct side of the accumulate; the chosen
// kernel/storage actually implements EpiMode; and, when the Add was
// aliased in place onto the other operand, nothing reads that operand
// at or after the conv that overwrites it. All of it is re-derived
// here from the graph and the raw NodeFusion fields — the eligibility
// logic in nn/fusion.cpp is never consulted.
#include <string>
#include <vector>

#include "verify/verify.hpp"

namespace ocb::verify::detail {

namespace {

/// Does the planned kernel for this conv support EpiMode? Only the
/// dense-panel direct, Winograd and im2col-stripe write-backs do.
bool epilogue_capable(const nn::ConvPlan& plan) noexcept {
  if (plan.storage != nn::WeightStorage::kDense) return false;
  return plan.algo == nn::ConvAlgo::kDirectGemm ||
         plan.algo == nn::ConvAlgo::kWinograd ||
         plan.algo == nn::ConvAlgo::kIm2colFused;
}

}  // namespace

void check_fusion(const PlanSnapshot& snap, Report& report) {
  const int n = snap.graph.node_count();

  std::vector<std::vector<int>> consumers(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j)
    for (int s : snap.graph.node(j).inputs)
      consumers[static_cast<std::size_t>(s)].push_back(j);
  const std::vector<int>& outs = snap.graph.outputs();
  auto is_output = [&](int i) {
    return std::find(outs.begin(), outs.end(), i) != outs.end();
  };

  // How many convs claim each skipped node as their fold target.
  std::vector<int> claimed(static_cast<std::size_t>(n), 0);
  for (int c = 0; c < n; ++c) {
    const nn::NodeFusion& cf = snap.fusion.nodes[static_cast<std::size_t>(c)];
    if (cf.residual_add && cf.residual_out >= 0 && cf.residual_out < n)
      ++claimed[static_cast<std::size_t>(cf.residual_out)];
  }

  // --- Skipped nodes: each must be a residual Add someone folds -----
  for (int i = 0; i < n; ++i) {
    const std::size_t ui = static_cast<std::size_t>(i);
    if (!snap.fusion.nodes[ui].skip) continue;
    if (snap.graph.node(i).kind != nn::OpKind::kAdd) {
      add_finding(report, CheckId::kFusionSkip, i,
                  "skipped node is not an Add — nothing will compute it");
      continue;
    }
    if (claimed[ui] != 1) {
      add_finding(report, CheckId::kFusionSkip, i,
                  "skipped Add is claimed by " + std::to_string(claimed[ui]) +
                      " folding convs (need exactly 1)");
    }
  }

  // --- Folding convs -------------------------------------------------
  for (int c = 0; c < n; ++c) {
    const std::size_t cu = static_cast<std::size_t>(c);
    const nn::NodeFusion& cf = snap.fusion.nodes[cu];
    if (!cf.residual_add) continue;

    if (snap.graph.node(c).kind != nn::OpKind::kConv) {
      add_finding(report, CheckId::kFusionSkip, c,
                  "residual fold on a non-Conv node");
      continue;
    }
    const int a = cf.residual_out;
    const int src = cf.residual_src;
    if (a < 0 || a >= n || src < 0 || src >= n || src == a) {
      add_finding(report, CheckId::kFusionSkip, c,
                  "fold names an invalid residual_out/residual_src");
      continue;
    }
    const nn::Node& add_node = snap.graph.node(a);
    if (add_node.kind != nn::OpKind::kAdd ||
        !snap.fusion.nodes[static_cast<std::size_t>(a)].skip) {
      add_finding(report, CheckId::kFusionSkip, c,
                  "fold target " + std::to_string(a) +
                      " is not a skipped Add");
      continue;
    }
    // The add must combine exactly this conv with residual_src.
    const bool operands_match =
        add_node.inputs.size() == 2 &&
        ((add_node.inputs[0] == c && add_node.inputs[1] == src) ||
         (add_node.inputs[0] == src && add_node.inputs[1] == c));
    if (!operands_match) {
      add_finding(report, CheckId::kFusionSkip, c,
                  "Add " + std::to_string(a) +
                      " does not combine this conv with node " +
                      std::to_string(src));
      continue;
    }
    // The conv's own buffer is never written (output redirected into
    // the add's): any other reader of it sees garbage.
    for (int t : consumers[cu]) {
      if (t != a) {
        add_finding(report, CheckId::kFusionSkip, c,
                    "folded conv has another consumer (node " +
                        std::to_string(t) +
                        ") that would read its unwritten buffer");
      }
    }
    if (is_output(c)) {
      add_finding(report, CheckId::kFusionSkip, c,
                  "folded conv is a graph output whose buffer is never "
                  "written");
    }
    if (snap.fusion.nodes[cu].place_parent != -1) {
      add_finding(report, CheckId::kFusionSkip, c,
                  "folded conv is also placed as a view — the parent "
                  "would read unwritten bytes");
    }
    if (snap.fusion.nodes[cu].skip) {
      add_finding(report, CheckId::kFusionSkip, c,
                  "folding conv is itself skipped");
    }

    // Activation order: with f = conv act and g = add act, the fold
    // computes either g(x + f(conv)) — impossible in one epilogue when
    // both exist — or, with one of them kNone, kAccThenAct applies g
    // to the sum and kActThenAcc applies f before accumulating.
    const nn::Act conv_act = snap.graph.node(c).act;
    const nn::Act add_act = add_node.act;
    if (conv_act != nn::Act::kNone && add_act != nn::Act::kNone) {
      add_finding(report, CheckId::kFusionEpilogue, c,
                  "both the conv and the Add carry activations — one "
                  "epilogue cannot order them");
    } else if (conv_act == nn::Act::kNone) {
      if (cf.mode != EpiMode::kAccThenAct) {
        add_finding(report, CheckId::kFusionEpilogue, c,
                    "the Add's activation must see the sum "
                    "(kAccThenAct), but the fold stores mode " +
                        std::to_string(static_cast<int>(cf.mode)));
      } else if (cf.act != add_act) {
        add_finding(report, CheckId::kFusionEpilogue, c,
                    "epilogue activation differs from the Add's");
      }
    } else {
      if (cf.mode != EpiMode::kActThenAcc) {
        add_finding(report, CheckId::kFusionEpilogue, c,
                    "the conv's activation must run before the "
                    "accumulate (kActThenAcc), but the fold stores "
                    "mode " +
                        std::to_string(static_cast<int>(cf.mode)));
      } else if (cf.act != conv_act) {
        add_finding(report, CheckId::kFusionEpilogue, c,
                    "epilogue activation differs from the conv's");
      }
    }

    // Kernel capability: the residual combine happens in the GEMM /
    // inverse-transform write-back, which only the dense-storage
    // direct, Winograd and fused-stripe float paths implement (the
    // quantized stripes run kStore only).
    if (!epilogue_capable(snap.plan.nodes[cu])) {
      add_finding(report, CheckId::kFusionCapability, c,
                  "planned algo/storage ("
                  + std::string(nn::conv_algo_name(snap.plan.nodes[cu].algo))
                  + "/"
                  + nn::weight_storage_name(snap.plan.nodes[cu].storage) +
                      ") has no residual epilogue");
    }

    // In-place alias: the conv overwrites src's buffer at time c, so
    // every other read of src must happen strictly before then.
    if (snap.fusion.nodes[static_cast<std::size_t>(a)].place_parent == src) {
      for (int t : consumers[static_cast<std::size_t>(src)]) {
        if (t != a && t >= c) {
          add_finding(report, CheckId::kFusionAlias, c,
                      "aliased residual operand " + std::to_string(src) +
                          " is read by node " + std::to_string(t) +
                          " at/after the overwriting conv");
        }
      }
      if (is_output(src)) {
        add_finding(report, CheckId::kFusionAlias, c,
                    "aliased residual operand " + std::to_string(src) +
                        " is a graph output materialized after the "
                        "overwrite");
      }
    }
  }
}

}  // namespace ocb::verify::detail
