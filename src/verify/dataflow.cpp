// Dataflow typing + coverage completeness (check families (c)/(d),
// DESIGN.md §15).
//
// Typing re-derives, per edge and per node, what the planned kernel is
// allowed to consume and produce: quantized algorithms only under
// kInt8 and only with quantized layer state behind them; u8-resident
// outputs only feeding quantized readers (a float reader would consume
// raw quantized bytes — the "dropped dequant" silent-corruption
// class); compressed weight storage only on kernels that read it and
// only with the matching packed panels live; Winograd/direct only on
// the geometries their transforms are derived for, and a deconv only
// on the im2col GEMMs its sub-pixel lowering runs as; packed panel
// shapes and output shapes re-inferred from first principles on every
// conv/deconv/linear/add/concat node. Coverage closes
// the loop: a single well-formed input, every output actually
// produced, every live panel checksummed, and the plan's summary
// counters in agreement with its per-node contents (counter drift is
// how a stale or half-rebuilt plan escapes).
#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "verify/verify.hpp"

namespace ocb::verify::detail {

namespace {

/// True for the node kinds that carry packed GEMM weight panels.
bool weighted(nn::OpKind kind) noexcept {
  return kind == nn::OpKind::kConv || kind == nn::OpKind::kDeconv ||
         kind == nn::OpKind::kLinear;
}

/// The [rows × cols] weight matrix a weighted node's dense panels must
/// hold, re-derived from the node alone: a conv's out_c × in_c·k·k, a
/// linear's out × flattened-input, and a deconv's sub-pixel phase
/// matrix — its 4×4 stride-2 kernel splits into four 2×2 phase
/// kernels, so 4·out_c rows (one block per output phase) over 4·in_c
/// columns (each input channel's 2×2 taps).
std::pair<std::size_t, std::size_t> panel_dims(const nn::Graph& graph,
                                                int i) {
  const nn::Node& nd = graph.node(i);
  const nn::FeatShape in0 = graph.shape(nd.inputs[0]);
  const std::size_t out_c = static_cast<std::size_t>(nd.out_c);
  const std::size_t in_c = static_cast<std::size_t>(in0.c);
  switch (nd.kind) {
    case nn::OpKind::kConv:
      return {out_c, in_c * static_cast<std::size_t>(nd.kernel * nd.kernel)};
    case nn::OpKind::kDeconv:
      return {4 * out_c, 4 * in_c};
    default:
      return {out_c, in0.numel()};
  }
}

bool quant_algo(nn::ConvAlgo algo) noexcept {
  return algo == nn::ConvAlgo::kIm2colQuantFused;
}

/// Does consumer `t` read its inputs through the INT8 path? Mirrors
/// the runtime dispatch rule: quantized linears always, convs exactly
/// when a quantized algorithm is planned *and* quantized layer state
/// exists; everything else (pools, concats, fp32-fallback convs, ...)
/// reads the float view.
bool reads_u8(const PlanSnapshot& snap, int t) {
  const std::size_t tu = static_cast<std::size_t>(t);
  if (!snap.quant[tu].quantized) return false;
  const nn::OpKind kind = snap.graph.node(t).kind;
  if (kind == nn::OpKind::kLinear) return true;
  return kind == nn::OpKind::kConv && quant_algo(snap.plan.nodes[tu].algo);
}

}  // namespace

bool check_structure(const PlanSnapshot& snap, Report& report) {
  const int n = snap.graph.node_count();
  bool indexable = true;
  for (int i = 0; i < n; ++i) {
    const nn::Node& nd = snap.graph.node(i);
    if (nd.kind == nn::OpKind::kInput) {
      if (i != 0) {
        add_finding(report, CheckId::kReachability, i,
                    "input node is not node 0 — execution order feeds "
                    "it stale data");
      }
      continue;
    }
    if (nd.inputs.empty()) {
      add_finding(report, CheckId::kReachability, i,
                  "non-input node with no inputs is unreachable from "
                  "the graph input");
    }
    for (int s : nd.inputs) {
      if (s < 0 || s >= n) {
        add_finding(report, CheckId::kReachability, i,
                    "edge references node " + std::to_string(s) +
                        ", outside the graph");
        indexable = false;
      } else if (s >= i) {
        add_finding(report, CheckId::kReachability, i,
                    "edge references node " + std::to_string(s) +
                        " at/after itself — not a topological order");
      }
    }
  }
  if (n > 0 && snap.graph.node(0).kind != nn::OpKind::kInput) {
    add_finding(report, CheckId::kReachability, 0,
                "node 0 is not the graph input");
  }
  return indexable;
}

void check_dataflow(const PlanSnapshot& snap, Report& report) {
  const int n = snap.graph.node_count();
  const bool int8 = snap.precision == nn::Precision::kInt8;

  if (snap.plan.precision != snap.precision) {
    add_finding(report, CheckId::kPrecisionBoundary, -1,
                "plan precision disagrees with the engine's active "
                "precision");
  }

  for (int i = 0; i < n; ++i) {
    const std::size_t ui = static_cast<std::size_t>(i);
    const nn::Node& nd = snap.graph.node(i);
    const nn::ConvPlan& p = snap.plan.nodes[ui];
    const bool has_panels = weighted(nd.kind);

    // Algorithm/geometry legality. A deconv runs as its lowered 2×2
    // stride-1 conv in fp32: no Winograd transform (3×3 only), no
    // direct path (1×1 only) and no quantized kernel computes it —
    // only the fp32 im2col stripes.
    if (nd.kind == nn::OpKind::kDeconv &&
        p.algo != nn::ConvAlgo::kIm2colFused) {
      add_finding(report, CheckId::kShapeLegality, i,
                  std::string(nn::conv_algo_name(p.algo)) +
                      " planned for a deconv — its sub-pixel lowering "
                      "runs on the fp32 im2col stripes only");
    }
    if (nd.kind == nn::OpKind::kConv) {
      if (quant_algo(p.algo) && !int8) {
        add_finding(report, CheckId::kPrecisionBoundary, i,
                    "quantized algorithm planned under a float "
                    "precision");
      }
      if (p.algo == nn::ConvAlgo::kWinograd) {
        // F(2×2, 3×3): the transform matrices are derived for 3×3
        // stride-1 kernels; anything else computes a different conv.
        if (nd.kernel != 3 || nd.stride != 1) {
          add_finding(report, CheckId::kShapeLegality, i,
                      "Winograd planned for a " + std::to_string(nd.kernel) +
                          "×" + std::to_string(nd.kernel) + " stride-" +
                          std::to_string(nd.stride) +
                          " conv (needs 3×3 stride 1)");
        }
        if (int8) {
          add_finding(report, CheckId::kShapeLegality, i,
                      "Winograd planned under kInt8 — no quantized "
                      "transform exists");
        }
      }
      if (p.algo == nn::ConvAlgo::kDirectGemm &&
          (nd.kernel != 1 || nd.stride != 1 || nd.pad != 0)) {
        add_finding(report, CheckId::kShapeLegality, i,
                    "direct GEMM treats the input as the column matrix, "
                    "which only holds for 1×1 stride-1 pad-0");
      }
    }

    // Storage typing.
    if (p.storage != nn::WeightStorage::kDense) {
      if (!has_panels) {
        add_finding(report, CheckId::kStorageTyping, i,
                    "compressed weight storage on a node with no "
                    "weights");
      } else if (int8) {
        add_finding(report, CheckId::kStorageTyping, i,
                    "compressed storage under kInt8 — the quantized "
                    "kernels read dense panels");
      } else if (nd.kind != nn::OpKind::kLinear &&
                 p.algo != nn::ConvAlgo::kIm2colFused &&
                 p.algo != nn::ConvAlgo::kDirectGemm) {
        add_finding(report, CheckId::kStorageTyping, i,
                    std::string("storage ") +
                        nn::weight_storage_name(p.storage) +
                        " on algo " + nn::conv_algo_name(p.algo) +
                        " — only the im2col stripes and the direct GEMM "
                        "read compressed panels");
      }
    }
    if (!snap.panels.empty() && has_panels) {
      const PanelRecord& pr = snap.panels[ui];
      const auto [rows, cols] = panel_dims(snap.graph, i);
      if (pr.dense && (pr.dense_rows != rows || pr.dense_cols != cols)) {
        add_finding(report, CheckId::kShapeLegality, i,
                    "packed panels hold a " + std::to_string(pr.dense_rows) +
                        "×" + std::to_string(pr.dense_cols) +
                        " matrix, the node's GEMM needs " +
                        std::to_string(rows) + "×" + std::to_string(cols));
      }
      switch (p.storage) {
        case nn::WeightStorage::kDense:
          break;
        case nn::WeightStorage::kHalf:
          if (!pr.half) {
            add_finding(report, CheckId::kStorageTyping, i,
                        "plan wants half storage but no half panels are "
                        "packed");
          }
          break;
        case nn::WeightStorage::kSparse:
          if (!pr.sparse || pr.sparse_half) {
            add_finding(report, CheckId::kStorageTyping, i,
                        "plan wants sparse fp32 panels but the packed "
                        "sparse state is " +
                            std::string(pr.sparse ? "half-valued"
                                                  : "missing"));
          }
          break;
        case nn::WeightStorage::kSparseHalf:
          if (!pr.sparse || !pr.sparse_half) {
            add_finding(report, CheckId::kStorageTyping, i,
                        "plan wants sparse half panels but the packed "
                        "sparse state is " +
                            std::string(pr.sparse ? "fp32-valued"
                                                  : "missing"));
          }
          break;
      }
      if (nd.kind == nn::OpKind::kConv &&
          p.algo == nn::ConvAlgo::kWinograd && !pr.winograd) {
        add_finding(report, CheckId::kStorageTyping, i,
                    "Winograd planned but the transformed weight panels "
                    "were never packed");
      }
    }

    // Shape re-inference on the fused-relevant edges.
    const nn::FeatShape out = snap.graph.shape(i);
    if (nd.kind == nn::OpKind::kConv && !nd.inputs.empty()) {
      const nn::FeatShape in0 = snap.graph.shape(nd.inputs[0]);
      const int h = (in0.h + 2 * nd.pad - nd.kernel) / nd.stride + 1;
      const int w = (in0.w + 2 * nd.pad - nd.kernel) / nd.stride + 1;
      if (out.c != nd.out_c || out.h != h || out.w != w) {
        add_finding(report, CheckId::kShapeLegality, i,
                    "recorded conv output shape disagrees with the "
                    "re-derived geometry");
      }
    } else if (nd.kind == nn::OpKind::kDeconv && !nd.inputs.empty()) {
      const nn::FeatShape in0 = snap.graph.shape(nd.inputs[0]);
      if (nd.kernel != 4 || nd.stride != 2 || nd.pad != 1) {
        add_finding(report, CheckId::kShapeLegality, i,
                    "deconv is not 4×4 stride 2 pad 1 — the sub-pixel "
                    "phase split only holds for that geometry");
      }
      if (out.c != nd.out_c || out.h != 2 * in0.h || out.w != 2 * in0.w) {
        add_finding(report, CheckId::kShapeLegality, i,
                    "recorded deconv output shape is not {out_c, 2H, 2W}");
      }
    } else if (nd.kind == nn::OpKind::kAdd && nd.inputs.size() == 2) {
      if (!(snap.graph.shape(nd.inputs[0]) == out) ||
          !(snap.graph.shape(nd.inputs[1]) == out)) {
        add_finding(report, CheckId::kShapeLegality, i,
                    "elementwise add over mismatched shapes");
      }
    } else if (nd.kind == nn::OpKind::kConcat) {
      int c = 0;
      bool hw_ok = true;
      for (int s : nd.inputs) {
        const nn::FeatShape si = snap.graph.shape(s);
        c += si.c;
        hw_ok = hw_ok && si.h == out.h && si.w == out.w;
      }
      if (!hw_ok || c != out.c) {
        add_finding(report, CheckId::kShapeLegality, i,
                    "concat channel/spatial layout disagrees with its "
                    "inputs");
      }
    }
  }

  // --- INT8 residency rules -----------------------------------------
  if (int8 && !snap.quant.empty()) {
    const std::vector<int>& outs = snap.graph.outputs();
    for (int i = 0; i < n; ++i) {
      const std::size_t ui = static_cast<std::size_t>(i);
      const nn::Node& nd = snap.graph.node(i);
      if (nd.kind == nn::OpKind::kConv && quant_algo(snap.plan.nodes[ui].algo)
          && !snap.quant[ui].quantized) {
        add_finding(report, CheckId::kPrecisionBoundary, i,
                    "quantized algorithm planned but no quantized layer "
                    "state exists — the float fallback would read a "
                    "possibly-stale float view");
      }
      if (!snap.quant[ui].emit_u8) continue;
      if (!snap.quant[ui].quantized || nd.kind != nn::OpKind::kConv) {
        add_finding(report, CheckId::kPrecisionBoundary, i,
                    "u8 emission on a node the INT8 path never writes");
        continue;
      }
      if (std::find(outs.begin(), outs.end(), i) != outs.end()) {
        add_finding(report, CheckId::kPrecisionBoundary, i,
                    "u8-resident node is a graph output — the caller "
                    "expects float");
      }
      bool consumed = false;
      for (int t = i + 1; t < n; ++t) {
        const nn::Node& tn = snap.graph.node(t);
        if (std::find(tn.inputs.begin(), tn.inputs.end(), i) ==
            tn.inputs.end())
          continue;
        consumed = true;
        if (!reads_u8(snap, t)) {
          add_finding(report, CheckId::kPrecisionBoundary, i,
                      "u8-resident output feeds node " + std::to_string(t) +
                          ", which reads float (dropped dequant)");
        }
      }
      if (!consumed) {
        add_finding(report, CheckId::kPrecisionBoundary, i,
                    "u8-resident output has no consumers — emission "
                    "should be off");
      }
    }
  }
}

void check_coverage(const PlanSnapshot& snap, Report& report) {
  const int n = snap.graph.node_count();

  // --- Outputs produced ---------------------------------------------
  std::vector<char> written_by_fold(static_cast<std::size_t>(n), 0);
  for (int c = 0; c < n; ++c) {
    const nn::NodeFusion& cf = snap.fusion.nodes[static_cast<std::size_t>(c)];
    if (cf.residual_add && cf.residual_out >= 0 && cf.residual_out < n)
      written_by_fold[static_cast<std::size_t>(cf.residual_out)] = 1;
  }
  for (int o : snap.graph.outputs()) {
    if (o < 0 || o >= n) {
      add_finding(report, CheckId::kReachability, o,
                  "graph output index out of range");
      continue;
    }
    const std::size_t ou = static_cast<std::size_t>(o);
    if (snap.fusion.nodes[ou].skip && written_by_fold[ou] == 0) {
      add_finding(report, CheckId::kReachability, o,
                  "graph output is skipped and no fold writes it — it "
                  "is never produced");
    }
  }

  // --- Checksum coverage --------------------------------------------
  if (!snap.panels.empty()) {
    for (int i = 0; i < n; ++i) {
      const std::size_t ui = static_cast<std::size_t>(i);
      const nn::OpKind kind = snap.graph.node(i).kind;
      const PanelRecord& pr = snap.panels[ui];
      if (weighted(kind)) {
        if (!pr.dense || pr.dense_crc == 0) {
          add_finding(report, CheckId::kChecksumCoverage, i,
                      pr.dense ? "dense panels live without a CRC32 "
                                 "record — corruption is undetectable"
                               : "weighted node carries no packed dense "
                                 "panels");
        }
      }
      if (pr.sparse && pr.sparse_crc == 0) {
        add_finding(report, CheckId::kChecksumCoverage, i,
                    "sparse panels live without a CRC32 record");
      }
      if (pr.half && pr.half_crc == 0) {
        add_finding(report, CheckId::kChecksumCoverage, i,
                    "half panels live without a CRC32 record");
      }
    }
  }

  // --- Summary-counter agreement ------------------------------------
  // Recounted from the per-node plans with the same definitions the
  // plan advertises; drift means a stale or half-rebuilt summary.
  int conv = 0, wino = 0, direct = 0, quant = 0, fused = 0;
  int sparse = 0, fp16 = 0, residual = 0, concat_elided = 0;
  std::size_t naive_floats = 0;
  for (int i = 0; i < n; ++i) {
    const std::size_t ui = static_cast<std::size_t>(i);
    const nn::OpKind kind = snap.graph.node(i).kind;
    const nn::ConvPlan& p = snap.plan.nodes[ui];
    naive_floats += static_cast<std::size_t>(snap.max_batch) *
                    snap.graph.shape(i).numel();
    if (weighted(kind)) {
      if (p.storage == nn::WeightStorage::kSparse ||
          p.storage == nn::WeightStorage::kSparseHalf)
        ++sparse;
      if (p.storage == nn::WeightStorage::kHalf ||
          p.storage == nn::WeightStorage::kSparseHalf)
        ++fp16;
    }
    const nn::NodeFusion& f = snap.fusion.nodes[ui];
    if (f.residual_add) ++residual;
    if (f.place_parent >= 0 && f.place_parent < n &&
        snap.graph.node(f.place_parent).kind == nn::OpKind::kConcat)
      ++concat_elided;
    if (kind != nn::OpKind::kConv) continue;
    ++conv;
    switch (p.algo) {
      case nn::ConvAlgo::kWinograd: ++wino; break;
      case nn::ConvAlgo::kDirectGemm: ++direct; break;
      case nn::ConvAlgo::kIm2colFused: ++fused; break;
      case nn::ConvAlgo::kIm2colQuantFused:
        ++quant;
        ++fused;
        break;
    }
  }
  auto expect = [&](int got, int want, const char* what) {
    if (got != want) {
      add_finding(report, CheckId::kPlanCounters, -1,
                  std::string(what) + " counter says " +
                      std::to_string(got) + ", per-node contents say " +
                      std::to_string(want));
    }
  };
  expect(snap.plan.conv_nodes, conv, "conv_nodes");
  expect(snap.plan.winograd_nodes, wino, "winograd_nodes");
  expect(snap.plan.direct_nodes, direct, "direct_nodes");
  expect(snap.plan.quant_nodes, quant, "quant_nodes");
  expect(snap.plan.fused_nodes, fused, "fused_nodes");
  expect(snap.plan.sparse_nodes, sparse, "sparse_nodes");
  expect(snap.plan.fp16_nodes, fp16, "fp16_nodes");
  expect(snap.plan.residual_fused, residual, "residual_fused");
  expect(snap.plan.concat_elided, concat_elided, "concat_elided");
  expect(snap.fusion.residual_fused, residual, "fusion residual_fused");
  expect(snap.fusion.concat_elided, concat_elided, "fusion concat_elided");
  expect(snap.plan.max_batch, snap.max_batch, "max_batch");
  if (snap.fusion.naive_floats != naive_floats) {
    add_finding(report, CheckId::kPlanCounters, -1,
                "naive peak says " +
                    std::to_string(snap.fusion.naive_floats) +
                    " floats, per-node shapes sum to " +
                    std::to_string(naive_floats));
  }
  if (snap.plan.arena_peak_bytes_before !=
      snap.fusion.naive_floats * sizeof(float)) {
    add_finding(report, CheckId::kPlanCounters, -1,
                "arena_peak_bytes_before disagrees with the fusion "
                "plan's naive peak");
  }
  if (snap.plan.arena_peak_bytes_after !=
      snap.fusion.arena_floats * sizeof(float)) {
    add_finding(report, CheckId::kPlanCounters, -1,
                "arena_peak_bytes_after disagrees with the fusion "
                "plan's arena size");
  }
}

}  // namespace ocb::verify::detail
