#include "nn/fusion.hpp"

#include <algorithm>

#include "core/error.hpp"

namespace ocb::nn {

namespace {

/// Kernels with EpiMode support: the residual combine happens in the
/// GEMM / inverse-transform write-back, which the dense-storage direct,
/// Winograd and stripe paths implement (the compressed-storage kernels
/// always run kStore).
bool residual_capable(const ConvPlan& plan) noexcept {
  if (plan.storage != WeightStorage::kDense) return false;
  return plan.algo == ConvAlgo::kDirectGemm ||
         plan.algo == ConvAlgo::kWinograd ||
         plan.algo == ConvAlgo::kIm2colFused;
}

bool is_output(const Graph& graph, int node) noexcept {
  const std::vector<int>& outs = graph.outputs();
  return std::find(outs.begin(), outs.end(), node) != outs.end();
}

}  // namespace

int MemoryPlan::root_of(int node, std::size_t* offset_floats) const noexcept {
  int r = node;
  std::size_t off = 0;
  while (nodes[static_cast<std::size_t>(r)].place_parent != -1) {
    off += nodes[static_cast<std::size_t>(r)].place_offset_floats;
    r = nodes[static_cast<std::size_t>(r)].place_parent;
  }
  if (offset_floats != nullptr) *offset_floats = off;
  return r;
}

MemoryPlan plan_fusion(const Graph& graph, const std::vector<ConvPlan>& plans,
                       int max_batch) {
  const int n = graph.node_count();
  OCB_CHECK_MSG(plans.size() == static_cast<std::size_t>(n),
                "plan_fusion needs one ConvPlan entry per graph node");
  OCB_CHECK_MSG(max_batch >= 1, "plan_fusion needs a positive max_batch");

  MemoryPlan mp;
  mp.nodes.assign(static_cast<std::size_t>(n), NodeFusion{});
  for (int i = 0; i < n; ++i)
    mp.naive_floats += static_cast<std::size_t>(max_batch) *
                       graph.shape(i).numel();

  std::vector<std::vector<int>> consumers(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j)
    for (int s : graph.node(j).inputs)
      consumers[static_cast<std::size_t>(s)].push_back(j);

  // --- Pass 1: concat placement -------------------------------------
  // A producer whose only reader is one concat (and that appears once
  // in its input list) writes directly into the concat's buffer at its
  // channel offset. Processing in node order lets placements chain:
  // an inner concat placed here resolves its own placed children
  // through root_of.
  for (int k = 0; k < n; ++k) {
    const Node& nd = graph.node(k);
    if (nd.kind != OpKind::kConcat) continue;
    const std::size_t hw = static_cast<std::size_t>(graph.shape(k).h) *
                           graph.shape(k).w;
    std::size_t coff = 0;
    for (std::size_t a = 0; a < nd.inputs.size(); ++a) {
      const int s = nd.inputs[a];
      const std::size_t su = static_cast<std::size_t>(s);
      const std::size_t off = coff;
      coff += static_cast<std::size_t>(graph.shape(s).c) * hw;
      if (graph.node(s).kind == OpKind::kInput) continue;
      if (is_output(graph, s)) continue;
      if (mp.nodes[su].place_parent != -1) continue;
      if (consumers[su].size() != 1) continue;
      // A duplicated operand must be copied into both slots.
      if (std::count(nd.inputs.begin(), nd.inputs.end(), s) != 1) continue;
      mp.nodes[su].place_parent = k;
      mp.nodes[su].place_offset_floats = off;
      ++mp.concat_elided;
    }
  }

  // --- Pass 2: residual fusion --------------------------------------
  for (int a = 0; a < n; ++a) {
    const Node& nd = graph.node(a);
    if (nd.kind != OpKind::kAdd || mp.nodes[a].skip) continue;
    const int x0 = nd.inputs[0], x1 = nd.inputs[1];
    if (x0 == x1) continue;  // self-add: 2·conv, not a residual
    // Prefer folding into the second operand (the conventional
    // `x + F(x)` shape); fall back to the first.
    const auto eligible = [&](int c) {
      const std::size_t cu = static_cast<std::size_t>(c);
      if (graph.node(c).kind != OpKind::kConv) return false;
      if (!residual_capable(plans[cu])) return false;
      if (consumers[cu].size() != 1) return false;  // only this add
      if (is_output(graph, c)) return false;
      if (mp.nodes[cu].place_parent != -1 || mp.nodes[cu].skip)
        return false;
      // Exactly one of the two activations can run in the epilogue.
      return graph.node(c).act == Act::kNone || nd.act == Act::kNone;
    };
    const int conv = eligible(x1) ? x1 : (eligible(x0) ? x0 : -1);
    if (conv == -1) continue;
    const int other = conv == x1 ? x0 : x1;
    const std::size_t cu = static_cast<std::size_t>(conv);
    NodeFusion& cf = mp.nodes[cu];
    cf.residual_add = true;
    cf.residual_src = other;
    cf.residual_out = a;
    if (graph.node(conv).act == Act::kNone) {
      // out = add_act(x + conv); the activation sees the sum.
      cf.mode = EpiMode::kAccThenAct;
      cf.act = nd.act;
    } else {
      // out = x + conv_act(conv); activate first, then accumulate.
      cf.mode = EpiMode::kActThenAcc;
      cf.act = graph.node(conv).act;
    }
    mp.nodes[static_cast<std::size_t>(a)].skip = true;
    ++mp.residual_fused;

    // Alias the add's buffer onto `other` when the sum can form in
    // place: the conv's read-modify-write touches each element once,
    // so overwriting is safe as long as nothing reads `other` after
    // the conv runs and neither buffer is already a view.
    const std::size_t ou = static_cast<std::size_t>(other);
    bool alias = graph.node(other).kind != OpKind::kInput &&
                 !is_output(graph, other) &&
                 mp.nodes[ou].place_parent == -1 &&
                 mp.nodes[static_cast<std::size_t>(a)].place_parent == -1;
    if (alias) {
      for (int t : consumers[ou])
        if (t != a && t >= conv) alias = false;
    }
    if (alias) {
      mp.nodes[static_cast<std::size_t>(a)].place_parent = other;
      mp.nodes[static_cast<std::size_t>(a)].place_offset_floats = 0;
    }
  }

  // --- Pass 3: liveness + greedy best-fit offsets -------------------
  // def_time: when a buffer first holds live data. A placed child or a
  // residual-fused conv writes into its root's buffer *before* the
  // root's own node index, so roots inherit the earliest writer.
  std::vector<int> def_time(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) def_time[static_cast<std::size_t>(i)] = i;
  for (int i = 0; i < n; ++i) {
    const NodeFusion& f = mp.nodes[static_cast<std::size_t>(i)];
    if (f.residual_add)
      def_time[static_cast<std::size_t>(f.residual_out)] = std::min(
          def_time[static_cast<std::size_t>(f.residual_out)], i);
  }

  struct Range {
    int root = 0;
    int def = 0;
    int last = 0;
    std::size_t floats = 0;
  };
  std::vector<Range> ranges;
  std::vector<int> root_index(static_cast<std::size_t>(n), -1);
  for (int i = 0; i < n; ++i) {
    if (mp.nodes[static_cast<std::size_t>(i)].place_parent != -1) continue;
    Range r;
    r.root = i;
    r.def = def_time[static_cast<std::size_t>(i)];
    r.last = is_output(graph, i) ? n : i;
    r.floats = static_cast<std::size_t>(max_batch) * graph.shape(i).numel();
    root_index[static_cast<std::size_t>(i)] = static_cast<int>(ranges.size());
    ranges.push_back(r);
  }
  // Fold every node's definition and uses into its root's range. A
  // consumer of any member keeps the whole root buffer alive; skipped
  // adds read nothing themselves but their consumers do.
  for (int i = 0; i < n; ++i) {
    const int root = mp.root_of(i, nullptr);
    Range& r = ranges[static_cast<std::size_t>(
        root_index[static_cast<std::size_t>(root)])];
    r.def = std::min(r.def, def_time[static_cast<std::size_t>(i)]);
    if (is_output(graph, i)) r.last = n;
    for (int t : consumers[static_cast<std::size_t>(i)])
      r.last = std::max(r.last, t);
  }

  // Largest-first best-fit: each root takes the lowest offset that
  // avoids every already-placed root whose live range overlaps. This
  // is the classic greedy used by static DNN memory planners — not
  // optimal, but within a few percent on chain-heavy vision graphs.
  std::vector<std::size_t> order(ranges.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (ranges[a].floats != ranges[b].floats)
      return ranges[a].floats > ranges[b].floats;
    return ranges[a].def < ranges[b].def;
  });

  mp.offsets.assign(static_cast<std::size_t>(n), 0);
  std::vector<char> assigned(ranges.size(), 0);
  std::vector<std::pair<std::size_t, std::size_t>> taken;  // offset, end
  for (std::size_t oi : order) {
    const Range& r = ranges[oi];
    taken.clear();
    for (std::size_t pj = 0; pj < ranges.size(); ++pj) {
      if (assigned[pj] == 0) continue;
      const Range& p = ranges[pj];
      if (r.def <= p.last && p.def <= r.last) {
        const std::size_t po =
            mp.offsets[static_cast<std::size_t>(p.root)];
        taken.emplace_back(po, po + p.floats);
      }
    }
    std::sort(taken.begin(), taken.end());
    std::size_t off = 0;
    for (const auto& [lo, hi] : taken) {
      if (off + r.floats <= lo) break;
      off = std::max(off, hi);
    }
    mp.offsets[static_cast<std::size_t>(r.root)] = off;
    assigned[oi] = 1;
    mp.arena_floats = std::max(mp.arena_floats, off + r.floats);
  }
  return mp;
}

}  // namespace ocb::nn
