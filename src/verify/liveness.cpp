// Liveness / aliasing soundness (check family (a), DESIGN.md §15).
//
// Everything here is re-derived from the Graph and the plan's raw
// decisions (place_parent / offsets / skip / residual_*) — never from
// MemoryPlan::root_of or the planner's own interval bookkeeping — so a
// bug in nn/fusion.cpp cannot certify itself.
//
// The timeline model: node indices are execution time (the graph is
// topological and the engine runs nodes in order). A buffer's content
// is *written* when any member of its root writes — a node normally
// writes at its own index, but a residual-folded Add's buffer is
// written by the folding conv (earlier), and a concat member placed
// into its parent writes the parent's bytes at the member's own index.
// A buffer is *read* whenever a consumer of any member executes (a
// skipped Add reads nothing itself — its reads happen at the folding
// conv, which preloads the residual operand), and at time n (one past
// the last node) for graph outputs the caller materializes. Two root
// buffers may share arena bytes only when their [first-write,
// last-read] windows are disjoint; windows are inclusive because a
// node that reads one buffer while writing the other at the same bytes
// is an in-place overwrite none of the conv kernels tolerate.
#include <algorithm>
#include <string>
#include <vector>

#include "verify/verify.hpp"

namespace ocb::verify::detail {

namespace {

/// Within-image float offset of input slot `slot` inside concat node
/// `k`'s buffer — re-derived from the graph's channel layout.
std::size_t concat_slot_offset(const nn::Graph& graph, int k,
                               std::size_t slot) {
  const nn::Node& nd = graph.node(k);
  const std::size_t hw = static_cast<std::size_t>(graph.shape(k).h) *
                         static_cast<std::size_t>(graph.shape(k).w);
  std::size_t off = 0;
  for (std::size_t a = 0; a < slot; ++a)
    off += static_cast<std::size_t>(graph.shape(nd.inputs[a]).c) * hw;
  return off;
}

}  // namespace

Placement resolve_placement(const PlanSnapshot& snap, Report& report) {
  const int n = snap.graph.node_count();
  Placement pl;
  pl.root.assign(static_cast<std::size_t>(n), -1);
  pl.offset.assign(static_cast<std::size_t>(n), 0);
  pl.ok.assign(static_cast<std::size_t>(n), 0);

  for (int i = 0; i < n; ++i) {
    // Walk the chain with an explicit step bound: any chain longer
    // than n nodes must revisit a node, i.e. cycle.
    int cur = i;
    std::size_t off = 0;
    bool ok = true;
    for (int steps = 0; steps <= n; ++steps) {
      const int parent =
          snap.fusion.nodes[static_cast<std::size_t>(cur)].place_parent;
      if (parent == -1) break;
      if (parent < 0 || parent >= n) {
        add_finding(report, CheckId::kPlacementChain, i,
                    "placement parent " + std::to_string(parent) +
                        " out of range");
        ok = false;
        break;
      }
      off += snap.fusion.nodes[static_cast<std::size_t>(cur)]
                 .place_offset_floats;
      cur = parent;
      if (steps == n) {
        add_finding(report, CheckId::kPlacementChain, i,
                    "placement chain never reaches a root (cycle)");
        ok = false;
      }
    }
    if (!ok) continue;
    pl.root[static_cast<std::size_t>(i)] = cur;
    pl.offset[static_cast<std::size_t>(i)] = off;
    pl.ok[static_cast<std::size_t>(i)] = 1;
  }

  // Structural legality of each direct placement edge: a node may only
  // live inside (1) a concat it feeds, at exactly the channel offset of
  // its slot — anywhere else and the concat's skipped copy leaves the
  // result scrambled — or (2) the other operand of a residual Add that
  // was folded onto it (the in-place alias), at offset zero.
  for (int i = 0; i < n; ++i) {
    const nn::NodeFusion& f = snap.fusion.nodes[static_cast<std::size_t>(i)];
    const int parent = f.place_parent;
    if (parent < 0 || parent >= n) continue;
    const nn::Node& pn = snap.graph.node(parent);
    if (pn.kind == nn::OpKind::kConcat) {
      bool slot_found = false;
      for (std::size_t a = 0; a < pn.inputs.size(); ++a) {
        if (pn.inputs[a] != i) continue;
        slot_found = true;
        const std::size_t want = concat_slot_offset(snap.graph, parent, a);
        if (f.place_offset_floats != want) {
          add_finding(report, CheckId::kPlacementChain, i,
                      "placed at offset " +
                          std::to_string(f.place_offset_floats) +
                          " inside concat " + std::to_string(parent) +
                          " but its slot starts at " + std::to_string(want));
        }
        break;  // first slot only; duplicated operands checked below
      }
      if (!slot_found) {
        add_finding(report, CheckId::kPlacementChain, i,
                    "placed inside concat " + std::to_string(parent) +
                        " it does not feed");
      } else if (std::count(pn.inputs.begin(), pn.inputs.end(), i) != 1) {
        // A duplicated operand occupies two slots; one buffer cannot
        // sit at both offsets, so the elided copy is wrong for one.
        add_finding(report, CheckId::kPlacementChain, i,
                    "placed operand appears more than once in concat " +
                        std::to_string(parent) + "'s inputs");
      }
    } else {
      // Residual alias: node i must be a folded-away Add whose fold
      // names `parent` as the preloaded operand. fusion_check.cpp
      // proves the alias is safe; here we prove the edge is the shape
      // it claims to be.
      bool alias_edge = false;
      if (snap.graph.node(i).kind == nn::OpKind::kAdd && f.skip) {
        for (int c = 0; c < n; ++c) {
          const nn::NodeFusion& cf =
              snap.fusion.nodes[static_cast<std::size_t>(c)];
          if (cf.residual_add && cf.residual_out == i &&
              cf.residual_src == parent) {
            alias_edge = true;
            break;
          }
        }
      }
      if (!alias_edge) {
        add_finding(report, CheckId::kPlacementChain, i,
                    "placed inside node " + std::to_string(parent) +
                        ", which is neither a consumed concat nor this "
                        "fold's residual operand");
      } else if (f.place_offset_floats != 0) {
        add_finding(report, CheckId::kPlacementChain, i,
                    "residual alias carries a nonzero offset");
      }
    }
  }
  return pl;
}

void check_liveness(const PlanSnapshot& snap, const Placement& placement,
                    Report& report) {
  const int n = snap.graph.node_count();
  const std::size_t batch = static_cast<std::size_t>(snap.max_batch);

  // --- View bounds: every placed member inside its root ------------
  for (int i = 0; i < n; ++i) {
    const std::size_t ui = static_cast<std::size_t>(i);
    if (placement.ok[ui] == 0) continue;
    const int root = placement.root[ui];
    if (root == i) continue;
    const std::size_t extent =
        placement.offset[ui] + snap.graph.shape(i).numel();
    const std::size_t root_numel = snap.graph.shape(root).numel();
    if (extent > root_numel) {
      add_finding(report, CheckId::kViewBounds, i,
                  "view [" + std::to_string(placement.offset[ui]) + ", " +
                      std::to_string(extent) + ") escapes root " +
                      std::to_string(root) + "'s " +
                      std::to_string(root_numel) + "-float image");
    }
  }

  // Sibling views placed into the same root must not overlap within an
  // image: each writes its range independently, so a shared byte means
  // one member's output silently clobbers another's.
  struct View {
    int node;
    std::size_t lo, hi;
  };
  std::vector<std::vector<View>> by_root(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const std::size_t ui = static_cast<std::size_t>(i);
    if (placement.ok[ui] == 0 || placement.root[ui] == i) continue;
    // A residual alias shares its operand's bytes *by design* (the sum
    // forms in place); only concat-style disjoint views participate.
    const nn::NodeFusion& f = snap.fusion.nodes[ui];
    if (f.place_parent >= 0 &&
        snap.graph.node(f.place_parent).kind != nn::OpKind::kConcat)
      continue;
    by_root[static_cast<std::size_t>(placement.root[ui])].push_back(
        View{i, placement.offset[ui],
             placement.offset[ui] + snap.graph.shape(i).numel()});
  }
  for (std::size_t r = 0; r < by_root.size(); ++r) {
    std::vector<View>& views = by_root[r];
    std::sort(views.begin(), views.end(),
              [](const View& a, const View& b) { return a.lo < b.lo; });
    for (std::size_t v = 1; v < views.size(); ++v) {
      if (views[v].lo < views[v - 1].hi) {
        add_finding(report, CheckId::kViewBounds, views[v].node,
                    "view overlaps sibling node " +
                        std::to_string(views[v - 1].node) + " inside root " +
                        std::to_string(r));
      }
    }
  }

  // --- Interval analysis over the arena -----------------------------
  // Who writes each node's *content*: the node itself, unless a
  // residual fold redirects a conv's output into it.
  std::vector<int> writer(static_cast<std::size_t>(n), -1);
  for (int i = 0; i < n; ++i) {
    if (snap.fusion.nodes[static_cast<std::size_t>(i)].skip) continue;
    writer[static_cast<std::size_t>(i)] = i;
  }
  for (int c = 0; c < n; ++c) {
    const nn::NodeFusion& cf = snap.fusion.nodes[static_cast<std::size_t>(c)];
    if (!cf.residual_add) continue;
    const int out = cf.residual_out;
    if (out >= 0 && out < n) writer[static_cast<std::size_t>(out)] = c;
    // The fold also *reads* residual_src at conv time (preload /
    // accumulate); modelled below as a read of src at time c.
  }

  struct Interval {
    bool live = false;
    int def = 0;
    int last = 0;
    std::size_t lo = 0, hi = 0;  // arena float range
  };
  std::vector<Interval> intervals(static_cast<std::size_t>(n));

  // Fold every member's writes and reads into its root's window.
  auto touch = [&](int root, int time) {
    Interval& iv = intervals[static_cast<std::size_t>(root)];
    if (!iv.live) {
      iv.live = true;
      iv.def = time;
      iv.last = time;
    } else {
      iv.def = std::min(iv.def, time);
      iv.last = std::max(iv.last, time);
    }
  };
  const std::vector<int>& outs = snap.graph.outputs();
  for (int i = 0; i < n; ++i) {
    const std::size_t ui = static_cast<std::size_t>(i);
    if (placement.ok[ui] == 0) continue;
    const int root = placement.root[ui];
    if (placement.ok[static_cast<std::size_t>(root)] == 0) continue;
    if (writer[ui] >= 0) touch(root, writer[ui]);
    if (std::find(outs.begin(), outs.end(), i) != outs.end())
      touch(root, n);  // materialized after the pass
  }
  for (int j = 0; j < n; ++j) {
    // Node j reading input s touches s's root — unless j is a skipped
    // Add (it executes nothing; the folding conv's read of
    // residual_src is accounted at the conv's own time).
    const std::size_t ju = static_cast<std::size_t>(j);
    const bool j_skipped = snap.fusion.nodes[ju].skip;
    for (int s : snap.graph.node(j).inputs) {
      const std::size_t su = static_cast<std::size_t>(s);
      if (placement.ok[su] == 0) continue;
      const int root = placement.root[su];
      if (placement.ok[static_cast<std::size_t>(root)] == 0) continue;
      if (!j_skipped) {
        touch(root, j);
        continue;
      }
      // Skipped add: its fold's conv reads residual_src at conv time.
      for (int c = 0; c < n; ++c) {
        const nn::NodeFusion& cf =
            snap.fusion.nodes[static_cast<std::size_t>(c)];
        if (cf.residual_add && cf.residual_out == j &&
            cf.residual_src == s) {
          touch(root, c);
        }
      }
    }
  }

  // Arena byte ranges and root-extent bounds.
  for (int i = 0; i < n; ++i) {
    const std::size_t ui = static_cast<std::size_t>(i);
    Interval& iv = intervals[ui];
    if (!iv.live) continue;
    if (placement.root[ui] != i) {
      iv.live = false;  // only roots own arena ranges
      continue;
    }
    iv.lo = snap.fusion.offsets[ui];
    iv.hi = iv.lo + batch * snap.graph.shape(i).numel();
    if (iv.hi > snap.fusion.arena_floats) {
      add_finding(report, CheckId::kViewBounds, i,
                  "root block [" + std::to_string(iv.lo) + ", " +
                      std::to_string(iv.hi) + ") escapes the " +
                      std::to_string(snap.fusion.arena_floats) +
                      "-float arena");
      // Still participates in the overlap pass below: a block that
      // escapes the arena can also collide with in-bounds neighbours,
      // and both defects deserve findings.
    }
  }

  // Pairwise: simultaneously-live roots must not share bytes.
  for (int a = 0; a < n; ++a) {
    const Interval& ia = intervals[static_cast<std::size_t>(a)];
    if (!ia.live) continue;
    for (int b = a + 1; b < n; ++b) {
      const Interval& ib = intervals[static_cast<std::size_t>(b)];
      if (!ib.live) continue;
      const bool time_overlap = ia.def <= ib.last && ib.def <= ia.last;
      const bool byte_overlap = ia.lo < ib.hi && ib.lo < ia.hi;
      if (time_overlap && byte_overlap) {
        add_finding(
            report, CheckId::kLivenessOverlap, a,
            "live over [" + std::to_string(ia.def) + ", " +
                std::to_string(ia.last) + "] at floats [" +
                std::to_string(ia.lo) + ", " + std::to_string(ia.hi) +
                ") collides with node " + std::to_string(b) + " live [" +
                std::to_string(ib.def) + ", " + std::to_string(ib.last) +
                "] at [" + std::to_string(ib.lo) + ", " +
                std::to_string(ib.hi) + ")");
      }
    }
  }
}

}  // namespace ocb::verify::detail
