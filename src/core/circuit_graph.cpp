#include "core/circuit_graph.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace deepseq {

int feature_index(GateType t) {
  switch (t) {
    // A constant-0 node is a primary input pinned to logic-1 probability 0
    // (optimization keeps one when a PO cone is constant), so it shares the
    // PI feature slot and is pinned like a PI during propagation.
    case GateType::kConst0: return 0;
    case GateType::kPi: return 0;
    case GateType::kAnd: return 1;
    case GateType::kNot: return 2;
    case GateType::kFf: return 3;
    default:
      throw CircuitError("feature_index: node type " +
                         std::string(gate_type_name(t)) +
                         " is not part of the sequential AIG vocabulary");
  }
}

namespace {

bool is_gate(GateType t) { return t == GateType::kAnd || t == GateType::kNot; }

/// Forward batches from a level structure + fanin provider: one batch per
/// level >= 1 with every updatable node that has at least one predecessor.
template <typename FaninsOf, typename Updatable>
std::vector<LevelBatch> forward_batches(const Levelization& lv,
                                        FaninsOf&& fanins_of,
                                        Updatable&& updatable) {
  std::vector<LevelBatch> out;
  for (std::size_t l = 1; l < lv.by_level.size(); ++l) {
    LevelBatch batch;
    for (NodeId v : lv.by_level[l]) {
      if (!updatable(v)) continue;
      const auto& fi = fanins_of(v);
      if (fi.empty()) continue;
      const int t = static_cast<int>(batch.targets.size());
      batch.targets.push_back(v);
      for (NodeId u : fi) {
        batch.sources.push_back(u);
        batch.segment.push_back(t);
      }
    }
    if (!batch.empty()) out.push_back(std::move(batch));
  }
  return out;
}

/// Reverse batches: walk levels in descending order; each updatable node
/// aggregates from its successors (fanout list).
template <typename Updatable>
std::vector<LevelBatch> reverse_batches(
    const Levelization& lv, const std::vector<std::vector<NodeId>>& fanouts,
    Updatable&& updatable) {
  std::vector<LevelBatch> out;
  for (std::size_t li = lv.by_level.size(); li-- > 1;) {
    LevelBatch batch;
    for (NodeId v : lv.by_level[li]) {
      if (!updatable(v)) continue;
      if (fanouts[v].empty()) continue;
      const int t = static_cast<int>(batch.targets.size());
      batch.targets.push_back(v);
      for (NodeId u : fanouts[v]) {
        batch.sources.push_back(u);
        batch.segment.push_back(t);
      }
    }
    if (!batch.empty()) out.push_back(std::move(batch));
  }
  return out;
}

}  // namespace

CircuitGraph build_circuit_graph(const Circuit& c) {
  CircuitGraph g;
  g.num_nodes = static_cast<int>(c.num_nodes());
  g.pis = c.pis();
  for (NodeId v = 0; v < c.num_nodes(); ++v)
    if (c.type(v) == GateType::kConst0) g.consts.push_back(v);

  g.features = nn::Tensor(g.num_nodes, kFeatureDim);
  for (NodeId v = 0; v < c.num_nodes(); ++v)
    g.features.at(static_cast<int>(v), feature_index(c.type(v))) = 1.0f;

  // ---- customized propagation structure (comb view, Fig. 2) --------------
  g.comb = comb_levelize(c);
  auto comb_fanins = [&](NodeId v) {
    static thread_local std::vector<NodeId> buf;
    buf.clear();
    for (int i = 0; i < c.num_fanins(v); ++i) buf.push_back(c.fanin(v, i));
    return buf;
  };
  auto gate_only = [&](NodeId v) { return is_gate(c.type(v)); };
  g.comb_forward = forward_batches(g.comb, comb_fanins, gate_only);

  const auto fanouts = c.fanouts();  // includes FF D-read edges
  g.comb_reverse = reverse_batches(g.comb, fanouts, gate_only);

  for (NodeId ff : c.ffs()) {
    g.ff_targets.push_back(ff);
    g.ff_sources.push_back(c.fanin(ff, 0));
  }

  // ---- baseline DAG structure ---------------------------------------------
  const AcyclicView av = make_acyclic_view(c);
  auto av_fanins = [&](NodeId v) -> const std::vector<NodeId>& {
    return av.fanins[v];
  };
  auto non_pi = [&](NodeId v) {
    return c.type(v) != GateType::kPi && c.type(v) != GateType::kConst0;
  };
  g.baseline_forward = forward_batches(av.levels, av_fanins, non_pi);

  std::vector<std::vector<NodeId>> av_fanouts(c.num_nodes());
  for (NodeId v = 0; v < c.num_nodes(); ++v)
    for (NodeId u : av.fanins[v]) av_fanouts[u].push_back(v);
  g.baseline_reverse = reverse_batches(av.levels, av_fanouts, non_pi);

  for (const auto* sweep : {&g.comb_forward, &g.comb_reverse,
                            &g.baseline_forward, &g.baseline_reverse})
    for (const LevelBatch& b : *sweep) {
      g.max_level_targets =
          std::max(g.max_level_targets, static_cast<int>(b.targets.size()));
      g.max_level_sources =
          std::max(g.max_level_sources, static_cast<int>(b.sources.size()));
    }
  return g;
}

}  // namespace deepseq
