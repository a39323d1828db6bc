#include "core/model.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "netlist/structural_hash.hpp"
#include "nn/executor.hpp"
#include "nn/kernels.hpp"
#include "nn/serialize.hpp"

namespace deepseq {

using nn::Graph;
using nn::RowRef;
using nn::Tensor;
using nn::Var;

const char* propagation_name(PropagationKind k) {
  switch (k) {
    case PropagationKind::kBaselineDag: return "plain DAG";
    case PropagationKind::kDeepSeqCustom: return "customized";
  }
  return "?";
}

ModelConfig ModelConfig::deepseq(int hidden, int t) {
  ModelConfig c;
  c.aggregator = AggregatorKind::kDualAttention;
  c.propagation = PropagationKind::kDeepSeqCustom;
  c.hidden_dim = hidden;
  c.iterations = t;
  return c;
}

ModelConfig ModelConfig::deepseq_simple_attention(int hidden, int t) {
  ModelConfig c = deepseq(hidden, t);
  c.aggregator = AggregatorKind::kAttention;
  return c;
}

ModelConfig ModelConfig::dag_conv_gnn(AggregatorKind agg, int hidden) {
  ModelConfig c;
  c.aggregator = agg;
  c.propagation = PropagationKind::kBaselineDag;
  c.hidden_dim = hidden;
  c.iterations = 1;
  return c;
}

ModelConfig ModelConfig::dag_rec_gnn(AggregatorKind agg, int hidden, int t) {
  ModelConfig c = dag_conv_gnn(agg, hidden);
  c.iterations = t;
  return c;
}

std::uint64_t mix_config(std::uint64_t h, const ModelConfig& m) {
  h = hash_mix(h, static_cast<std::uint64_t>(m.aggregator));
  h = hash_mix(h, static_cast<std::uint64_t>(m.propagation));
  h = hash_mix(h, static_cast<std::uint64_t>(m.iterations));
  h = hash_mix(h, static_cast<std::uint64_t>(m.hidden_dim));
  return hash_mix(h, m.seed);
}

std::string ModelConfig::description() const {
  std::string base;
  if (propagation == PropagationKind::kDeepSeqCustom) {
    base = "DeepSeq";
  } else {
    base = iterations > 1 ? "DAG-RecGNN" : "DAG-ConvGNN";
  }
  return base + " / " + aggregator_name(aggregator);
}

DeepSeqModel::DeepSeqModel(const ModelConfig& config) : config_(config) {
  Rng rng(config.seed);
  const int d = config.hidden_dim;
  agg_fwd_ = Aggregator(config.aggregator, d, rng, "agg_fwd");
  agg_rev_ = Aggregator(config.aggregator, d, rng, "agg_rev");
  const int in_dim = agg_fwd_.message_dim() + kFeatureDim;
  gru_fwd_ = nn::GruCell(in_dim, d, rng, "gru_fwd");
  gru_rev_ = nn::GruCell(in_dim, d, rng, "gru_rev");
  mlp_tr_ = nn::Mlp({d, d, d, 2}, nn::Activation::kSigmoid, rng, "mlp_tr");
  mlp_lg_ = nn::Mlp({d, d, d, 1}, nn::Activation::kSigmoid, rng, "mlp_lg");
}

namespace {

/// Initial state matrix: PIs hold their workload logic-1 probability in
/// every dimension (and stay fixed); other nodes start from a reproducible
/// uniform-random state (paper §III-B).
Tensor initial_states(const CircuitGraph& graph, const Workload& w, int dim,
                      std::uint64_t init_seed) {
  if (w.pi_prob.size() != graph.pis.size())
    throw Error("DeepSeqModel: workload has " + std::to_string(w.pi_prob.size()) +
                " PI probabilities, circuit has " + std::to_string(graph.pis.size()));
  Rng rng(init_seed);
  Tensor h0(graph.num_nodes, dim);
  for (std::size_t i = 0; i < h0.size(); ++i)
    h0.data()[i] = static_cast<float>(rng.uniform());
  for (std::size_t k = 0; k < graph.pis.size(); ++k) {
    float* row = h0.row(static_cast<int>(graph.pis[k]));
    for (int c = 0; c < dim; ++c) row[c] = static_cast<float>(w.pi_prob[k]);
  }
  for (NodeId v : graph.consts) {
    float* row = h0.row(static_cast<int>(v));
    for (int c = 0; c < dim; ++c) row[c] = 0.0f;
  }
  return h0;
}

/// Run one batched level update: gather operands, aggregate, GRU-combine,
/// and repoint the updated nodes' states at the fresh level matrix. The
/// whole level is recorded under one BatchScope, so the planner sees its op
/// DAG at once: independent ops (the three gathers, the GRU gate matmuls)
/// land in shared waves and large kernels split into row chunks across the
/// executor's threads.
void run_level(Graph& g, const LevelBatch& batch, const Aggregator& agg,
               const nn::GruCell& gru, const Var& features,
               std::vector<RowRef>& state) {
  nn::BatchScope level_scope(g);
  const int num_targets = static_cast<int>(batch.targets.size());
  std::vector<RowRef> target_refs, edge_target_refs, source_refs, feat_refs;
  target_refs.reserve(batch.targets.size());
  feat_refs.reserve(batch.targets.size());
  for (NodeId v : batch.targets) {
    target_refs.push_back(state[v]);
    feat_refs.push_back(RowRef{features, static_cast<int>(v)});
  }
  edge_target_refs.reserve(batch.sources.size());
  source_refs.reserve(batch.sources.size());
  for (std::size_t e = 0; e < batch.sources.size(); ++e) {
    edge_target_refs.push_back(state[batch.targets[batch.segment[e]]]);
    source_refs.push_back(state[batch.sources[e]]);
  }

  const Var hv_prev = g.gather(target_refs);
  const Var hv_prev_edges = g.gather(edge_target_refs);
  const Var hu = g.gather(source_refs);
  const Var m = agg.aggregate(g, hv_prev, hv_prev_edges, hu, batch.segment,
                              num_targets);
  const Var x = g.concat_cols({m, g.gather(feat_refs)});
  const Var h_new = gru.apply(g, x, hv_prev);
  for (int i = 0; i < num_targets; ++i)
    state[batch.targets[i]] = RowRef{h_new, i};
}

/// Direct (graph-free) level update for no-grad propagation: gather the
/// level's state rows into scratch, aggregate, GRU-combine, and write the
/// new rows back into `state`. Every read of the level happens before its
/// write-back, and each op runs the same nn::kernels routine with the same
/// per-element order as run_level's recorded ops, so the result is
/// bit-identical to the graph path.
void run_level_direct(const LevelBatch& batch, const Aggregator& agg,
                      const nn::GruCell& gru, const Tensor& features,
                      Tensor& state, LevelScratch& s) {
  const int num_targets = static_cast<int>(batch.targets.size());
  const int d = state.cols();
  const auto gather = [&](float* dst, std::size_t count, const auto& node_of) {
    for (std::size_t i = 0; i < count; ++i)
      std::copy_n(state.row(static_cast<int>(node_of(i))), d, dst + i * d);
  };
  gather(s.hv.data(), batch.targets.size(),
         [&](std::size_t i) { return batch.targets[i]; });
  gather(s.hv_edges.data(), batch.sources.size(),
         [&](std::size_t e) { return batch.targets[batch.segment[e]]; });
  gather(s.hu.data(), batch.sources.size(),
         [&](std::size_t e) { return batch.sources[e]; });
  agg.aggregate_direct(s, batch.segment, num_targets);

  const int m = agg.message_dim();
  const int in = m + kFeatureDim;
  for (int i = 0; i < num_targets; ++i) {
    float* row = s.x.data() + static_cast<std::size_t>(i) * in;
    std::copy_n(s.message.data() + static_cast<std::size_t>(i) * m, m, row);
    std::copy_n(features.row(static_cast<int>(batch.targets[i])), kFeatureDim,
                row + m);
  }
  gru.apply_direct(s.x.data(), s.hv.data(), num_targets, s.h_new.data(),
                   s.gru.data());
  for (int i = 0; i < num_targets; ++i)
    std::copy_n(s.h_new.data() + static_cast<std::size_t>(i) * d, d,
                state.row(static_cast<int>(batch.targets[i])));
}

/// Kernel calls run_level_direct makes per level, for the trace: three
/// state gathers, the aggregator's calls (Linear + segment sum + degree
/// scaling; or Eq. 5's six; or Eq. 5-7's twelve), the [message | features]
/// concat, the GRU's 20 (three 5-call gates, r*h, the 4-call blend) and
/// the write-back.
int direct_steps_per_level(AggregatorKind kind) {
  const int aggregator = kind == AggregatorKind::kConvSum     ? 4
                         : kind == AggregatorKind::kAttention ? 6
                                                              : 12;
  return 3 + aggregator + 1 + 20 + 1;
}

/// Levels recorded per planner flush. Grouping levels amortizes the
/// executor's helper-enlisting cost and lets the chain planner fuse within
/// and across levels of one group, while bounding how many unexecuted
/// intermediates a pass holds at once. The planner sees the cross-level
/// dependencies, so grouping never reorders computation.
constexpr int kLevelsPerFlush = 64;

/// Run one direction sweep (all levels) in level groups.
void run_sweep(Graph& g, const std::vector<LevelBatch>& levels,
               const Aggregator& agg, const nn::GruCell& gru,
               const Var& features, std::vector<RowRef>& state) {
  std::size_t i = 0;
  while (i < levels.size()) {
    nn::BatchScope group(g);
    const std::size_t end =
        std::min(levels.size(), i + static_cast<std::size_t>(kLevelsPerFlush));
    for (; i < end; ++i) run_level(g, levels[i], agg, gru, features, state);
  }
}

}  // namespace

Tensor DeepSeqModel::propagate_direct(const CircuitGraph& graph,
                                      Tensor state) const {
  // Direct runs never flush, so the SIMD gate is refreshed here instead.
  nn::kernels::refresh_from_env();
  const bool custom = config_.propagation == PropagationKind::kDeepSeqCustom;
  const auto& fwd = custom ? graph.comb_forward : graph.baseline_forward;
  const auto& rev = custom ? graph.comb_reverse : graph.baseline_reverse;
  const int d = config_.hidden_dim;
  LevelScratch s(graph.max_level_targets, graph.max_level_sources, d,
                 agg_fwd_.message_dim(), kFeatureDim);
  const bool ff_copy = custom && !graph.ff_targets.empty();
  Tensor ff_rows(ff_copy ? static_cast<int>(graph.ff_targets.size()) : 0, d);
  int steps = 0, levels = 0, rows = 0;
  const int level_steps = direct_steps_per_level(config_.aggregator);
  const auto sweep = [&](const std::vector<LevelBatch>& batches,
                         const Aggregator& agg, const nn::GruCell& gru) {
    for (const LevelBatch& b : batches) {
      run_level_direct(b, agg, gru, graph.features, state, s);
      steps += level_steps;
      ++levels;
      rows += static_cast<int>(b.targets.size());
    }
  };
  for (int t = 0; t < config_.iterations; ++t) {
    sweep(fwd, agg_fwd_, gru_fwd_);
    sweep(rev, agg_rev_, gru_rev_);
    if (ff_copy) {
      // Step 4 (Fig. 2), two-phase so FF->FF chains shift correctly.
      for (std::size_t k = 0; k < graph.ff_sources.size(); ++k)
        std::copy_n(state.row(static_cast<int>(graph.ff_sources[k])), d,
                    ff_rows.row(static_cast<int>(k)));
      for (std::size_t k = 0; k < graph.ff_targets.size(); ++k)
        std::copy_n(ff_rows.row(static_cast<int>(k)), d,
                    state.row(static_cast<int>(graph.ff_targets[k])));
      steps += 2;
    }
  }
  if (nn::ExecStats* trace = nn::active_exec_trace()) {
    trace->steps += steps;
    trace->levels += levels;
    trace->rows += rows;
    trace->simd_lanes = nn::kernels::lanes();
  }
  return state;
}

Var DeepSeqModel::propagate(Graph& g, const CircuitGraph& graph,
                            const Workload& w, std::uint64_t init_seed) const {
  // Checked here so both paths agree: without it the direct path would
  // return an empty embedding.
  if (graph.num_nodes == 0) throw CircuitError("propagate: empty circuit");
  Tensor h0_states = initial_states(graph, w, config_.hidden_dim, init_seed);
  if (!g.grad_enabled())
    return g.constant(propagate_direct(graph, std::move(h0_states)));

  const Var features = g.constant(graph.features);
  const bool custom = config_.propagation == PropagationKind::kDeepSeqCustom;
  const auto& fwd = custom ? graph.comb_forward : graph.baseline_forward;
  const auto& rev = custom ? graph.comb_reverse : graph.baseline_reverse;
  const Var h0 = g.constant(std::move(h0_states));
  std::vector<RowRef> state(static_cast<std::size_t>(graph.num_nodes));
  for (int v = 0; v < graph.num_nodes; ++v) state[v] = RowRef{h0, v};

  for (int t = 0; t < config_.iterations; ++t) {
    run_sweep(g, fwd, agg_fwd_, gru_fwd_, features, state);
    run_sweep(g, rev, agg_rev_, gru_rev_, features, state);
    if (custom) {
      // Step 4 (Fig. 2): FFs take their D predecessor's representation —
      // the clock edge. Two-phase copy so FF->FF chains shift correctly.
      std::vector<RowRef> next(graph.ff_targets.size());
      for (std::size_t k = 0; k < graph.ff_targets.size(); ++k)
        next[k] = state[graph.ff_sources[k]];
      for (std::size_t k = 0; k < graph.ff_targets.size(); ++k)
        state[graph.ff_targets[k]] = next[k];
    }
  }

  std::vector<RowRef> all;
  all.reserve(static_cast<std::size_t>(graph.num_nodes));
  for (int v = 0; v < graph.num_nodes; ++v) all.push_back(state[v]);
  return g.gather(all);
}

Var DeepSeqModel::embed(Graph& g, const CircuitGraph& graph, const Workload& w,
                        std::uint64_t init_seed) const {
  return propagate(g, graph, w, init_seed);
}

DeepSeqModel::Output DeepSeqModel::regress(Graph& g, const Var& embeddings) const {
  return Output{mlp_tr_.apply(g, embeddings), mlp_lg_.apply(g, embeddings)};
}

DeepSeqModel::Output DeepSeqModel::forward(Graph& g, const CircuitGraph& graph,
                                           const Workload& w,
                                           std::uint64_t init_seed) const {
  return regress(g, propagate(g, graph, w, init_seed));
}

nn::NamedParams DeepSeqModel::params() const {
  nn::NamedParams out = backbone_params();
  mlp_tr_.collect_params(out);
  mlp_lg_.collect_params(out);
  return out;
}

nn::NamedParams DeepSeqModel::head_params() const {
  nn::NamedParams out;
  mlp_tr_.collect_params(out);
  mlp_lg_.collect_params(out);
  return out;
}

nn::NamedParams DeepSeqModel::backbone_params() const {
  nn::NamedParams out;
  agg_fwd_.collect_params(out);
  agg_rev_.collect_params(out);
  gru_fwd_.collect_params(out);
  gru_rev_.collect_params(out);
  return out;
}

void DeepSeqModel::save(const std::string& path) const {
  nn::save_params(path, params());
}

void DeepSeqModel::load(const std::string& path) {
  nn::load_params(path, params());
}

void DeepSeqModel::copy_params_from(const DeepSeqModel& other) {
  const nn::NamedParams mine = params();
  const nn::NamedParams theirs = other.params();
  if (mine.size() != theirs.size())
    throw Error("copy_params_from: architecture mismatch");
  for (std::size_t i = 0; i < mine.size(); ++i) {
    if (mine[i].first != theirs[i].first ||
        !mine[i].second->value.same_shape(theirs[i].second->value))
      throw Error("copy_params_from: parameter mismatch at " + mine[i].first);
    mine[i].second->value = theirs[i].second->value;
  }
}

}  // namespace deepseq
