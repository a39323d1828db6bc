#include "core/aggregator.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "nn/kernels.hpp"

namespace deepseq {

namespace {

/// 1 / in-degree per target (0 for a target without in-edges).
void inverse_degree(const std::vector<int>& segment, int num_targets,
                    float* inv_deg) {
  std::fill_n(inv_deg, num_targets, 0.0f);
  for (const int s : segment) inv_deg[s] += 1.0f;
  for (int i = 0; i < num_targets; ++i)
    inv_deg[i] = inv_deg[i] > 0 ? 1.0f / inv_deg[i] : 0.0f;
}

}  // namespace

using nn::Graph;
using nn::Tensor;
using nn::Var;

const char* aggregator_name(AggregatorKind k) {
  switch (k) {
    case AggregatorKind::kConvSum: return "Conv. Sum";
    case AggregatorKind::kAttention: return "Attention";
    case AggregatorKind::kDualAttention: return "Dual Attention";
  }
  return "?";
}

Aggregator::Aggregator(AggregatorKind kind, int hidden_dim, Rng& rng,
                       std::string name)
    : kind_(kind), dim_(hidden_dim), name_(std::move(name)) {
  switch (kind_) {
    case AggregatorKind::kConvSum:
      conv_w_ = nn::Linear(hidden_dim, hidden_dim, rng, name_ + ".conv");
      break;
    case AggregatorKind::kDualAttention:
      gate_w1_ = nn::make_param(Tensor::xavier(hidden_dim, 1, rng));
      gate_w2_ = nn::make_param(Tensor::xavier(hidden_dim, 1, rng));
      [[fallthrough]];
    case AggregatorKind::kAttention:
      att_w1_ = nn::make_param(Tensor::xavier(hidden_dim, 1, rng));
      att_w2_ = nn::make_param(Tensor::xavier(hidden_dim, 1, rng));
      break;
  }
}

int Aggregator::message_dim() const {
  return kind_ == AggregatorKind::kDualAttention ? 2 * dim_ : dim_;
}

Var Aggregator::aggregate(Graph& g, const Var& hv_prev_targets,
                          const Var& hv_prev_edges, const Var& hu,
                          const std::vector<int>& segment,
                          int num_targets) const {
  switch (kind_) {
    case AggregatorKind::kConvSum: {
      // Degree-normalized sum of linearly transformed source states.
      const Var lin = conv_w_.apply(g, hu);
      const Var summed = g.segment_sum(lin, segment, num_targets);
      Tensor inv_deg(num_targets, 1);
      inverse_degree(segment, num_targets, inv_deg.data());
      return g.mul_col(summed, g.constant(std::move(inv_deg)));
    }
    case AggregatorKind::kAttention: {
      // Eq. 5: alpha_uv = softmax_u(w1^T h_v^(t-1) + w2^T h_u^t).
      const Var scores =
          g.add(g.matmul(hv_prev_edges, att_w1_), g.matmul(hu, att_w2_));
      const Var alpha = g.segment_softmax(scores, segment, num_targets);
      return g.segment_sum(g.mul_col(hu, alpha), segment, num_targets);
    }
    case AggregatorKind::kDualAttention: {
      // Eq. 5 for the logic-probability message m_LG.
      const Var scores =
          g.add(g.matmul(hv_prev_edges, att_w1_), g.matmul(hu, att_w2_));
      const Var alpha = g.segment_softmax(scores, segment, num_targets);
      const Var m_lg = g.segment_sum(g.mul_col(hu, alpha), segment, num_targets);
      // Eq. 6: a gate between the node's previous state and its fresh logic
      // message. The paper writes this as a softmax over a single logit,
      // which is identically one; we realize the additive-attention form as
      // a sigmoid gate (see DESIGN.md).
      const Var gate_scores =
          g.add(g.matmul(hv_prev_targets, gate_w1_), g.matmul(m_lg, gate_w2_));
      const Var m_tr = g.mul_col(m_lg, g.sigmoid(gate_scores));
      // Eq. 7: final message m_TR || m_LG.
      return g.concat_cols({m_tr, m_lg});
    }
  }
  throw Error("Aggregator::aggregate: unknown kind");
}

void Aggregator::aggregate_direct(LevelScratch& s,
                                  const std::vector<int>& segment,
                                  int num_targets) const {
  namespace k = nn::kernels;
  const int edges = static_cast<int>(segment.size());
  const int d = dim_;
  const std::size_t target_floats = static_cast<std::size_t>(num_targets) * d;
  if (kind_ == AggregatorKind::kConvSum) {
    conv_w_.apply_direct(s.hu.data(), edges, s.edge_rows.data());
    std::fill_n(s.rows_a.data(), target_floats, 0.0f);
    k::segment_sum(s.rows_a.data(), s.edge_rows.data(), segment.data(), edges,
                   d, 0, d);
    inverse_degree(segment, num_targets, s.col_a.data());
    k::mul_col(s.message.data(), s.rows_a.data(), s.col_a.data(), num_targets,
               d);
    return;
  }
  // Eq. 5: logic-probability message m_LG.
  const bool dual = kind_ == AggregatorKind::kDualAttention;
  float* m_lg = dual ? s.rows_a.data() : s.message.data();
  k::matmul(s.hv_edges.data(), att_w1_->value.data(), s.edge_a.data(), edges,
            d, 1);
  k::matmul(s.hu.data(), att_w2_->value.data(), s.edge_b.data(), edges, d, 1);
  k::add(s.edge_a.data(), s.edge_a.data(), s.edge_b.data(),
         static_cast<std::size_t>(edges));
  k::segment_softmax(s.alpha.data(), s.edge_a.data(), segment.data(), edges,
                     num_targets, s.seg_max.data(), s.seg_sum.data());
  k::mul_col(s.edge_rows.data(), s.hu.data(), s.alpha.data(), edges, d);
  std::fill_n(m_lg, target_floats, 0.0f);
  k::segment_sum(m_lg, s.edge_rows.data(), segment.data(), edges, d, 0, d);
  if (!dual) return;
  // Eq. 6 gate and Eq. 7 concatenation m_TR || m_LG.
  float* gate = s.col_a.data();
  k::matmul(s.hv.data(), gate_w1_->value.data(), gate, num_targets, d, 1);
  k::matmul(m_lg, gate_w2_->value.data(), s.col_b.data(), num_targets, d, 1);
  k::add(gate, gate, s.col_b.data(), static_cast<std::size_t>(num_targets));
  k::sigmoid(gate, gate, static_cast<std::size_t>(num_targets));
  k::mul_col(s.rows_b.data(), m_lg, gate, num_targets, d);
  for (int i = 0; i < num_targets; ++i) {
    float* row = s.message.data() + static_cast<std::size_t>(i) * 2 * d;
    std::copy_n(s.rows_b.data() + static_cast<std::size_t>(i) * d, d, row);
    std::copy_n(m_lg + static_cast<std::size_t>(i) * d, d, row + d);
  }
}

void Aggregator::collect_params(nn::NamedParams& out) const {
  switch (kind_) {
    case AggregatorKind::kConvSum:
      conv_w_.collect_params(out);
      break;
    case AggregatorKind::kDualAttention:
      out.emplace_back(name_ + ".gate_w1", gate_w1_);
      out.emplace_back(name_ + ".gate_w2", gate_w2_);
      [[fallthrough]];
    case AggregatorKind::kAttention:
      out.emplace_back(name_ + ".att_w1", att_w1_);
      out.emplace_back(name_ + ".att_w2", att_w2_);
      break;
  }
}

}  // namespace deepseq
