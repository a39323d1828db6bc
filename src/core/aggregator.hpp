#pragma once

#include <string>
#include <vector>

#include "nn/graph.hpp"
#include "nn/modules.hpp"

namespace deepseq {

/// The aggregation functions compared in Tables II/III.
enum class AggregatorKind {
  kConvSum,       // degree-normalized convolutional sum [12]
  kAttention,     // additive attention, DeepGate/DAGNN style [14][16] (Eq. 5)
  kDualAttention  // the paper's contribution (Eq. 5-7)
};

const char* aggregator_name(AggregatorKind k);

/// Buffers of one direct (graph-free) level update, sized once per
/// propagation from the circuit's largest level (l targets, e in-edges) and
/// reused by every level of every sweep. Row-major; d = hidden width, m =
/// message width, f = feature width.
struct LevelScratch {
  LevelScratch(std::size_t l, std::size_t e, std::size_t d, std::size_t m,
               std::size_t f)
      : hv(l * d), hv_edges(e * d), hu(e * d), x(l * (m + f)), h_new(l * d),
        gru(4 * l * d), edge_rows(e * d), edge_a(e), edge_b(e), alpha(e),
        rows_a(l * d), rows_b(l * d), col_a(l), col_b(l), message(l * m),
        seg_max(l), seg_sum(l) {}

  std::vector<float> hv, hv_edges, hu;  // gathered states: l/e/e rows
  std::vector<float> x;      // GRU input rows [message | features]
  std::vector<float> h_new;  // GRU output rows
  std::vector<float> gru;    // GruCell::apply_direct temporaries
  std::vector<float> edge_rows, edge_a, edge_b, alpha;  // aggregator, per edge
  std::vector<float> rows_a, rows_b, col_a, col_b;      // aggregator, per target
  std::vector<float> message;                           // aggregator output
  std::vector<float> seg_max;
  std::vector<double> seg_sum;
};

/// Parameterized aggregator producing the per-target message matrix.
///
/// Inputs (built by the propagation loop from the state map):
///   hv_prev_targets — (L x d) state of each target before this update
///   hv_prev_edges   — (E x d) target state replicated along its in-edges
///   hu              — (E x d) source states
///   segment         — edge -> target row index
///
/// Output message width is hidden_dim for conv-sum / attention, and
/// 2*hidden_dim for dual attention (m_TR || m_LG, Eq. 7).
class Aggregator {
 public:
  Aggregator() = default;
  Aggregator(AggregatorKind kind, int hidden_dim, Rng& rng, std::string name);

  AggregatorKind kind() const { return kind_; }
  int message_dim() const;

  nn::Var aggregate(nn::Graph& g, const nn::Var& hv_prev_targets,
                    const nn::Var& hv_prev_edges, const nn::Var& hu,
                    const std::vector<int>& segment, int num_targets) const;

  /// Graph-free inference twin of aggregate(): reads s.hv / s.hv_edges /
  /// s.hu and writes the num_targets x message_dim() message into
  /// s.message, calling the same nn::kernels in the same per-element order
  /// as the recorded ops, so the result is bit-identical.
  void aggregate_direct(LevelScratch& s, const std::vector<int>& segment,
                        int num_targets) const;

  void collect_params(nn::NamedParams& out) const;

 private:
  AggregatorKind kind_ = AggregatorKind::kConvSum;
  int dim_ = 0;
  std::string name_;
  nn::Linear conv_w_;            // conv-sum
  nn::Var att_w1_, att_w2_;      // Eq. 5 attention scores
  nn::Var gate_w1_, gate_w2_;    // Eq. 6 transition gate (dual attention)
};

}  // namespace deepseq
