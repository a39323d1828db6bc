#pragma once

#include <string>
#include <vector>

#include "nn/graph.hpp"

namespace deepseq::nn {

/// Named trainable parameter collection — modules expose their parameters
/// through this so the optimizer and (de)serialization see a flat list.
using NamedParams = std::vector<std::pair<std::string, Var>>;

/// Fully-connected layer: y = x W + b.
class Linear {
 public:
  Linear() = default;
  Linear(int in_dim, int out_dim, Rng& rng, std::string name = "linear");

  Var apply(Graph& g, const Var& x) const;
  /// Graph-free inference twin of apply() over `rows` contiguous rows: the
  /// same nn::kernels calls in the same per-element order, so the result is
  /// bit-identical.
  void apply_direct(const float* x, int rows, float* out) const;

  int in_dim() const { return in_dim_; }
  int out_dim() const { return out_dim_; }
  void collect_params(NamedParams& out) const;

 private:
  int in_dim_ = 0, out_dim_ = 0;
  std::string name_;
  Var w_, b_;
};

enum class Activation { kNone, kRelu, kSigmoid, kTanh };

/// Multi-layer perceptron with ReLU between hidden layers (paper §IV-A3:
/// the regressors are 3-layer MLPs with ReLU) and a configurable final
/// activation (sigmoid for probability outputs).
class Mlp {
 public:
  Mlp() = default;
  /// dims = {in, h1, ..., out}.
  Mlp(const std::vector<int>& dims, Activation final_activation, Rng& rng,
      std::string name = "mlp");

  Var apply(Graph& g, const Var& x) const;
  void collect_params(NamedParams& out) const;

 private:
  std::vector<Linear> layers_;
  Activation final_activation_ = Activation::kNone;
};

/// Gated recurrent unit cell, the paper's Combine function (Eq. 8):
///   z = sigmoid(x Wz + h Uz + bz)
///   r = sigmoid(x Wr + h Ur + br)
///   n = tanh(x Wn + (r*h) Un + bn)
///   h' = (1 - z) * n + z * h
class GruCell {
 public:
  GruCell() = default;
  GruCell(int in_dim, int hidden_dim, Rng& rng, std::string name = "gru");

  Var apply(Graph& g, const Var& x, const Var& h) const;
  /// Graph-free inference twin of apply() over `rows` contiguous rows of x
  /// and h, bit-identical to it (same kernels, same per-element order).
  /// `tmp` holds 4 * rows * hidden_dim() floats.
  void apply_direct(const float* x, const float* h, int rows, float* out,
                    float* tmp) const;

  int in_dim() const { return in_dim_; }
  int hidden_dim() const { return hidden_dim_; }
  void collect_params(NamedParams& out) const;

 private:
  int in_dim_ = 0, hidden_dim_ = 0;
  std::string name_;
  Var wz_, wr_, wn_;  // in -> hidden
  Var uz_, ur_, un_;  // hidden -> hidden
  Var bz_, br_, bn_;
};

}  // namespace deepseq::nn
