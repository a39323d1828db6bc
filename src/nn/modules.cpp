#include "nn/modules.hpp"

#include "common/error.hpp"
#include "nn/kernels.hpp"

namespace deepseq::nn {

Linear::Linear(int in_dim, int out_dim, Rng& rng, std::string name)
    : in_dim_(in_dim),
      out_dim_(out_dim),
      name_(std::move(name)),
      w_(make_param(Tensor::xavier(in_dim, out_dim, rng))),
      b_(make_param(Tensor(1, out_dim))) {}

Var Linear::apply(Graph& g, const Var& x) const {
  return g.add_row(g.matmul(x, w_), b_);
}

void Linear::apply_direct(const float* x, int rows, float* out) const {
  kernels::matmul(x, w_->value.data(), out, rows, in_dim_, out_dim_);
  kernels::add_row(out, out, b_->value.data(), rows, out_dim_);
}

void Linear::collect_params(NamedParams& out) const {
  out.emplace_back(name_ + ".w", w_);
  out.emplace_back(name_ + ".b", b_);
}

Mlp::Mlp(const std::vector<int>& dims, Activation final_activation, Rng& rng,
         std::string name)
    : final_activation_(final_activation) {
  if (dims.size() < 2) throw Error("Mlp: need at least in/out dims");
  for (std::size_t i = 0; i + 1 < dims.size(); ++i)
    layers_.emplace_back(dims[i], dims[i + 1], rng,
                         name + ".l" + std::to_string(i));
}

Var Mlp::apply(Graph& g, const Var& x) const {
  Var h = x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    h = layers_[i].apply(g, h);
    if (i + 1 < layers_.size()) h = g.relu(h);
  }
  switch (final_activation_) {
    case Activation::kNone: return h;
    case Activation::kRelu: return g.relu(h);
    case Activation::kSigmoid: return g.sigmoid(h);
    case Activation::kTanh: return g.tanh_(h);
  }
  throw Error("Mlp: unknown activation");
}

void Mlp::collect_params(NamedParams& out) const {
  for (const auto& l : layers_) l.collect_params(out);
}

GruCell::GruCell(int in_dim, int hidden_dim, Rng& rng, std::string name)
    : in_dim_(in_dim),
      hidden_dim_(hidden_dim),
      name_(std::move(name)),
      wz_(make_param(Tensor::xavier(in_dim, hidden_dim, rng))),
      wr_(make_param(Tensor::xavier(in_dim, hidden_dim, rng))),
      wn_(make_param(Tensor::xavier(in_dim, hidden_dim, rng))),
      uz_(make_param(Tensor::xavier(hidden_dim, hidden_dim, rng))),
      ur_(make_param(Tensor::xavier(hidden_dim, hidden_dim, rng))),
      un_(make_param(Tensor::xavier(hidden_dim, hidden_dim, rng))),
      bz_(make_param(Tensor(1, hidden_dim))),
      br_(make_param(Tensor(1, hidden_dim))),
      bn_(make_param(Tensor(1, hidden_dim))) {}

Var GruCell::apply(Graph& g, const Var& x, const Var& h) const {
  if (x->value.cols() != in_dim_)
    throw ShapeError("GruCell: input dim mismatch, expected " +
                     std::to_string(in_dim_) + ", got " +
                     std::to_string(x->value.cols()));
  if (h->value.cols() != hidden_dim_)
    throw ShapeError("GruCell: hidden dim mismatch");
  const Var z = g.sigmoid(g.add_row(g.add(g.matmul(x, wz_), g.matmul(h, uz_)), bz_));
  const Var r = g.sigmoid(g.add_row(g.add(g.matmul(x, wr_), g.matmul(h, ur_)), br_));
  const Var n = g.tanh_(g.add_row(g.add(g.matmul(x, wn_), g.matmul(g.mul(r, h), un_)), bn_));
  return g.add(g.mul(g.one_minus(z), n), g.mul(z, h));
}

void GruCell::apply_direct(const float* x, const float* h, int rows,
                           float* out, float* tmp) const {
  namespace k = kernels;
  const int d = hidden_dim_;
  const std::size_t n = static_cast<std::size_t>(rows) * d;
  float* z = tmp;
  float* r = tmp + n;
  float* a = tmp + 2 * n;
  float* b = tmp + 3 * n;
  // One gate: act((x W) + (h U) + bias), as apply() records it.
  const auto gate = [&](const Var& w, const float* hin, const Var& u,
                        const Var& bias, float* dst, bool tanh_act) {
    k::matmul(x, w->value.data(), a, rows, in_dim_, d);
    k::matmul(hin, u->value.data(), b, rows, d, d);
    k::add(a, a, b, n);
    k::add_row(a, a, bias->value.data(), rows, d);
    if (tanh_act) {
      k::tanh_(dst, a, n);
    } else {
      k::sigmoid(dst, a, n);
    }
  };
  gate(wz_, h, uz_, bz_, z, false);
  gate(wr_, h, ur_, br_, r, false);
  k::mul(r, r, h, n);  // r * h
  gate(wn_, r, un_, bn_, a, true);  // n lands in `a`, read before reuse
  k::one_minus(r, z, n);
  k::mul(r, r, a, n);  // (1 - z) * n
  k::mul(b, z, h, n);  // z * h
  k::add(out, r, b, n);
}

void GruCell::collect_params(NamedParams& out) const {
  out.emplace_back(name_ + ".wz", wz_);
  out.emplace_back(name_ + ".wr", wr_);
  out.emplace_back(name_ + ".wn", wn_);
  out.emplace_back(name_ + ".uz", uz_);
  out.emplace_back(name_ + ".ur", ur_);
  out.emplace_back(name_ + ".un", un_);
  out.emplace_back(name_ + ".bz", bz_);
  out.emplace_back(name_ + ".br", br_);
  out.emplace_back(name_ + ".bn", bn_);
}

}  // namespace deepseq::nn
