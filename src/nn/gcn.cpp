#include "nn/gcn.hpp"

#include <cmath>
#include <stdexcept>

namespace gcnrl::nn {

la::Mat normalized_adjacency(const la::Mat& adjacency) {
  if (adjacency.rows() != adjacency.cols()) {
    throw std::invalid_argument("normalized_adjacency: A must be square");
  }
  const int n = adjacency.rows();
  la::Mat a_tilde = adjacency;
  for (int i = 0; i < n; ++i) a_tilde(i, i) += 1.0;  // A + I
  std::vector<double> d_inv_sqrt(n);
  for (int i = 0; i < n; ++i) {
    double deg = 0.0;
    for (int j = 0; j < n; ++j) deg += a_tilde(i, j);
    d_inv_sqrt[i] = deg > 0.0 ? 1.0 / std::sqrt(deg) : 0.0;
  }
  la::Mat a_hat(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      a_hat(i, j) = d_inv_sqrt[i] * a_tilde(i, j) * d_inv_sqrt[j];
    }
  }
  return a_hat;
}

GcnLayer::GcnLayer(std::string name, int in_features, int out_features,
                   Rng& rng)
    : w_(name + ".w", xavier_uniform(in_features, out_features, rng)),
      b_(name + ".b", la::Mat(1, out_features)) {}

ag::Var GcnLayer::forward(ag::Tape& tape, ag::Var h, const la::Mat& a_hat,
                          Params mode) {
  ag::Var w = leaf(tape, w_, mode);
  ag::Var b = leaf(tape, b_, mode);
  ag::Var agg = ag::matmul_const_left(a_hat, h);
  return ag::add_row_broadcast(ag::matmul(agg, w), b);
}

}  // namespace gcnrl::nn
