#include "rl/networks.hpp"

namespace gcnrl::rl {
namespace {

std::string kind_tag(int k) {
  return circuit::kind_name(static_cast<circuit::Kind>(k));
}

}  // namespace

TypeMasks make_type_masks(const std::vector<circuit::Kind>& kinds,
                          int hidden) {
  const int n = static_cast<int>(kinds.size());
  TypeMasks m;
  for (int k = 0; k < circuit::kNumKinds; ++k) {
    m.action[k] = la::Mat(n, circuit::kMaxActionDim);
    m.hidden[k] = la::Mat(n, hidden);
    for (int i = 0; i < n; ++i) {
      if (static_cast<int>(kinds[i]) != k) continue;
      for (int c = 0; c < circuit::kMaxActionDim; ++c) m.action[k](i, c) = 1.0;
      for (int c = 0; c < hidden; ++c) m.hidden[k](i, c) = 1.0;
    }
  }
  return m;
}

GcnActor::GcnActor(const NetworkConfig& cfg, Rng& rng)
    : cfg_(cfg), fc_in_("actor.fc_in", cfg.state_dim, cfg.hidden, rng) {
  gcn_.reserve(cfg.gcn_layers);
  for (int l = 0; l < cfg.gcn_layers; ++l) {
    gcn_.push_back(std::make_unique<nn::GcnLayer>(
        "actor.gcn" + std::to_string(l), cfg.hidden, cfg.hidden, rng));
  }
  for (int k = 0; k < circuit::kNumKinds; ++k) {
    // Near-zero output init so initial actions start unbiased mid-range
    // (standard DDPG practice).
    decoders_[k] = std::make_unique<nn::Linear>(
        "actor.dec." + kind_tag(k), cfg.hidden, circuit::kMaxActionDim, rng,
        /*out_scale=*/3e-3);
  }
}

ag::Var GcnActor::forward(ag::Tape& tape, ag::Var state, const la::Mat& a_hat,
                          const TypeMasks& masks) {
  ag::Var h = ag::relu(fc_in_.forward(tape, state));
  // Residual connections keep the paper's 7-layer stack trainable: a
  // plain deep ReLU/GCN chain attenuates gradients badly enough that the
  // agent cannot learn within realistic step budgets.
  for (auto& layer : gcn_) {
    h = ag::add(ag::relu(layer->forward(tape, h, a_hat)), h);
  }
  // Per-type decoders, masked and summed (masks partition the rows).
  ag::Var out;
  for (int k = 0; k < circuit::kNumKinds; ++k) {
    ag::Var a_k = ag::hadamard_const(
        ag::tanh_(decoders_[k]->forward(tape, h)), masks.action[k]);
    out = k == 0 ? a_k : ag::add(out, a_k);
  }
  return out;
}

la::Mat GcnActor::act(const la::Mat& state, const la::Mat& a_hat,
                      const TypeMasks& masks) {
  ag::Tape tape;
  return forward(tape, tape.constant(state), a_hat, masks).value();
}

std::vector<nn::Parameter*> GcnActor::parameters() {
  std::vector<nn::Parameter*> ps;
  for (auto* p : fc_in_.parameters()) ps.push_back(p);
  for (auto& layer : gcn_) {
    for (auto* p : layer->parameters()) ps.push_back(p);
  }
  for (auto& dec : decoders_) {
    for (auto* p : dec->parameters()) ps.push_back(p);
  }
  return ps;
}

GcnCritic::GcnCritic(const NetworkConfig& cfg, Rng& rng)
    : cfg_(cfg),
      fc_state_("critic.fc_state", cfg.state_dim, cfg.hidden, rng),
      head_("critic.head", cfg.hidden, 1, rng, /*out_scale=*/3e-3) {
  for (int k = 0; k < circuit::kNumKinds; ++k) {
    encoders_[k] = std::make_unique<nn::Linear>(
        "critic.enc." + kind_tag(k), circuit::kMaxActionDim, cfg.hidden, rng);
  }
  gcn_.reserve(cfg.gcn_layers);
  for (int l = 0; l < cfg.gcn_layers; ++l) {
    gcn_.push_back(std::make_unique<nn::GcnLayer>(
        "critic.gcn" + std::to_string(l), cfg.hidden, cfg.hidden, rng));
  }
}

ag::Var GcnCritic::forward(ag::Tape& tape, ag::Var state, ag::Var actions,
                           const la::Mat& a_hat, const TypeMasks& masks,
                           nn::Params mode) {
  // Shared state FC + per-type action encoders (Fig. 3 critic first layer).
  ag::Var h = fc_state_.forward(tape, state, mode);
  for (int k = 0; k < circuit::kNumKinds; ++k) {
    ag::Var enc = ag::hadamard_const(
        encoders_[k]->forward(tape, actions, mode), masks.hidden[k]);
    h = ag::add(h, enc);
  }
  h = ag::relu(h);
  for (auto& layer : gcn_) {
    h = ag::add(ag::relu(layer->forward(tape, h, a_hat, mode)), h);
  }
  // Shared value head; predicted reward = mean over component nodes.
  return ag::mean_all(head_.forward(tape, h, mode));
}

double GcnCritic::value(const la::Mat& state, const la::Mat& actions,
                        const la::Mat& a_hat, const TypeMasks& masks) {
  ag::Tape tape;
  return forward(tape, tape.constant(state), tape.constant(actions), a_hat,
                 masks)
      .value()(0, 0);
}

std::vector<nn::Parameter*> GcnCritic::parameters() {
  std::vector<nn::Parameter*> ps;
  for (auto* p : fc_state_.parameters()) ps.push_back(p);
  for (auto& enc : encoders_) {
    for (auto* p : enc->parameters()) ps.push_back(p);
  }
  for (auto& layer : gcn_) {
    for (auto* p : layer->parameters()) ps.push_back(p);
  }
  for (auto* p : head_.parameters()) ps.push_back(p);
  return ps;
}

}  // namespace gcnrl::rl
