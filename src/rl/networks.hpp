// Actor / critic networks of Fig. 3.
//
// Actor:  state --shared FC--> hidden --[GCN x L]--> per-type decoders
//         --tanh--> actions in [-1,1]^(n x 3).
// Critic: state --shared FC--> + action --per-type encoders--> hidden
//         --[GCN x L]--> shared value head --> mean over nodes --> Q.
//
// "Per-type" layers (the unique weights of Fig. 3) are realized as one
// Linear per component kind whose output rows are masked to that kind and
// summed — numerically identical to routing each row through its own
// encoder/decoder, but expressible with plain dense ops. With use_gcn =
// false the aggregation matrix is the identity and the whole stack
// degrades to shared FC layers: that is exactly the paper's NG-RL
// ablation.
#pragma once

#include <memory>

#include "circuit/netlist.hpp"
#include "nn/gcn.hpp"
#include "nn/linear.hpp"

namespace gcnrl::rl {

struct NetworkConfig {
  int state_dim = 0;
  int hidden = 32;
  int gcn_layers = 7;   // paper: seven GCN layers for a global receptive field
  bool use_gcn = true;  // false = NG-RL
};

// Per-kind row masks used to realize type-specific layers.
struct TypeMasks {
  // For each kind: n x width matrix, rows of that kind = 1.
  std::array<la::Mat, circuit::kNumKinds> action;  // width = kMaxActionDim
  std::array<la::Mat, circuit::kNumKinds> hidden;  // width = hidden
};
TypeMasks make_type_masks(const std::vector<circuit::Kind>& kinds,
                          int hidden);

class GcnActor : public nn::Module {
 public:
  GcnActor(const NetworkConfig& cfg, Rng& rng);

  // state: n x state_dim, a_hat: n x n. Output n x kMaxActionDim in [-1,1].
  ag::Var forward(ag::Tape& tape, ag::Var state, const la::Mat& a_hat,
                  const TypeMasks& masks);
  // Convenience deterministic evaluation (fresh throwaway tape).
  la::Mat act(const la::Mat& state, const la::Mat& a_hat,
              const TypeMasks& masks);

  std::vector<nn::Parameter*> parameters() override;
  [[nodiscard]] const NetworkConfig& config() const { return cfg_; }

 private:
  NetworkConfig cfg_;
  nn::Linear fc_in_;
  std::vector<std::unique_ptr<nn::GcnLayer>> gcn_;
  std::array<std::unique_ptr<nn::Linear>, circuit::kNumKinds> decoders_;
};

class GcnCritic : public nn::Module {
 public:
  GcnCritic(const NetworkConfig& cfg, Rng& rng);

  // Q(S, A): returns a 1x1 Var. With nn::Params::kFrozen the critic's
  // parameters go on the tape as constants, so backward() reaches only
  // the state/action inputs (the actor step).
  ag::Var forward(ag::Tape& tape, ag::Var state, ag::Var actions,
                  const la::Mat& a_hat, const TypeMasks& masks,
                  nn::Params mode = nn::Params::kTrain);
  double value(const la::Mat& state, const la::Mat& actions,
               const la::Mat& a_hat, const TypeMasks& masks);

  std::vector<nn::Parameter*> parameters() override;

 private:
  NetworkConfig cfg_;
  nn::Linear fc_state_;
  std::array<std::unique_ptr<nn::Linear>, circuit::kNumKinds> encoders_;
  std::vector<std::unique_ptr<nn::GcnLayer>> gcn_;
  nn::Linear head_;
};

}  // namespace gcnrl::rl
