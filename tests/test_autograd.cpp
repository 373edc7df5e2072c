// Gradient-correctness tests: every autograd op is checked against central
// finite differences through non-trivial composite expressions.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <vector>

#include "autograd/ops.hpp"
#include "autograd/tape.hpp"
#include "common/rng.hpp"

namespace ag = gcnrl::ag;
namespace la = gcnrl::la;
using gcnrl::Rng;

namespace {

la::Mat random_mat(int r, int c, Rng& rng, double scale = 1.0) {
  la::Mat m(r, c);
  for (int i = 0; i < r; ++i) {
    for (int j = 0; j < c; ++j) m(i, j) = rng.uniform(-scale, scale);
  }
  return m;
}

// Checks d(loss)/d(input) against central differences. `f` maps tape+input
// Var to a scalar Var.
void check_gradient(const la::Mat& x0,
                    const std::function<ag::Var(ag::Tape&, ag::Var)>& f,
                    double tol = 1e-6) {
  ag::Tape tape;
  ag::Var x = tape.input(x0);
  ag::Var loss = f(tape, x);
  ASSERT_EQ(loss.rows(), 1);
  ASSERT_EQ(loss.cols(), 1);
  tape.backward(loss);
  la::Mat analytic = x.grad();

  const double h = 1e-6;
  for (int r = 0; r < x0.rows(); ++r) {
    for (int c = 0; c < x0.cols(); ++c) {
      la::Mat xp = x0, xm = x0;
      xp(r, c) += h;
      xm(r, c) -= h;
      ag::Tape tp;
      const double lp = f(tp, tp.input(xp)).value()(0, 0);
      ag::Tape tm;
      const double lm = f(tm, tm.input(xm)).value()(0, 0);
      const double numeric = (lp - lm) / (2.0 * h);
      EXPECT_NEAR(analytic(r, c), numeric, tol)
          << "at (" << r << "," << c << ")";
    }
  }
}

}  // namespace

TEST(Autograd, ScalarChain) {
  // loss = mean( 3 * x + 1 )  =>  dloss/dx = 3/n each.
  la::Mat x0{{1.0, -2.0}, {0.5, 4.0}};
  check_gradient(x0, [](ag::Tape&, ag::Var x) {
    return ag::mean_all(ag::add_scalar(ag::scale(x, 3.0), 1.0));
  });
}

TEST(Autograd, MatmulBothSides) {
  Rng rng(1);
  la::Mat a0 = random_mat(3, 4, rng);
  la::Mat b0 = random_mat(4, 2, rng);
  // Gradient w.r.t. A with B constant-but-differentiable as input too.
  check_gradient(a0, [&](ag::Tape& t, ag::Var a) {
    ag::Var b = t.input(b0);
    return ag::sum_all(ag::matmul(a, b));
  });
  check_gradient(b0, [&](ag::Tape& t, ag::Var b) {
    ag::Var a = t.input(a0);
    return ag::sum_all(ag::matmul(a, b));
  });
}

TEST(Autograd, MatmulConstLeft) {
  Rng rng(2);
  la::Mat k = random_mat(3, 3, rng);
  la::Mat h0 = random_mat(3, 5, rng);
  check_gradient(h0, [&](ag::Tape&, ag::Var h) {
    return ag::sum_all(ag::relu(ag::matmul_const_left(k, h)));
  });
}

TEST(Autograd, AddSubHadamard) {
  Rng rng(3);
  la::Mat a0 = random_mat(4, 3, rng);
  la::Mat b0 = random_mat(4, 3, rng);
  check_gradient(a0, [&](ag::Tape& t, ag::Var a) {
    ag::Var b = t.input(b0);
    return ag::mean_all(ag::hadamard(ag::add(a, b), ag::sub(a, b)));
  });
}

TEST(Autograd, HadamardConstMask) {
  Rng rng(4);
  la::Mat a0 = random_mat(3, 3, rng);
  la::Mat mask(3, 3);
  mask(0, 0) = 1.0;
  mask(1, 1) = 1.0;
  check_gradient(a0, [&](ag::Tape&, ag::Var a) {
    return ag::sum_all(ag::hadamard_const(a, mask));
  });
}

TEST(Autograd, RowBroadcast) {
  Rng rng(5);
  la::Mat m0 = random_mat(4, 3, rng);
  la::Mat r0 = random_mat(1, 3, rng);
  check_gradient(r0, [&](ag::Tape& t, ag::Var row) {
    ag::Var m = t.input(m0);
    return ag::mean_all(ag::tanh_(ag::add_row_broadcast(m, row)));
  });
  check_gradient(m0, [&](ag::Tape& t, ag::Var m) {
    ag::Var row = t.input(r0);
    return ag::mean_all(ag::tanh_(ag::add_row_broadcast(m, row)));
  });
}

TEST(Autograd, Activations) {
  Rng rng(6);
  la::Mat x0 = random_mat(3, 4, rng, 2.0);
  // Nudge values away from the ReLU kink where finite differences lie.
  for (int r = 0; r < x0.rows(); ++r) {
    for (int c = 0; c < x0.cols(); ++c) {
      if (std::fabs(x0(r, c)) < 1e-3) x0(r, c) = 0.1;
    }
  }
  check_gradient(x0, [](ag::Tape&, ag::Var x) {
    return ag::sum_all(ag::relu(x));
  });
  check_gradient(x0, [](ag::Tape&, ag::Var x) {
    return ag::sum_all(ag::tanh_(x));
  });
  check_gradient(x0, [](ag::Tape&, ag::Var x) {
    return ag::sum_all(ag::sigmoid(x));
  });
}

TEST(Autograd, MseConst) {
  Rng rng(7);
  la::Mat x0 = random_mat(4, 2, rng);
  la::Mat target = random_mat(4, 2, rng);
  check_gradient(x0, [&](ag::Tape&, ag::Var x) {
    return ag::mse_const(x, target);
  });
}

TEST(Autograd, ConcatCols) {
  Rng rng(8);
  la::Mat a0 = random_mat(3, 2, rng);
  la::Mat b0 = random_mat(3, 4, rng);
  check_gradient(a0, [&](ag::Tape& t, ag::Var a) {
    ag::Var b = t.input(b0);
    return ag::mean_all(ag::tanh_(ag::concat_cols(a, b)));
  });
  check_gradient(b0, [&](ag::Tape& t, ag::Var b) {
    ag::Var a = t.input(a0);
    return ag::mean_all(ag::tanh_(ag::concat_cols(a, b)));
  });
}

TEST(Autograd, DeepCompositeChain) {
  // A little MLP-shaped composite: mean(tanh(relu(X W1 + b) W2)).
  Rng rng(9);
  la::Mat x0 = random_mat(5, 4, rng);
  la::Mat w1 = random_mat(4, 6, rng);
  la::Mat b1 = random_mat(1, 6, rng);
  la::Mat w2 = random_mat(6, 2, rng);
  check_gradient(
      x0,
      [&](ag::Tape& t, ag::Var x) {
        ag::Var h = ag::relu(
            ag::add_row_broadcast(ag::matmul(x, t.input(w1)), t.input(b1)));
        return ag::mean_all(ag::tanh_(ag::matmul(h, t.input(w2))));
      },
      1e-5);
}

TEST(Autograd, ConstantsBlockGradients) {
  ag::Tape tape;
  ag::Var c = tape.constant(la::Mat{{1.0, 2.0}});
  ag::Var x = tape.input(la::Mat{{3.0, 4.0}});
  ag::Var loss = ag::sum_all(ag::hadamard(c, x));
  tape.backward(loss);
  EXPECT_DOUBLE_EQ(x.grad()(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(x.grad()(0, 1), 2.0);
  // Constant's grad stays zero (no pullback ran into it... it's just
  // untouched storage).
  EXPECT_DOUBLE_EQ(c.grad()(0, 0), 0.0);
}

TEST(Autograd, BackwardRequiresScalarRoot) {
  ag::Tape tape;
  ag::Var x = tape.input(la::Mat{{1.0, 2.0}});
  EXPECT_THROW(tape.backward(x), std::invalid_argument);
}

TEST(Autograd, MixedTapeRejected) {
  ag::Tape t1, t2;
  ag::Var a = t1.input(la::Mat{{1.0}});
  ag::Var b = t2.input(la::Mat{{1.0}});
  EXPECT_THROW(ag::add(a, b), std::invalid_argument);
}

TEST(Autograd, GradientAccumulatesOverReuse) {
  // loss = sum(x + x) => dloss/dx = 2.
  ag::Tape tape;
  ag::Var x = tape.input(la::Mat{{1.5}});
  ag::Var loss = ag::sum_all(ag::add(x, x));
  tape.backward(loss);
  EXPECT_DOUBLE_EQ(x.grad()(0, 0), 2.0);
}

namespace {

bool same_bits(const la::Mat& a, const la::Mat& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// One training-style pass: W (trained) and F (frozen) are each lifted into
// two matmuls, so their kept transposes serve several pull-backs. Returns
// dloss/dx; W's gradient is added into *w_grad.
la::Mat two_layer_pass(ag::Tape& tape, const la::Mat& x0, const la::Mat& w,
                       la::Mat* w_grad, const la::Mat& f) {
  ag::Var x = tape.input(x0);
  ag::Var h = ag::relu(ag::matmul(x, tape.parameter(w, w_grad)));
  h = ag::tanh_(ag::matmul(h, tape.parameter(f, nullptr)));
  h = ag::matmul(ag::relu(ag::matmul(h, tape.parameter(w, w_grad))),
                 tape.parameter(f, nullptr));
  tape.backward(ag::sum_all(ag::hadamard(h, h)));
  return x.grad();
}

}  // namespace

TEST(Autograd, KeptTransposesMatchFreshTapesBitwise) {
  Rng rng(17);
  const la::Mat w = random_mat(6, 6, rng);
  const la::Mat f = random_mat(6, 6, rng);
  std::vector<la::Mat> xs;
  for (int pass = 0; pass < 12; ++pass) xs.push_back(random_mat(5, 6, rng));

  la::Mat kept_grad(6, 6);
  la::Mat fresh_grad(6, 6);
  ag::Tape kept;
  for (const la::Mat& x0 : xs) {
    kept.clear();
    const la::Mat dx_kept = two_layer_pass(kept, x0, w, &kept_grad, f);
    ag::Tape fresh;
    const la::Mat dx_fresh = two_layer_pass(fresh, x0, w, &fresh_grad, f);
    EXPECT_TRUE(same_bits(dx_kept, dx_fresh));
  }
  EXPECT_TRUE(same_bits(kept_grad, fresh_grad));
}

TEST(Autograd, FreshTapeSeesAChangedParameterValue) {
  Rng rng(29);
  la::Mat w = random_mat(6, 6, rng);
  const la::Mat f = random_mat(6, 6, rng);
  const la::Mat x0 = random_mat(5, 6, rng);
  la::Mat grad(6, 6);
  {
    ag::Tape tape;
    two_layer_pass(tape, x0, w, &grad, f);
  }
  // An optimizer-style in-place update between tapes: same address and
  // shape, new value.
  w *= -0.5;
  ag::Tape after;
  const la::Mat dx = two_layer_pass(after, x0, w, &grad, f);
  // The reference lifts an equal value from another address.
  const la::Mat w_copy = w;
  la::Mat copy_grad(6, 6);
  ag::Tape reference;
  EXPECT_TRUE(
      same_bits(dx, two_layer_pass(reference, x0, w_copy, &copy_grad, f)));
}
