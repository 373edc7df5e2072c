// Simulator validation against closed-form circuit theory: DC, AC,
// transient and noise on circuits with known analytical answers.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "circuit/netlist.hpp"
#include "circuit/tech.hpp"
#include "circuits/benchmark_circuits.hpp"
#include "meas/ac_metrics.hpp"
#include "meas/tran_metrics.hpp"
#include "sim/perf.hpp"
#include "sim/simulator.hpp"

namespace circuit = gcnrl::circuit;
namespace la = gcnrl::la;
namespace sim = gcnrl::sim;
namespace meas = gcnrl::meas;

namespace {

const circuit::Technology kTech = circuit::make_technology("180nm");

meas::AcCurve curve_of(const sim::AcResult& ac, int node) {
  meas::AcCurve c;
  c.freq = ac.freq;
  for (std::size_t i = 0; i < ac.freq.size(); ++i) {
    c.h.push_back(ac.phasor(static_cast<int>(i), node));
  }
  return c;
}

}  // namespace

TEST(Dc, ResistorDivider) {
  circuit::Netlist nl;
  const int vin = nl.node("vin");
  const int mid = nl.node("mid");
  nl.add_vsource("V1", vin, 0, 3.0);
  nl.add_resistor("R1", vin, mid, 1e3, false);
  nl.add_resistor("R2", mid, 0, 2e3, false);
  sim::Simulator s(nl, kTech);
  EXPECT_NEAR(s.op().node(mid), 2.0, 1e-6);
  // Power drawn from the source: V^2 / (R1+R2) = 3 mW.
  EXPECT_NEAR(s.supply_power(), 3.0e-3, 1e-8);
  EXPECT_NEAR(s.source_current("V1"), 1e-3, 1e-9);
}

TEST(Dc, CurrentSourceIntoResistor) {
  circuit::Netlist nl;
  const int n1 = nl.node("n1");
  // 1 mA injected INTO n1 (p=ground, n=n1), 2k to ground -> +2 V.
  nl.add_isource("I1", 0, n1, 1e-3);
  nl.add_resistor("R1", n1, 0, 2e3, false);
  sim::Simulator s(nl, kTech);
  EXPECT_NEAR(s.op().node(n1), 2.0, 1e-6);
}

TEST(Mosfet, SquareLawTrends) {
  const sim::MosModel m = sim::mos_model(kTech, false);
  circuit::Mosfet geom;
  geom.w = 10e-6;
  geom.l = 1e-6;
  geom.m = 1;
  const auto op1 = sim::eval_mos(m, geom, 0.9, 1.8, 0.0);
  const auto op2 = sim::eval_mos(m, geom, 1.2, 1.8, 0.0);
  EXPECT_GT(op2.id, op1.id);        // more gate drive, more current
  EXPECT_GT(op1.id, 0.0);
  EXPECT_GT(op1.gm, 0.0);
  EXPECT_GT(op1.gds, 0.0);
  // Saturation: gds much smaller than gm.
  EXPECT_LT(op1.gds, op1.gm);
  // Off device: negligible current.
  const auto off = sim::eval_mos(m, geom, 0.0, 1.8, 0.0);
  EXPECT_LT(off.id, 1e-9);
  // Zero vds: zero current (symmetric model).
  const auto sym = sim::eval_mos(m, geom, 1.2, 0.0, 0.0);
  EXPECT_NEAR(sym.id, 0.0, 1e-15);
}

TEST(Mosfet, WidthAndMultiplierScaleCurrent) {
  const sim::MosModel m = sim::mos_model(kTech, false);
  circuit::Mosfet g1;
  g1.w = 5e-6;
  g1.l = 0.5e-6;
  g1.m = 1;
  circuit::Mosfet g2 = g1;
  g2.m = 4;
  circuit::Mosfet g3 = g1;
  g3.w = 20e-6;
  const auto i1 = sim::eval_mos(m, g1, 1.0, 1.5, 0.0).id;
  const auto i2 = sim::eval_mos(m, g2, 1.0, 1.5, 0.0).id;
  const auto i3 = sim::eval_mos(m, g3, 1.0, 1.5, 0.0).id;
  EXPECT_NEAR(i2 / i1, 4.0, 1e-9);
  EXPECT_NEAR(i3 / i1, 4.0, 1e-9);
}

TEST(Mosfet, PmosMirrorsNmos) {
  const sim::MosModel mn = sim::mos_model(kTech, false);
  sim::MosModel mp = mn;
  mp.pmos = true;
  circuit::Mosfet geom;
  geom.w = 10e-6;
  geom.l = 0.5e-6;
  // PMOS with all voltages mirrored: current flips sign exactly.
  const auto n = sim::eval_mos(mn, geom, 1.0, 1.5, 0.0);
  const auto p = sim::eval_mos(mp, geom, -1.0, -1.5, 0.0);
  EXPECT_NEAR(n.id, -p.id, 1e-15);
  EXPECT_NEAR(n.gm, p.gm, 1e-9);
  EXPECT_NEAR(n.gds, p.gds, 1e-9);
}

TEST(Mosfet, ReversedDeviceIsSymmetric) {
  const sim::MosModel m = sim::mos_model(kTech, false);
  circuit::Mosfet geom;
  geom.w = 4e-6;
  geom.l = 0.3e-6;
  const auto fwd = sim::eval_mos(m, geom, 1.2, 0.9, 0.3);
  // Swap drain/source: same magnitude, opposite sign.
  const auto rev = sim::eval_mos(m, geom, 1.2, 0.3, 0.9);
  EXPECT_NEAR(fwd.id, -rev.id, 1e-12);
}

TEST(Dc, DiodeConnectedNmosCarriesBiasCurrent) {
  circuit::Netlist nl;
  const int n1 = nl.node("n1");
  nl.add_isource("IB", 0, n1, 50e-6);  // 50 uA into the diode
  nl.add_nmos("M1", n1, n1, 0, 0, 10e-6, 0.5e-6);
  sim::Simulator s(nl, kTech);
  const double v = s.op().node(n1);
  EXPECT_GT(v, kTech.vth0_n * 0.8);  // needs real gate drive
  EXPECT_LT(v, kTech.vdd);
  EXPECT_NEAR(s.op().mos[0].id, 50e-6, 1e-7);
}

TEST(Dc, NmosCommonSourceOperatingPoint) {
  // CS stage with resistor load; check KCL: I(R) == Id.
  circuit::Netlist nl;
  const int vdd = nl.node("vdd");
  nl.mark_supply("vdd");
  const int out = nl.node("out");
  const int in = nl.node("in");
  nl.add_vsource("VDD", vdd, 0, 1.8);
  nl.add_vsource("VIN", in, 0, 0.75);
  nl.add_resistor("RL", vdd, out, 10e3, false);
  nl.add_nmos("M1", out, in, 0, 0, 5e-6, 0.36e-6);
  sim::Simulator s(nl, kTech);
  const double vout = s.op().node(out);
  const double i_r = (1.8 - vout) / 10e3;
  EXPECT_NEAR(i_r, s.op().mos[0].id, 1e-9);
  EXPECT_GT(vout, 0.05);
  EXPECT_LT(vout, 1.75);
}

TEST(Ac, RcLowPassPole) {
  circuit::Netlist nl;
  const int in = nl.node("in");
  const int out = nl.node("out");
  nl.add_vsource("VIN", in, 0, 0.0, /*ac=*/1.0);
  nl.add_resistor("R1", in, out, 1e3, false);
  nl.add_capacitor("C1", out, 0, 1e-9, false);
  sim::Simulator s(nl, kTech);
  const double f_pole = 1.0 / (2.0 * M_PI * 1e3 * 1e-9);  // ~159 kHz
  const auto ac = s.ac(sim::logspace(1e2, 1e8, 121));
  const auto curve = curve_of(ac, out);
  EXPECT_NEAR(meas::dc_gain(curve), 1.0, 1e-6);
  EXPECT_NEAR(meas::bandwidth_3db(curve), f_pole, 0.02 * f_pole);
  EXPECT_NEAR(meas::peaking_db(curve), 0.0, 1e-6);
  // Phase at the pole is -45 degrees.
  const double mag_at_pole = meas::magnitude_at(curve, f_pole);
  EXPECT_NEAR(mag_at_pole, 1.0 / std::sqrt(2.0), 0.01);
}

TEST(Ac, CommonSourceGainMatchesSmallSignal) {
  circuit::Netlist nl;
  const int vdd = nl.node("vdd");
  nl.mark_supply("vdd");
  const int out = nl.node("out");
  const int in = nl.node("in");
  nl.add_vsource("VDD", vdd, 0, 1.8);
  nl.add_vsource("VIN", in, 0, 0.8, /*ac=*/1.0);
  nl.add_resistor("RL", vdd, out, 10e3, false);
  nl.add_nmos("M1", out, in, 0, 0, 20e-6, 0.36e-6);
  sim::Simulator s(nl, kTech);
  const auto& op = s.op();
  const double gm = op.mos[0].gm;
  const double gds = op.mos[0].gds;
  const double expected = gm / (gds + 1e-4);  // gm * (ro || RL)
  const auto ac = s.ac({10.0});
  const double gain = std::abs(ac.phasor(0, out));
  EXPECT_NEAR(gain, expected, 0.02 * expected);
}

TEST(Ac, SourceFollowerGainBelowUnity) {
  circuit::Netlist nl;
  const int vdd = nl.node("vdd");
  nl.mark_supply("vdd");
  const int in = nl.node("in");
  const int out = nl.node("out");
  nl.add_vsource("VDD", vdd, 0, 1.8);
  nl.add_vsource("VIN", in, 0, 1.3, 1.0);
  nl.add_nmos("M1", vdd, in, out, 0, 40e-6, 0.36e-6);
  nl.add_resistor("RS", out, 0, 20e3, false);
  sim::Simulator s(nl, kTech);
  const auto ac = s.ac({10.0});
  const double gain = std::abs(ac.phasor(0, out));
  EXPECT_GT(gain, 0.6);
  EXPECT_LT(gain, 1.0);
}

TEST(Tran, RcStepResponseTimeConstant) {
  circuit::Netlist nl;
  const int in = nl.node("in");
  const int out = nl.node("out");
  circuit::Pwl step{{{0.0, 0.0}, {1e-9, 0.0}, {1.1e-9, 1.0}}};
  nl.add_vsource("VIN", in, 0, 0.0, 0.0, step);
  nl.add_resistor("R1", in, out, 1e3, false);
  nl.add_capacitor("C1", out, 0, 1e-9, false);
  sim::Simulator s(nl, kTech);
  sim::TranOptions opt;
  opt.tstop = 10e-6;
  opt.dt = 5e-9;
  const auto tr = s.tran(opt);
  meas::TranCurve c;
  c.t = tr.t;
  for (std::size_t i = 0; i < tr.t.size(); ++i) {
    c.v.push_back(tr.v(static_cast<int>(i), out));
  }
  // After one tau (1 us) from the step, v = 1 - e^-1.
  EXPECT_NEAR(meas::value_at(c, 1.1e-9 + 1e-6), 1.0 - std::exp(-1.0), 0.02);
  EXPECT_NEAR(c.v.back(), 1.0, 1e-3);
  // Settling to 1%: about 4.6 tau.
  const double ts = meas::settling_time(c, 1.1e-9, 0.01);
  EXPECT_NEAR(ts, 4.6e-6, 0.5e-6);
}

TEST(Tran, CapacitorHoldsInitialCondition) {
  // No stimulus change: output stays at DC level.
  circuit::Netlist nl;
  const int in = nl.node("in");
  const int out = nl.node("out");
  nl.add_vsource("VIN", in, 0, 1.0);
  nl.add_resistor("R1", in, out, 1e3, false);
  nl.add_capacitor("C1", out, 0, 1e-12, false);
  sim::Simulator s(nl, kTech);
  sim::TranOptions opt;
  opt.tstop = 1e-7;
  opt.dt = 1e-9;
  const auto tr = s.tran(opt);
  for (std::size_t i = 0; i < tr.t.size(); ++i) {
    EXPECT_NEAR(tr.v(static_cast<int>(i), out), 1.0, 1e-6);
  }
}

TEST(Noise, ResistorDividerThermalNoise) {
  // Output noise of a divider = 4kT * (R1 || R2).
  circuit::Netlist nl;
  const int vin = nl.node("vin");
  const int mid = nl.node("mid");
  nl.add_vsource("V1", vin, 0, 1.0);
  nl.add_resistor("R1", vin, mid, 1e4, false);
  nl.add_resistor("R2", mid, 0, 1e4, false);
  sim::Simulator s(nl, kTech);
  const auto nr = s.noise({1e3, 1e6}, mid, 0);
  const double kT = 1.380649e-23 * 300.0;
  const double expected = 4.0 * kT * 5e3;  // R1 || R2 = 5k
  EXPECT_NEAR(nr.out_psd[0], expected, 0.01 * expected);
  EXPECT_NEAR(nr.out_psd[1], expected, 0.01 * expected);
}

TEST(Noise, MosfetAddsFlickerAtLowFreq) {
  circuit::Netlist nl;
  const int vdd = nl.node("vdd");
  nl.mark_supply("vdd");
  const int out = nl.node("out");
  const int in = nl.node("in");
  nl.add_vsource("VDD", vdd, 0, 1.8);
  nl.add_vsource("VIN", in, 0, 0.8);
  nl.add_resistor("RL", vdd, out, 10e3, false);
  nl.add_nmos("M1", out, in, 0, 0, 20e-6, 0.36e-6);
  sim::Simulator s(nl, kTech);
  const auto nr = s.noise({10.0, 1e6}, out, 0);
  // 1/f noise dominates at 10 Hz: PSD there must exceed the 1 MHz PSD.
  EXPECT_GT(nr.out_psd[0], nr.out_psd[1] * 2.0);
}

TEST(Dc, FailsCleanlyOnIllConditionedCircuit) {
  // A voltage source loop (V1 parallel V2 with different values) is
  // genuinely singular; expect SimError, not UB.
  circuit::Netlist nl;
  const int a = nl.node("a");
  nl.add_vsource("V1", a, 0, 1.0);
  nl.add_vsource("V2", a, 0, 2.0);
  sim::Simulator s(nl, kTech);
  EXPECT_THROW(s.op(), sim::SimError);
}

TEST(Meas, PhaseMarginOfSinglePole) {
  // H(s) = A / (1 + s/p): PM at unity crossing ~ 90 deg for A >> 1.
  meas::AcCurve c;
  const double a0 = 1000.0, p = 1e3;
  for (double f = 1.0; f < 1e8; f *= 1.2) {
    c.freq.push_back(f);
    c.h.push_back(a0 / std::complex<double>(1.0, f / p));
  }
  EXPECT_NEAR(meas::phase_margin_deg(c), 90.0, 2.0);
  EXPECT_NEAR(meas::unity_crossing(c), a0 * p, 0.05 * a0 * p);
}

TEST(Meas, PhaseMarginTwoPoleLowMargin) {
  meas::AcCurve c;
  const double a0 = 1000.0, p1 = 1e3, p2 = 3e4;
  for (double f = 1.0; f < 1e9; f *= 1.15) {
    c.freq.push_back(f);
    c.h.push_back(a0 / (std::complex<double>(1.0, f / p1) *
                        std::complex<double>(1.0, f / p2)));
  }
  const double pm = meas::phase_margin_deg(c);
  EXPECT_LT(pm, 35.0);
  EXPECT_GT(pm, 0.0);
}

TEST(Meas, StableLoopReports180) {
  meas::AcCurve c;
  for (double f = 1.0; f < 1e6; f *= 2.0) {
    c.freq.push_back(f);
    c.h.push_back(0.5 / std::complex<double>(1.0, f / 1e3));
  }
  EXPECT_DOUBLE_EQ(meas::phase_margin_deg(c), 180.0);
}

TEST(Meas, Logspace) {
  const auto f = sim::logspace(1.0, 1000.0, 4);
  ASSERT_EQ(f.size(), 4u);
  EXPECT_NEAR(f[0], 1.0, 1e-12);
  EXPECT_NEAR(f[1], 10.0, 1e-9);
  EXPECT_NEAR(f[3], 1000.0, 1e-9);
}

// --- DC warm start ----------------------------------------------------------

// A converged operating point handed back as the warm start must converge
// directly (strategy 0) in a handful of iterations and land on the same
// solution as the cold ladder within solver tolerance.
TEST(Dc, WarmStartFromConvergedOpSkipsTheLadder) {
  for (const char* name : {"Two-TIA", "Two-Volt", "Three-TIA", "LDO"}) {
    auto bc = gcnrl::circuits::make_benchmark(name, kTech);
    circuit::Netlist nl = bc.netlist;
    bc.space.apply(nl, bc.human_expert);
    const sim::SimContext ctx(nl, kTech);
    sim::DcStats cold_stats;
    const sim::OpPoint cold =
        sim::solve_dc(ctx, {}, nullptr, &cold_stats);
    EXPECT_FALSE(cold_stats.warm_attempted) << name;

    const std::vector<double> guess = sim::project_op(cold, ctx.map);
    sim::DcStats warm_stats;
    const sim::OpPoint warm =
        sim::solve_dc(ctx, {}, &guess, &warm_stats);
    EXPECT_TRUE(warm_stats.warm_attempted) << name;
    EXPECT_TRUE(warm_stats.warm_converged) << name;
    EXPECT_EQ(warm_stats.strategy, 0) << name;
    EXPECT_LT(warm_stats.newton_iters, cold_stats.newton_iters) << name;
    ASSERT_EQ(cold.v.size(), warm.v.size());
    for (std::size_t i = 0; i < cold.v.size(); ++i) {
      EXPECT_NEAR(cold.v[i], warm.v[i], 1e-5) << name << " node " << i;
    }
  }
}

// A hopeless warm guess must fall back to the untouched ladder, and the
// fallback has to reproduce the cold solution BITWISE: the ladder starts
// from zeros either way, so the guess can cost iterations but never
// change the result.
TEST(Dc, WarmStartFallbackIsBitwiseIdenticalToCold) {
  auto bc = gcnrl::circuits::make_two_tia(kTech);
  circuit::Netlist nl = bc.netlist;
  bc.space.apply(nl, bc.human_expert);
  const sim::SimContext ctx(nl, kTech);
  const sim::OpPoint cold = sim::solve_dc(ctx);

  // +-1 MV alternating: Newton under the 0.5 V/iteration damping cannot
  // reach any physical solution within warm_max_iter from here.
  std::vector<double> garbage(static_cast<std::size_t>(ctx.map.dim()));
  for (std::size_t i = 0; i < garbage.size(); ++i) {
    garbage[i] = (i % 2 == 0) ? 1e6 : -1e6;
  }
  sim::DcStats stats;
  const sim::OpPoint warm = sim::solve_dc(ctx, {}, &garbage, &stats);
  EXPECT_TRUE(stats.warm_attempted);
  EXPECT_FALSE(stats.warm_converged);
  EXPECT_GE(stats.strategy, 1);
  ASSERT_EQ(cold.v.size(), warm.v.size());
  for (std::size_t i = 0; i < cold.v.size(); ++i) {
    EXPECT_EQ(cold.v[i], warm.v[i]) << "node " << i;
  }
  ASSERT_EQ(cold.branch_i.size(), warm.branch_i.size());
  for (std::size_t i = 0; i < cold.branch_i.size(); ++i) {
    EXPECT_EQ(cold.branch_i[i], warm.branch_i[i]) << "branch " << i;
  }
}

// op_at_time_zero() is memoized like op(): the second call must return
// the same object without another DC solve.
TEST(Dc, OpAtTimeZeroIsMemoized) {
  auto bc = gcnrl::circuits::make_two_tia(kTech);
  circuit::Netlist nl = bc.netlist;
  bc.space.apply(nl, bc.human_expert);
  sim::Simulator s(nl, kTech);
  const sim::OpPoint& first = s.op_at_time_zero();
  const long calls_after_first = sim::sim_perf_snapshot().dc.calls;
  const sim::OpPoint& second = s.op_at_time_zero();
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(sim::sim_perf_snapshot().dc.calls, calls_after_first);
}

// The per-analysis perf registry attributes calls/items to the right
// analysis and never charges wall time to analyses that did not run.
TEST(Perf, RegistryAttributesPerAnalysis) {
  auto bc = gcnrl::circuits::make_two_tia(kTech);
  circuit::Netlist nl = bc.netlist;
  bc.space.apply(nl, bc.human_expert);
  sim::sim_perf_reset();
  sim::Simulator s(nl, kTech);
  s.op();
  s.ac(sim::logspace(1e3, 1e9, 13));
  const sim::SimPerf p = sim::sim_perf_snapshot();
  EXPECT_EQ(p.dc.calls, 1);
  EXPECT_GT(p.dc.items, 0);  // Newton iterations
  EXPECT_EQ(p.ac.calls, 1);
  EXPECT_EQ(p.ac.items, 13);
  EXPECT_EQ(p.noise.calls, 0);
  EXPECT_EQ(p.tran.calls, 0);
  EXPECT_GE(p.dc.seconds, 0.0);
  sim::sim_perf_reset();
  EXPECT_EQ(sim::sim_perf_snapshot().dc.calls, 0);
}

// ---------------------------------------------------------------------
// Failure diagnostics of the MNA engine on a structurally singular system
// (two ideal voltage sources in parallel).
// ---------------------------------------------------------------------

namespace {

circuit::Netlist parallel_vsources() {
  circuit::Netlist nl;
  const int a = nl.node("a");
  nl.add_vsource("V1", a, 0, 1.0);
  nl.add_vsource("V2", a, 0, 2.0);
  return nl;
}

// Zero operating point for parallel_vsources(): the DC solve on that
// netlist (correctly) fails, so the AC, noise and transient tests hand
// their solver this one directly.
sim::OpPoint zero_op() {
  sim::OpPoint op;
  op.v.assign(2, 0.0);
  op.branch_i.assign(2, 0.0);
  return op;
}

}  // namespace

// Every rejected DC factorization is a non-converged Newton attempt, so the
// whole ladder fails and the solve reports the usual SimError.
TEST(Sparse, SingularCircuitFailsCleanly) {
  const circuit::Netlist nl = parallel_vsources();
  sim::Simulator s(nl, kTech);
  EXPECT_THROW(s.op(), sim::SimError);
  sim::sim_perf_reset();
}

// A singular AC or noise sweep must be a SimError naming the frequency (in
// scientific notation), never a crash or a non-SimError exception:
// EvalService counts only SimError as a failed simulation.
TEST(Sparse, SingularAcAndNoiseSweepsNameTheFrequency) {
  const circuit::Netlist nl = parallel_vsources();
  sim::Simulator s(nl, kTech);
  const sim::OpPoint op = zero_op();
  const auto freqs = sim::logspace(1e3, 1e9, 13);
  const auto expect_freq_error = [](const std::string& msg,
                                    const std::string& what) {
    EXPECT_NE(msg.find(what + " matrix singular at f=1.000000e+03 Hz"),
              std::string::npos)
        << msg;
  };
  try {
    sim::solve_ac(s.context(), op, freqs);
    FAIL() << "expected SimError from the AC sweep";
  } catch (const sim::SimError& e) {
    expect_freq_error(e.what(), "AC");
  }
  try {
    sim::solve_noise(s.context(), op, freqs, 1, 0);
    FAIL() << "expected SimError from the noise sweep";
  } catch (const sim::SimError& e) {
    expect_freq_error(e.what(), "noise");
  }
  sim::sim_perf_reset();
}

// The transient LU-failure diagnostic must name both the timestep (in
// scientific notation — ns-scale times collapse to 0.000000 otherwise)
// and the Newton iteration.
TEST(Tran, SingularJacobianDiagnosticNamesStepAndIteration) {
  const circuit::Netlist nl = parallel_vsources();
  sim::Simulator s(nl, kTech);
  sim::TranOptions opt;
  opt.tstop = 4e-9;
  opt.dt = 1e-9;
  try {
    sim::solve_tran(s.context(), zero_op(), opt);
    FAIL() << "expected SimError";
  } catch (const sim::SimError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("(Newton iteration 1)"), std::string::npos) << msg;
    EXPECT_NE(msg.find("at t=1.000000e-09 s"), std::string::npos) << msg;
  }
  sim::sim_perf_reset();
}
