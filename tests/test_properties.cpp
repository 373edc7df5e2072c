// Property-based suites: physical invariants of the device model and the
// simulator that must hold across every technology node and bias point,
// and cross-analysis consistency checks (DC vs AC vs transient).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "circuit/tech.hpp"
#include "circuits/benchmark_circuits.hpp"
#include "meas/ac_metrics.hpp"
#include "sim/perf.hpp"
#include "sim/simulator.hpp"
#include "common/rng.hpp"

namespace circuit = gcnrl::circuit;
namespace sim = gcnrl::sim;
namespace meas = gcnrl::meas;
using gcnrl::Rng;

// ---------------------------------------------------------------------
// Device-model invariants, swept over all five technology nodes.
// ---------------------------------------------------------------------
class MosModelProperties : public ::testing::TestWithParam<std::string> {
 protected:
  circuit::Technology tech_ = circuit::make_technology(GetParam());
};

TEST_P(MosModelProperties, CurrentMonotoneInVgs) {
  const sim::MosModel m = sim::mos_model(tech_, false);
  circuit::Mosfet g;
  g.w = 10e-6;
  g.l = 2 * tech_.lmin;
  const double vds = tech_.vdd * 0.6;
  double prev = -1.0;
  for (double vgs = 0.0; vgs <= tech_.vdd; vgs += 0.05) {
    const double id = sim::eval_mos(m, g, vgs, vds, 0.0).id;
    EXPECT_GE(id, prev - 1e-15) << "vgs=" << vgs;
    prev = id;
  }
}

TEST_P(MosModelProperties, CurrentMonotoneInVds) {
  const sim::MosModel m = sim::mos_model(tech_, false);
  circuit::Mosfet g;
  g.w = 10e-6;
  g.l = 2 * tech_.lmin;
  const double vgs = tech_.vth0_n + 0.25;
  double prev = -1.0;
  for (double vds = 0.0; vds <= tech_.vdd; vds += 0.02) {
    const double id = sim::eval_mos(m, g, vgs, vds, 0.0).id;
    EXPECT_GE(id, prev - 1e-15) << "vds=" << vds;
    prev = id;
  }
}

TEST_P(MosModelProperties, DerivativesMatchSecants) {
  const sim::MosModel m = sim::mos_model(tech_, false);
  circuit::Mosfet g;
  g.w = 8e-6;
  g.l = 3 * tech_.lmin;
  Rng rng(42);
  for (int trial = 0; trial < 30; ++trial) {
    const double vgs = rng.uniform(0.0, tech_.vdd);
    const double vds = rng.uniform(0.0, tech_.vdd);
    const auto op = sim::eval_mos(m, g, vgs, vds, 0.0);
    const double h = 1e-4;
    const double sg =
        (sim::eval_mos(m, g, vgs + h, vds, 0.0).id -
         sim::eval_mos(m, g, vgs - h, vds, 0.0).id) /
        (2.0 * h);
    const double sd =
        (sim::eval_mos(m, g, vgs, vds + h, 0.0).id -
         sim::eval_mos(m, g, vgs, vds - h, 0.0).id) /
        (2.0 * h);
    const double tol = 1e-6 + 0.02 * (std::fabs(sg) + std::fabs(sd));
    EXPECT_NEAR(op.gm, sg, tol);
    EXPECT_NEAR(op.gds, sd, tol);
  }
}

TEST_P(MosModelProperties, SourceDrainExchangeAntisymmetry) {
  const sim::MosModel m = sim::mos_model(tech_, false);
  circuit::Mosfet g;
  g.w = 6e-6;
  g.l = 2 * tech_.lmin;
  Rng rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    const double vg = rng.uniform(0.0, tech_.vdd);
    const double va = rng.uniform(0.0, tech_.vdd);
    const double vb = rng.uniform(0.0, tech_.vdd);
    const double fwd = sim::eval_mos(m, g, vg, va, vb).id;
    const double rev = sim::eval_mos(m, g, vg, vb, va).id;
    EXPECT_NEAR(fwd, -rev, 1e-12 + 1e-9 * std::fabs(fwd));
  }
}

TEST_P(MosModelProperties, PmosComplementSymmetry) {
  const sim::MosModel mn = sim::mos_model(tech_, false);
  sim::MosModel mp = mn;
  mp.pmos = true;
  circuit::Mosfet g;
  g.w = 12e-6;
  g.l = 2 * tech_.lmin;
  Rng rng(9);
  for (int trial = 0; trial < 20; ++trial) {
    const double vg = rng.uniform(-tech_.vdd, tech_.vdd);
    const double vd = rng.uniform(-tech_.vdd, tech_.vdd);
    const double vs = rng.uniform(-tech_.vdd, tech_.vdd);
    const auto n = sim::eval_mos(mn, g, vg, vd, vs);
    const auto p = sim::eval_mos(mp, g, -vg, -vd, -vs);
    EXPECT_NEAR(n.id, -p.id, 1e-12 + 1e-9 * std::fabs(n.id));
    EXPECT_NEAR(n.gm, p.gm, 1e-9 + 1e-6 * std::fabs(n.gm));
  }
}

TEST_P(MosModelProperties, CapsScaleWithGeometry) {
  const sim::MosModel m = sim::mos_model(tech_, false);
  circuit::Mosfet g1;
  g1.w = 5e-6;
  g1.l = 2 * tech_.lmin;
  circuit::Mosfet g2 = g1;
  g2.m = 3;
  const auto c1 = sim::mos_caps(m, g1);
  const auto c2 = sim::mos_caps(m, g2);
  EXPECT_NEAR(c2.cgs / c1.cgs, 3.0, 1e-9);
  EXPECT_NEAR(c2.cgd / c1.cgd, 3.0, 1e-9);
  EXPECT_GT(c1.cgs, c1.cgd);  // channel cap dominates overlap
}

INSTANTIATE_TEST_SUITE_P(AllNodes, MosModelProperties,
                         ::testing::ValuesIn(circuit::available_nodes()));

// ---------------------------------------------------------------------
// Simulator cross-analysis consistency.
// ---------------------------------------------------------------------
namespace {

const auto kTech = circuit::make_technology("180nm");

}  // namespace

TEST(SimConsistency, AcSuperpositionOfSources) {
  // Two AC sources driving a linear network: response equals the sum of
  // individual responses (the solver is linear in the RHS).
  auto build = [](double ac1, double ac2) {
    circuit::Netlist nl;
    const int a = nl.node("a");
    const int b = nl.node("b");
    const int out = nl.node("out");
    nl.add_vsource("V1", a, 0, 0.0, ac1);
    nl.add_vsource("V2", b, 0, 0.0, ac2);
    nl.add_resistor("R1", a, out, 1e3, false);
    nl.add_resistor("R2", b, out, 2e3, false);
    nl.add_capacitor("C1", out, 0, 1e-9, false);
    return nl;
  };
  const double f = 2e5;
  auto v_out = [&](double a1, double a2) {
    circuit::Netlist nl = build(a1, a2);
    sim::Simulator s(nl, kTech);
    return s.ac({f}).phasor(0, nl.find_node("out").value());
  };
  const auto both = v_out(1.0, 0.7);
  const auto only1 = v_out(1.0, 0.0);
  const auto only2 = v_out(0.0, 0.7);
  EXPECT_NEAR(std::abs(both - (only1 + only2)), 0.0, 1e-12);
}

TEST(SimConsistency, TransientSettlesToDcSolution) {
  // A nonlinear circuit driven by constant sources: the transient must
  // remain at the DC operating point.
  circuit::Netlist nl;
  const int vdd = nl.node("vdd");
  nl.mark_supply("vdd");
  const int out = nl.node("out");
  const int in = nl.node("in");
  nl.add_vsource("VDD", vdd, 0, 1.8);
  nl.add_vsource("VIN", in, 0, 0.75);
  nl.add_resistor("RL", vdd, out, 10e3, false);
  nl.add_nmos("M1", out, in, 0, 0, 5e-6, 0.36e-6);
  nl.add_capacitor("CL", out, 0, 1e-12, false);
  sim::Simulator s(nl, kTech);
  const double v_dc = s.op().node(out);
  sim::TranOptions opt;
  opt.tstop = 50e-9;
  opt.dt = 0.5e-9;
  const auto tr = s.tran(opt);
  for (std::size_t i = 0; i < tr.t.size(); ++i) {
    EXPECT_NEAR(tr.at(static_cast<int>(i), out), v_dc, 2e-4);
  }
}

TEST(SimConsistency, AcGainMatchesTransientSmallSignal) {
  // Small sinusoid through a CS amp: transient amplitude ratio must match
  // the AC gain at that frequency.
  const double f = 1e6;
  const double amp = 1e-3;
  circuit::Netlist nl;
  const int vdd = nl.node("vdd");
  nl.mark_supply("vdd");
  const int out = nl.node("out");
  const int in = nl.node("in");
  nl.add_vsource("VDD", vdd, 0, 1.8);
  // Sine approximated by a fine PWL over two periods.
  circuit::Pwl sine;
  for (int i = 0; i <= 400; ++i) {
    const double t = 2.0 / f * i / 400.0;
    sine.points.push_back({t, 0.75 + amp * std::sin(2.0 * M_PI * f * t)});
  }
  nl.add_vsource("VIN", in, 0, 0.75, 1.0, sine);
  nl.add_resistor("RL", vdd, out, 10e3, false);
  nl.add_nmos("M1", out, in, 0, 0, 5e-6, 0.36e-6);
  sim::Simulator s(nl, kTech);
  const double ac_gain = std::abs(s.ac({f}).phasor(0, out));
  sim::TranOptions opt;
  opt.tstop = 2.0 / f;
  opt.dt = 1.0 / f / 400.0;
  const auto tr = s.tran(opt);
  // Peak-to-peak of the second period (first settles).
  double vmin = 1e9, vmax = -1e9;
  for (std::size_t i = 0; i < tr.t.size(); ++i) {
    if (tr.t[i] < 1.0 / f) continue;
    vmin = std::min(vmin, tr.at(static_cast<int>(i), out));
    vmax = std::max(vmax, tr.at(static_cast<int>(i), out));
  }
  const double tran_gain = (vmax - vmin) / (2.0 * amp);
  EXPECT_NEAR(tran_gain, ac_gain, 0.1 * ac_gain);
}

TEST(SimConsistency, NoiseScalesWithResistance) {
  auto psd_of = [&](double r) {
    circuit::Netlist nl;
    const int a = nl.node("a");
    nl.add_vsource("V1", a, 0, 1.0);
    const int mid = nl.node("mid");
    nl.add_resistor("R1", a, mid, r, false);
    nl.add_resistor("R2", mid, 0, r, false);
    sim::Simulator s(nl, kTech);
    return s.noise({1e4}, mid, 0).out_psd[0];
  };
  // Divider of two equal resistors: output PSD = 4kT*(R/2); doubling R
  // doubles the PSD.
  EXPECT_NEAR(psd_of(2e4) / psd_of(1e4), 2.0, 1e-6);
}

// ---------------------------------------------------------------------
// Measurement properties.
// ---------------------------------------------------------------------
class BandwidthProperty : public ::testing::TestWithParam<double> {};

TEST_P(BandwidthProperty, SinglePoleBandwidthRecovered) {
  const double pole = GetParam();
  meas::AcCurve c;
  for (double f = pole / 1e3; f < pole * 1e3; f *= 1.12) {
    c.freq.push_back(f);
    c.h.push_back(10.0 / std::complex<double>(1.0, f / pole));
  }
  EXPECT_NEAR(meas::bandwidth_3db(c), pole, 0.03 * pole);
  EXPECT_NEAR(meas::gbw(c), 10.0 * pole, 0.35 * pole);
  EXPECT_NEAR(meas::peaking_db(c), 0.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Decades, BandwidthProperty,
                         ::testing::Values(1e3, 1e5, 1e7, 1e9));

TEST(MeasProperty, PeakingDetectsResonance) {
  // Second-order low-Q vs high-Q: peaking must rank them correctly.
  auto curve = [](double q) {
    meas::AcCurve c;
    const double f0 = 1e6;
    for (double f = 1e3; f < 1e9; f *= 1.1) {
      const double w = f / f0;
      c.freq.push_back(f);
      c.h.push_back(1.0 /
                    std::complex<double>(1.0 - w * w, w / q));
    }
    return c;
  };
  EXPECT_GT(meas::peaking_db(curve(5.0)), meas::peaking_db(curve(0.5)));
  EXPECT_NEAR(meas::peaking_db(curve(5.0)), 20.0 * std::log10(5.0), 0.6);
}

// ---------------------------------------------------------------------
// Golden metrics. Every metric of the full measurement plan, on fixed
// designs of every paper benchmark circuit, pinned to values captured
// before the dense MNA engine was deleted — from the last build that
// could cross-check the sparse engine against it (the two agreed to 1e-12
// relative on all of these designs). Any numeric drift of the simulator,
// or a change in which designs simulate, fails here.
// ---------------------------------------------------------------------

namespace {

using GoldenMetrics = std::vector<std::pair<std::string, double>>;

// Per circuit, trials 0-6 of the design ladder in trial_actions(); an
// empty entry is a design that fails to simulate.
const std::map<std::string, std::vector<GoldenMetrics>>& golden_metrics() {
  static const std::map<std::string, std::vector<GoldenMetrics>> kGolden = {
    {"Two-TIA",
     {
         {  // trial 0 (expert)
             {"bw", 142690937.92903796}, {"gain", 19673.745092038731},
             {"gbw", 2807265139759.814}, {"noise", 9.7418153043887274e-13},
             {"peaking", 0}, {"power", 0.0010775466964879387},
         },
         {  // trial 1
             {"bw", 206151493.92039019}, {"gain", 17504.486378432521},
             {"gbw", 3608576017222.9849}, {"noise", 1.0491972377395712e-12},
             {"peaking", 0}, {"power", 0.0011697501107884047},
         },
         {  // trial 2
             {"bw", 275243111.12062663}, {"gain", 13003.058218834147},
             {"gbw", 3579002198234.5444}, {"noise", 1.2321586070442914e-12},
             {"peaking", 0}, {"power", 0.0010974782010446619},
         },
         {  // trial 3
             {"bw", 11100493.168363331}, {"gain", 68214.514532108617},
             {"gbw", 757214752546.89282}, {"noise", 3.8318712220930603e-13},
             {"peaking", 0}, {"power", 0.067246036081598279},
         },
         {  // trial 4
             {"bw", 13317109.488020798}, {"gain", 556.42750919309879},
             {"gbw", 7410006062.0711956}, {"noise", 6.4455377920209499e-12},
             {"peaking", 0}, {"power", 0.0015807227263254162},
         },
         {  // trial 5
             {"bw", 817573388.00972533}, {"gain", 93.594098351671136},
             {"gbw", 76520044087.091217}, {"noise", 1.1687968147124134e-10},
             {"peaking", 0}, {"power", 0.0056673733289243321},
         },
         {  // trial 6
             {"bw", 29956057.787485443}, {"gain", 474.88546161947136},
             {"gbw", 14225696330.709585}, {"noise", 6.1294246906450524e-12},
             {"peaking", 0}, {"power", 0.0012819332552478958},
         },
     }},
    {"Two-Volt",
     {
         {  // trial 0 (expert)
             {"bw", 140294200.00420287}, {"cpm", 180},
             {"dpm", 75.608904791305832}, {"gain", 303.83792656409292},
             {"gbw", 42626698838.245155}, {"noise", 1.4987885539839374e-08},
             {"power", 0.001255575640640925},
         },
         {  // trial 1
             {"bw", 131150873.60517947}, {"cpm", 180},
             {"dpm", 79.997357190568039}, {"gain", 282.98330292088104},
             {"gbw", 37113507393.752686}, {"noise", 1.2924681525933069e-08},
             {"power", 0.0013773339597608378},
         },
         {  // trial 2
             {"bw", 107367497.34081097}, {"cpm", 180},
             {"dpm", 76.216266303397205}, {"gain", 306.22988921530219},
             {"gbw", 32879136816.000797}, {"noise", 1.4664839006600154e-08},
             {"power", 0.0011575611685645112},
         },
         {  // trial 3
             {"bw", 10000000000.000017}, {"cpm", 180}, {"dpm", 180},
             {"gain", 6.1965368393056806e-07}, {"gbw", 6196.5368393056915},
             {"noise", 2.5093084582790047e-05},
             {"power", 0.00067453780243723559},
         },
         {  // trial 4
             {"bw", 10000000000.000017}, {"cpm", 180}, {"dpm", 180},
             {"gain", 0.0012421312535146375}, {"gbw", 12421312.535146397},
             {"noise", 1.8826630388095532e-06},
             {"power", 0.0007745161536957915},
         },
         {  // trial 5
             {"bw", 10000000000.000017}, {"cpm", 180}, {"dpm", 180},
             {"gain", 9.8774922341410716e-08}, {"gbw", 987.74922341410888},
             {"noise", 3.568127461517353e-07},
             {"power", 0.00030188031604582198},
         },
         {  // trial 6
             {"bw", 10000000000.000017}, {"cpm", 180}, {"dpm", 180},
             {"gain", 3.3548744018063128e-07}, {"gbw", 3354.8744018063185},
             {"noise", 1.6241039685600601e-06},
             {"power", 0.00010443823342854089},
         },
     }},
    {"Three-TIA",
     {
         {  // trial 0 (expert)
             {"bw", 213794448.73524383}, {"gain", 981.85781879273304},
             {"gbw", 209915751105.18127}, {"power", 0.011765867381279188},
         },
         {  // trial 1
             {"bw", 227304263.11252698}, {"gain", 1467.0841967148792},
             {"gbw", 333474492258.3092}, {"power", 0.013164725564785769},
         },
         {  // trial 2
             {"bw", 213262997.68519405}, {"gain", 693.81593307701462},
             {"gbw", 147965265729.75412}, {"power", 0.013004226395814313},
         },
         {  // trial 3
             {"bw", 36661085.149403609}, {"gain", 421.34244438010342},
             {"gbw", 15446871230.476826}, {"power", 0.0029332413399383735},
         },
         {  // trial 4
             {"bw", 38240275.325210102}, {"gain", 2540.3300704605549},
             {"gbw", 97142921311.321991}, {"power", 0.0022088950799518279},
         },
         {  // trial 5
             {"bw", 440654.32132934913}, {"gain", 305.4958227733506},
             {"gbw", 134618054.45314193}, {"power", 0.30636597356225898},
         },
         {  // trial 6
             {"bw", 838718.82792951737}, {"gain", 34.450151787147249},
             {"gbw", 28893990.92891011}, {"power", 0.002623650421262174},
         },
     }},
    {"LDO",
     {
         {  // trial 0 (expert)
             {"lr", 6.2275956135248167}, {"power", 0.00218690438972655},
             {"psrr", 28.975304434705869}, {"tl_dn", 2.9999999999999925e-08},
             {"tl_up", 8.0000000000000187e-09},
             {"tv_dn", 2.7999999999999986e-08},
             {"tv_up", 4.2000000000000032e-08},
         },
         {  // trial 1
             {"lr", 6.5095442647923951}, {"power", 0.0018430312762025833},
             {"psrr", 28.757430770441314}, {"tl_dn", 1.8000000000000082e-08},
             {"tl_up", 6.0000000000000273e-09},
             {"tv_dn", 1.5999999999999932e-08},
             {"tv_up", 1.6000000000000011e-08},
         },
         {  // trial 2
             {"lr", 5.2209295896740358}, {"power", 0.0023733198181122984},
             {"psrr", 27.683786060370149}, {"tl_dn", 5.4000000000000034e-08},
             {"tl_up", 1.6000000000000011e-08},
             {"tv_dn", 5.2000000000000095e-08},
             {"tv_up", 7.8000000000000037e-08},
         },
         {},  // trial 3: fails to simulate
         {},  // trial 4: fails to simulate
         {},  // trial 5: fails to simulate
         {  // trial 6
             {"lr", 2.9252668702422193}, {"power", 0.0012414388312146421},
             {"psrr", 40.820471651705262}, {"tl_dn", 5.0200000000000002e-07},
             {"tl_up", 1.6600000000000003e-07},
             {"tv_dn", 4.100000000000001e-07},
             {"tv_up", 4.4000000000000002e-07},
         },
     }},
  };
  return kGolden;
}

// Trial 0 is the human-expert sizing and trials 1-2 perturb it — these are
// guaranteed (or near-guaranteed) to simulate, so the comparison cannot go
// vacuous on circuits where fully random sizings rarely converge (the
// LDO). The remaining trials are uniform random. One Rng serves the whole
// ladder, so the trials must be drawn in order.
gcnrl::la::Mat trial_actions(const gcnrl::env::BenchmarkCircuit& bc,
                             Rng& rng, int trial) {
  gcnrl::la::Mat actions = bc.space.actions_from_params(bc.human_expert);
  if (trial == 0) return actions;
  if (trial <= 2) {
    for (int i = 0; i < actions.rows(); ++i) {
      for (int j = 0; j < actions.cols(); ++j) {
        actions(i, j) += 0.05 * rng.normal();
      }
    }
    return actions;
  }
  return bc.space.random_actions(rng);
}

std::optional<gcnrl::env::MetricMap> evaluate_actions(
    const gcnrl::env::BenchmarkCircuit& bc, const gcnrl::la::Mat& actions) {
  circuit::Netlist nl = bc.netlist;
  bc.space.apply(nl, bc.space.refine(actions));
  try {
    return bc.evaluate(nl);
  } catch (const sim::SimError&) {
    return std::nullopt;
  }
}

void expect_metrics_near(const gcnrl::env::MetricMap& got,
                         const GoldenMetrics& want, double rel,
                         const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (const auto& [key, v] : want) {
    const auto it = got.find(key);
    ASSERT_NE(it, got.end()) << what << ": missing metric " << key;
    const double scale =
        std::max({std::fabs(v), std::fabs(it->second), 1e-15});
    EXPECT_NEAR(it->second, v, rel * scale) << what << " metric " << key;
  }
}

}  // namespace

class GoldenMetricsTest : public ::testing::TestWithParam<std::string> {};

TEST_P(GoldenMetricsTest, RandomDesignsMatchWithin1em12) {
  const auto bc = gcnrl::circuits::make_benchmark(
      GetParam(), circuit::make_technology("180nm"));
  const std::vector<GoldenMetrics>& golden = golden_metrics().at(GetParam());
  Rng rng(20260808);
  int simulated = 0;
  for (int trial = 0; trial < static_cast<int>(golden.size()); ++trial) {
    const auto got = evaluate_actions(bc, trial_actions(bc, rng, trial));
    const std::string what = GetParam() + " trial " + std::to_string(trial);
    ASSERT_EQ(got.has_value(), !golden[trial].empty())
        << what << ": simulability changed";
    if (!got) continue;
    ++simulated;
    expect_metrics_near(*got, golden[trial], 1e-12, what);
  }
  EXPECT_GT(simulated, 0) << "every trial failed to simulate";
}

INSTANTIATE_TEST_SUITE_P(
    AllCircuits, GoldenMetricsTest,
    ::testing::Values("Two-TIA", "Two-Volt", "Three-TIA", "LDO"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return name;
    });

// A random Two-TIA design whose AC sweep splits a frequency block: a later
// frequency of an 8-point block rejects the pivots chosen at the block's
// first one, so the sweep re-pivots there. The rejected frequency lies
// near the -3 dB point, so losing it would move bw and gbw. The golden
// values come from the dense rerun that used to handle such sweeps; the
// split sweep must reproduce them.
TEST(GoldenMetrics, SplitAcSweepMatchesDenseRerunWithin1em10) {
  const auto bc = gcnrl::circuits::make_benchmark(
      "Two-TIA", circuit::make_technology("180nm"));
  const gcnrl::la::Mat actions{
      {0.12298528297600186, -0.88568750436652843, -0.20493686105001352},
      {-0.26838158357336717, 0.058890776209633566, -0.88490205323791615},
      {-0.9010389701851933, -0.053375731426824391, 0.14322364242800978},
      {0.72209968471355501, -0.96538689979560588, 0.74067377775342513},
      {-0.75027542467070707, -0.33359464886443746, -0.1693740033472968},
      {0.37157660885352173, 0.83189091260456438, -0.15836066593710263},
      {0.17373882489770387, -0.1601811751852189, -0.39393412857154608},
      {-0.64150370847733629, 0, 0},
      {-0.32638410986516742, 0, 0},
  };
  sim::sim_perf_reset();
  const auto got = evaluate_actions(bc, actions);
  const long splits = sim::sim_perf_snapshot().ac.sparse_fallbacks;
  sim::sim_perf_reset();
  ASSERT_TRUE(got.has_value());
  EXPECT_GE(splits, 1);
  expect_metrics_near(*got,
                      {{"bw", 2351968179.0516639},
                       {"gain", 132.60881261000918},
                       {"gbw", 311891707520.56659},
                       {"noise", 2.8576836907820566e-11},
                       {"peaking", 1.2503879688710204},
                       {"power", 0.0035079744980191794}},
                      1e-10, "split Two-TIA design");
}

// A random Two-Volt design one of whose DC solves meets a factorization
// the sparse LU rejects. That is a non-converged Newton attempt, and the
// ladder's later strategy converges; the golden values come from the
// dense rerun that used to handle such solves.
TEST(GoldenMetrics, RejectedDcFactorizationMatchesDenseRerunWithin1em12) {
  const auto bc = gcnrl::circuits::make_benchmark(
      "Two-Volt", circuit::make_technology("180nm"));
  const gcnrl::la::Mat actions{
      {0.50260243256510595, 0.57051620386909607, -0.077645173388147803},
      {0.20332027307806366, 0.83523317276290721, 0.0034187439252886254},
      {-0.56125943917061383, -0.84142572917438518, -0.34259052125587131},
      {-0.50746570049882678, -0.42496847773765456, -0.91136946424145093},
      {-0.68394202138208038, -0.11871792254195701, -0.84572582968997412},
      {-0.26607713260354893, 0.18958917263400088, 0.013239488655800047},
      {0.69850517983728855, 0.98447611866913021, -0.035665527439329825},
      {-0.53471259300100127, -0.17879929695415897, -0.92962813992279569},
      {0.074488338620449124, -0.28339280761670715, -0.61341246893614998},
      {0.64655658240588365, -0.049890428850443369, 0.65899891842282043},
      {-0.33132838988300017, -0.34995577272051182, 0.8343030474014399},
      {-0.57131621677010513, -0.24044594347035275, 0.10544125685576677},
      {0.4954148721058711, -0.25294055372761703, -0.0093900700760540801},
      {-0.37381753982506694, 0.41964192202458772, 0.015938914418873962},
      {0.13282781598009774, 0.88799451166926979, 0.13340512562884443},
      {0.42161990976032371, 0.21497189174635145, 0.010465180854709377},
      {-0.12698977423337854, 0.29752304821339259, -0.66434919420840144},
      {-0.086817015705770606, 0, 0},
      {0.35057102554676156, 0, 0},
      {0.65550885188197738, 0, 0},
      {-0.55266677520548035, 0, 0},
      {-0.090896740852777214, 0, 0},
      {-0.57429686659493595, 0, 0},
  };
  const auto got = evaluate_actions(bc, actions);
  ASSERT_TRUE(got.has_value());
  expect_metrics_near(*got,
                      {{"bw", 10000000000.000017},
                       {"cpm", 180},
                       {"dpm", 180},
                       {"gain", 8.6862868489482896e-08},
                       {"gbw", 868.62868489483049},
                       {"noise", 1.1279407166813045e-06},
                       {"power", 0.00088366906272333056}},
                      1e-12, "Two-Volt design with a rejected DC factor");
}
