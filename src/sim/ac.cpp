#include "sim/ac.hpp"

#include <algorithm>
#include <chrono>

#include "sim/perf.hpp"
#include "sim/structure.hpp"

namespace gcnrl::sim {
namespace {

using clock_type = std::chrono::steady_clock;

double seconds_between(clock_type::time_point a, clock_type::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Frequency-independent AC excitation vector (shared by every sweep
// point).
std::vector<std::complex<double>> build_ac_rhs(const SimContext& ctx) {
  using cd = std::complex<double>;
  const MnaMap& m = ctx.map;
  const circuit::Netlist& nl = ctx.nl;
  std::vector<cd> rhs(m.dim(), cd(0.0));
  for (const auto& src : nl.isources()) {
    if (src.ac == 0.0) continue;
    // Current p -> n through the source injects into n.
    if (m.v(src.p) >= 0) rhs[m.v(src.p)] -= src.ac;
    if (m.v(src.n) >= 0) rhs[m.v(src.n)] += src.ac;
  }
  for (std::size_t k = 0; k < nl.vsources().size(); ++k) {
    const auto& src = nl.vsources()[k];
    if (src.ac != 0.0) rhs[m.branch(static_cast<int>(k))] += src.ac;
  }
  return rhs;
}

}  // namespace

// G and C are assembled once into pattern-aligned arrays, then blocks of
// up to kMaxLanes frequency points are factored and solved over one
// symbolic factorization per block. A block the factorization splits
// resumes at its first rejected frequency.
AcResult solve_ac(const SimContext& ctx, const OpPoint& op,
                  const std::vector<double>& freqs) {
  using cd = std::complex<double>;
  constexpr int kLanes = la::SparseSweepLu::kMaxLanes;
  const auto t0 = clock_type::now();
  const MnaMap& m = ctx.map;
  const MnaStructure& st = *ctx.structure;
  PhaseSeconds phase;

  const std::vector<cd> rhs = build_ac_rhs(ctx);

  const auto s0 = clock_type::now();
  std::vector<double> g, c;
  assemble_ac_gc(ctx, st, op, g, c);
  phase.assembly += seconds_between(s0, clock_type::now());

  AcResult out;
  out.freq = freqs;
  out.v = la::CMat(static_cast<int>(freqs.size()), m.num_nodes());

  if (!ctx.sweep_cache) {
    ctx.sweep_cache = std::make_unique<la::SparseSweepLu>(st.pattern);
  }
  la::SparseSweepLu& sweep = *ctx.sweep_cache;
  std::vector<cd> xs(static_cast<std::size_t>(kLanes) * m.dim());
  double omega[kLanes];
  const int nf = static_cast<int>(freqs.size());
  bool split = false;
  for (int fi = 0; fi < nf;) {
    const int count = std::min(kLanes, nf - fi);
    for (int f = 0; f < count; ++f) {
      omega[f] = 2.0 * M_PI * freqs[fi + f];
    }
    // Per-frequency scatter inside factor_block is attributed to the
    // factor phase (see PhaseSeconds).
    const auto a1 = clock_type::now();
    const int done = sweep.factor_block(g.data(), c.data(), omega, count);
    const auto a2 = clock_type::now();
    phase.factor += seconds_between(a1, a2);
    if (done == 0) {
      sim_perf_record(Analysis::Ac, static_cast<long>(fi),
                      seconds_between(t0, clock_type::now()), 0, 0, &phase);
      throw SimError("AC matrix singular at f=" + format_sci(freqs[fi]) +
                     " Hz");
    }
    if (done < count && !split) {
      split = true;
      sim_perf_sweep_split(Analysis::Ac);
    }
    sweep.solve_block(rhs.data(), xs.data(), m.dim());
    phase.solve += seconds_between(a2, clock_type::now());
    for (int f = 0; f < done; ++f) {
      const cd* xf = xs.data() + static_cast<std::size_t>(f) * m.dim();
      for (int node = 1; node < m.num_nodes(); ++node) {
        out.v(fi + f, node) = xf[m.v(node)];
      }
    }
    fi += done;
  }
  sim_perf_record(Analysis::Ac, static_cast<long>(freqs.size()),
                  seconds_between(t0, clock_type::now()), 0, 0, &phase);
  return out;
}

}  // namespace gcnrl::sim
