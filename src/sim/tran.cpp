#include "sim/tran.hpp"

#include <chrono>
#include <cmath>

#include "sim/perf.hpp"
#include "sim/structure.hpp"

namespace gcnrl::sim {
namespace {

using clock_type = std::chrono::steady_clock;

double seconds_between(clock_type::time_point a, clock_type::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double src_at(double dc, const circuit::Pwl& pwl, double t) {
  return pwl.empty() ? dc : pwl.at(t);
}

// Per-run workspace reused across every timestep and Newton iteration —
// the sparse LU keeps its symbolic factorization alive for the whole
// transient run (the pattern never changes), so after the first timestep
// each iteration is a numeric refactor only.
struct TranWork {
  explicit TranWork(const MnaStructure& structure)
      : st(structure), slu(structure.pattern) {}
  const MnaStructure& st;
  la::SparseLuD slu;
  std::vector<double> vals;  // pattern-aligned Jacobian values
  std::vector<double> f, rhs, dx;
  PhaseSeconds phase;
};

// Residual + Jacobian for one Newton iteration at time t_now, the
// Jacobian written through the precomputed stamp slots. Capacitors (and
// the MOS capacitances) use the backward-Euler companion model.
void build_tran_system(const SimContext& ctx, const MnaStructure& st,
                       const OpPoint& ic, const std::vector<double>& x,
                       const std::vector<double>& x_prev, double t_now,
                       double gh, double gmin, std::vector<double>& vals,
                       std::vector<double>& f) {
  const MnaMap& m = ctx.map;
  const circuit::Netlist& nl = ctx.nl;
  vals.assign(st.pattern.nnz(), 0.0);
  f.assign(m.dim(), 0.0);

  auto volt = [&](const std::vector<double>& xx, int node) {
    return node == 0 ? 0.0 : xx[m.v(node)];
  };
  // Residual contribution of a backward-Euler companion capacitor whose
  // conductance quad is already slot-resolved.
  auto cap_residual = [&](int a, int b, double g) {
    const double dv_now = volt(x, a) - volt(x, b);
    const double dv_prev = volt(x_prev, a) - volt(x_prev, b);
    const double i = g * (dv_now - dv_prev);
    if (m.v(a) >= 0) f[m.v(a)] += i;
    if (m.v(b) >= 0) f[m.v(b)] -= i;
  };

  for (std::size_t k = 0; k < nl.resistors().size(); ++k) {
    const auto& res = nl.resistors()[k];
    const double g = 1.0 / std::max(res.r, kMinResistance);
    add_quad(vals.data(), st.resistors[k], g);
    const double i = g * (volt(x, res.a) - volt(x, res.b));
    if (m.v(res.a) >= 0) f[m.v(res.a)] += i;
    if (m.v(res.b) >= 0) f[m.v(res.b)] -= i;
  }

  for (std::size_t k = 0; k < nl.capacitors().size(); ++k) {
    const auto& cap = nl.capacitors()[k];
    const double g = cap.c * gh;
    add_quad(vals.data(), st.capacitors[k], g);
    cap_residual(cap.a, cap.b, g);
  }

  for (std::size_t k = 0; k < nl.mosfets().size(); ++k) {
    const auto& mos = nl.mosfets()[k];
    const MosOp op = eval_mos(ctx.models[k], mos, volt(x, mos.g),
                              volt(x, mos.d), volt(x, mos.s));
    const int id_row = m.v(mos.d);
    const int is_row = m.v(mos.s);
    if (id_row >= 0) f[id_row] += op.id;
    if (is_row >= 0) f[is_row] -= op.id;
    const MosSlots& ms = st.mosfets[k];
    add_mos_g(vals.data(), ms, op.gm, op.gds);
    const MosCaps& c = ic.caps[k];
    add_quad(vals.data(), ms.cgs, c.cgs * gh);
    cap_residual(mos.g, mos.s, c.cgs * gh);
    add_quad(vals.data(), ms.cgd, c.cgd * gh);
    cap_residual(mos.g, mos.d, c.cgd * gh);
    add_quad(vals.data(), ms.cdb, c.cdb * gh);
    cap_residual(mos.d, mos.b, c.cdb * gh);
    add_quad(vals.data(), ms.csb, c.csb * gh);
    cap_residual(mos.s, mos.b, c.csb * gh);
  }

  for (const auto& src : nl.isources()) {
    const double i = src_at(src.dc, src.pwl, t_now);
    if (m.v(src.p) >= 0) f[m.v(src.p)] += i;
    if (m.v(src.n) >= 0) f[m.v(src.n)] -= i;
  }
  for (std::size_t k = 0; k < nl.vsources().size(); ++k) {
    const auto& src = nl.vsources()[k];
    const int b = m.branch(static_cast<int>(k));
    const double i = x[b];
    const VsrcSlots& vs = st.vsources[k];
    if (m.v(src.p) >= 0) {
      f[m.v(src.p)] += i;
      vals[vs.pb] += 1.0;
      vals[vs.bp] += 1.0;
    }
    if (m.v(src.n) >= 0) {
      f[m.v(src.n)] -= i;
      vals[vs.nb] -= 1.0;
      vals[vs.bn] -= 1.0;
    }
    f[b] = volt(x, src.p) - volt(x, src.n) - src_at(src.dc, src.pwl, t_now);
  }

  for (int node = 1; node < m.num_nodes(); ++node) {
    const int row = m.v(node);
    vals[st.node_diag[node - 1]] += gmin;
    f[row] += gmin * x[row];
  }
}

}  // namespace

TranResult solve_tran(const SimContext& ctx, const OpPoint& ic,
                      const TranOptions& opt) {
  const auto t0 = clock_type::now();
  const MnaMap& m = ctx.map;
  const circuit::Netlist& nl = ctx.nl;
  const int steps = static_cast<int>(std::ceil(opt.tstop / opt.dt));

  TranResult out;
  out.t.reserve(steps + 1);
  out.v = la::Mat(steps + 1, m.num_nodes());

  TranWork w(*ctx.structure);

  // Unknown vector from the initial condition.
  std::vector<double> x(m.dim(), 0.0);
  for (int node = 1; node < m.num_nodes(); ++node) x[m.v(node)] = ic.v[node];
  for (std::size_t k = 0; k < nl.vsources().size(); ++k) {
    x[m.branch(static_cast<int>(k))] = ic.branch_i[k];
  }
  out.t.push_back(0.0);
  for (int node = 0; node < m.num_nodes(); ++node) out.v(0, node) = ic.v[node];

  std::vector<double> x_prev = x;

  const double gh = 1.0 / opt.dt;
  for (int step = 1; step <= steps; ++step) {
    const double t_now = step * opt.dt;
    bool converged = false;
    for (int iter = 0; iter < opt.max_newton; ++iter) {
      const auto a0 = clock_type::now();
      build_tran_system(ctx, w.st, ic, x, x_prev, t_now, gh, opt.gmin,
                        w.vals, w.f);
      const auto a1 = clock_type::now();
      if (!w.slu.factor_values(w.vals.data())) {
        throw SimError("transient: singular Jacobian at t=" +
                       format_sci(t_now) + " s (Newton iteration " +
                       std::to_string(iter + 1) + ")");
      }
      const auto a2 = clock_type::now();
      w.rhs.resize(w.f.size());
      for (std::size_t i = 0; i < w.f.size(); ++i) w.rhs[i] = -w.f[i];
      w.dx.resize(w.f.size());
      w.slu.solve_into(w.rhs.data(), w.dx.data());
      const auto a3 = clock_type::now();
      w.phase.assembly += seconds_between(a0, a1);
      w.phase.factor += seconds_between(a1, a2);
      w.phase.solve += seconds_between(a2, a3);
      double max_dv = 0.0;
      const int nv = m.num_nodes() - 1;
      for (int i = 0; i < nv; ++i) {
        max_dv = std::max(max_dv, std::fabs(w.dx[i]));
      }
      const double scale =
          max_dv > opt.step_limit ? opt.step_limit / max_dv : 1.0;
      for (std::size_t i = 0; i < x.size(); ++i) {
        x[i] += scale * w.dx[i];
        if (!std::isfinite(x[i])) {
          throw SimError("transient: divergence at t=" + format_sci(t_now) +
                         " s");
        }
      }
      double max_res = 0.0;
      for (int i = 0; i < nv; ++i) {
        max_res = std::max(max_res, std::fabs(w.f[i]));
      }
      if (scale == 1.0 && max_dv < opt.tol_step &&
          max_res < opt.tol_residual) {
        converged = true;
        break;
      }
    }
    if (!converged) {
      throw SimError("transient: Newton failed at t=" + format_sci(t_now) +
                     " s");
    }
    out.t.push_back(t_now);
    for (int node = 1; node < m.num_nodes(); ++node) {
      out.v(step, node) = x[m.v(node)];
    }
    x_prev = x;
  }
  sim_perf_record(Analysis::Tran, steps, seconds_between(t0, clock_type::now()),
                  0, 0, &w.phase);
  return out;
}

}  // namespace gcnrl::sim
