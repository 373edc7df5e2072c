// Small-signal AC analysis.
//
// Linearizes every MOSFET at the DC operating point (gm VCCS, gds, and the
// four capacitances) and solves the complex MNA system Y(w) x = rhs at
// each frequency, where rhs carries the `ac` magnitudes of the independent
// sources. Results are node-voltage phasors per frequency. Y = G + j*w*C
// is split once per operating point (sim::assemble_ac_gc) and the sweep
// is factored in blocks of frequencies by la::SparseSweepLu. Throws
// SimError naming the frequency when Y cannot be factored there.
#pragma once

#include <complex>

#include "sim/mna.hpp"

namespace gcnrl::sim {

struct AcResult {
  std::vector<double> freq;  // [Hz]
  la::CMat v;                // freq.size() x num_nodes node phasors

  [[nodiscard]] std::complex<double> phasor(int f_index, int node) const {
    return v(f_index, node);
  }
  // Differential phasor between two nodes.
  [[nodiscard]] std::complex<double> diff(int f_index, int p, int n) const {
    return v(f_index, p) - v(f_index, n);
  }
};

AcResult solve_ac(const SimContext& ctx, const OpPoint& op,
                  const std::vector<double>& freqs);

}  // namespace gcnrl::sim
