#include "sim/mna.hpp"

#include <cmath>
#include <cstdio>

#include "la/sparse.hpp"
#include "sim/structure.hpp"

namespace gcnrl::sim {

MnaMap::MnaMap(const circuit::Netlist& nl)
    : num_nodes_(nl.num_nodes()),
      dim_(nl.num_nodes() - 1 + static_cast<int>(nl.vsources().size())) {}

SimContext::SimContext(const circuit::Netlist& netlist,
                       const circuit::Technology& technology)
    : nl(netlist), tech(technology), map(netlist) {
  models.reserve(nl.mosfets().size());
  for (const auto& mos : nl.mosfets()) {
    models.push_back(mos_model(tech, mos.is_pmos));
  }
  structure = std::make_unique<MnaStructure>(nl, map);
}

SimContext::~SimContext() = default;

std::vector<double> logspace(double f_lo, double f_hi, int n) {
  std::vector<double> f(n);
  if (n == 1) {
    f[0] = f_lo;
    return f;
  }
  const double ratio = std::log(f_hi / f_lo) / (n - 1);
  for (int i = 0; i < n; ++i) f[i] = f_lo * std::exp(ratio * i);
  return f;
}

std::string format_sci(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6e", v);
  return buf;
}

}  // namespace gcnrl::sim
