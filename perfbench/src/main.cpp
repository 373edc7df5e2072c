// perfbench: whole-task wall time of the repository's task API, with an
// outside-timed per-layer trace.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--size full|tiny] [--spans FILE] [--perturb]
//
// --trace 0 (the user path) times repeated api::run_tasks calls, each on a
// fresh EvalService, for S seconds and reports the end-to-end metrics,
// with times scaled by the reference work (reference.hpp) timed before
// every call.
// --trace 1 alternates one untraced api::run_tasks call with one
// pass of the traced driver (driver.hpp) for S seconds and reports the
// per-layer metrics. Both modes check every run against the first
// api::run_tasks result bit for bit, plus the workload invariants, and
// exit 1 on any mismatch. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --perturb feeds the traced driver a different calibration seed, so the
// bitwise check must fail (the self-check uses it to prove the check
// bites).
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/task.hpp"
#include "la/stats.hpp"
#include "driver.hpp"
#include "reference.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace api = gcnrl::api;
namespace sim = gcnrl::sim;
using perfbench::Workload;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  double max_rss_mb = 0.0;
};

Usage usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return {secs(ru.ru_utime), secs(ru.ru_stime),
          static_cast<double>(ru.ru_maxrss) / 1024.0};
}

long total_evals(const std::vector<api::TaskResult>& rs) {
  long n = 0;
  for (const api::TaskResult& t : rs) {
    for (const gcnrl::rl::RunResult& r : t.runs) n += r.evals;
  }
  return n;
}

// Empty when `b` equals `a` bit for bit on every (task, seed): best FoM,
// evaluations, sims and the best-so-far trace fingerprint.
std::string mismatch(const std::vector<api::TaskResult>& a,
                     const std::vector<api::TaskResult>& b) {
  if (a.size() != b.size()) return "task counts differ";
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].runs.size() != b[i].runs.size()) {
      return a[i].spec.label + ": seed counts differ";
    }
    for (std::size_t s = 0; s < a[i].runs.size(); ++s) {
      const gcnrl::rl::RunResult& x = a[i].runs[s];
      const gcnrl::rl::RunResult& y = b[i].runs[s];
      const std::string where = a[i].spec.label + " seed " + std::to_string(s);
      if (std::bit_cast<std::uint64_t>(x.best_fom) !=
          std::bit_cast<std::uint64_t>(y.best_fom)) {
        return where + ": best_fom differs";
      }
      if (x.evals != y.evals) return where + ": evals differ";
      if (x.sims != y.sims) return where + ": sims differ";
      if (api::trace_fingerprint(x.best_trace) !=
          api::trace_fingerprint(y.best_trace)) {
        return where + ": trace fingerprint differs";
      }
    }
  }
  return "";
}

// Empty when the workload invariants hold: every (task, seed) ran its
// stated evaluations — `steps`, or for a budget-chained method (BO/MACE)
// until its sims reached the matching ES seed's sims — and a chained
// seed never simulated more than its source.
std::string invariant_violation(const Workload& w,
                                const std::vector<api::TaskResult>& rs) {
  if (rs.size() != w.tasks.size()) return "task count differs from workload";
  for (const api::TaskResult& t : rs) {
    if (t.runs.size() != static_cast<std::size_t>(t.spec.seeds)) {
      return t.spec.label + ": wrong seed count";
    }
    const std::string& from = api::method_info(t.spec.method).budget_from;
    const api::TaskResult* src = nullptr;
    for (const api::TaskResult& u : rs) {
      if (!from.empty() && u.spec.method == from &&
          u.spec.circuit == t.spec.circuit && u.spec.node == t.spec.node &&
          u.spec.steps == t.spec.steps && u.spec.seeds == t.spec.seeds) {
        src = &u;
        break;
      }
    }
    for (std::size_t s = 0; s < t.runs.size(); ++s) {
      const gcnrl::rl::RunResult& r = t.runs[s];
      const std::string where = t.spec.label + " seed " + std::to_string(s);
      if (src == nullptr) {
        if (r.evals != t.spec.steps) return where + ": evals != steps";
        continue;
      }
      const long cap = src->runs[s].sims;
      if (r.sims > cap) return where + ": sims exceed the ES seed's sims";
      if (r.evals > t.spec.steps || (r.evals < t.spec.steps && r.sims != cap)) {
        return where + ": stopped before its step or sim budget";
      }
    }
  }
  return "";
}

// One timed set-up (perfbench::set_up) on a throwaway service.
double time_setup(const Workload& w) {
  const api::RunOptions opts = perfbench::run_options(w);
  perfbench::Tracer tracer;
  const double t0 = now_s();
  (void)perfbench::set_up(w.tasks, opts, tracer);
  return now_s() - t0;
}

using Metrics = std::map<std::string, double>;

// Per-layer metrics of one traced pass (see perfbench/README.md).
Metrics layer_metrics(const std::map<std::string, perfbench::SpanStats>& stats,
                      const perfbench::TracedResult& tr, double traced_wall,
                      double untraced_wall, const Usage& u0,
                      const Usage& u1) {
  const auto busy = [&](const std::string& n) {
    const auto it = stats.find(n);
    return it == stats.end() ? 0.0 : it->second.busy_s;
  };
  const auto calls = [&](const std::string& n) {
    const auto it = stats.find(n);
    return it == stats.end() ? 0.0 : static_cast<double>(it->second.calls);
  };
  Metrics m;
  for (const char* n : {"rl.act", "rl.observe.warm", "rl.observe.learn",
                        "env.eval_batch"}) {
    m[std::string(n) + ".calls"] = calls(n);
    m[std::string(n) + ".s"] = busy(n);
  }
  m["rl.updates"] = static_cast<double>(tr.updates);
  double ask_tell_s = 0.0;
  for (const char* o : {"es", "bo", "mace"}) {
    for (const char* phase : {"ask", "tell"}) {
      const std::string n = std::string("opt.") + o + "." + phase;
      m[n + ".calls"] = calls(n);
      m[n + ".s"] = busy(n);
      ask_tell_s += busy(n);
    }
  }
  m["env.eval_batch.jobs"] = static_cast<double>(tr.search.svc.requested);
  m["run.commit.s"] = busy("run.commit");
  m["api.build_circuit.s"] = busy("api.build_circuit");
  m["env.calibrate.s"] = busy("env.calibrate");
  m["env.calibrate.sims"] = static_cast<double>(tr.calibrate.svc.sims);

  const sim::SimPerf& sp = tr.search.sim;
  double sim_s = 0.0;
  double fallbacks = 0.0;
  const std::pair<const char*, const sim::AnalysisPerf*> analyses[] = {
      {"dc", &sp.dc}, {"ac", &sp.ac}, {"noise", &sp.noise}, {"tran", &sp.tran}};
  for (const auto& [name, a] : analyses) {
    const std::string p = std::string("sim.") + name + ".";
    m[p + "calls"] = static_cast<double>(a->calls);
    m[p + "items"] = static_cast<double>(a->items);
    m[p + "s"] = a->seconds;
    m[p + "assembly_s"] = a->phase.assembly;
    m[p + "factor_s"] = a->phase.factor;
    m[p + "solve_s"] = a->phase.solve;
    sim_s += a->seconds;
    fallbacks += static_cast<double>(a->sparse_fallbacks);
  }
  m["sim.sparse_fallbacks"] = fallbacks;
  m["env.pool.busy_ratio"] =
      ratio(sim_s, perfbench::kThreads * busy("env.eval_batch"));
  m["env.eval.fail_ratio"] = ratio(static_cast<double>(tr.failed_evals),
                                   static_cast<double>(tr.evals));
  m["env.cache.hit_ratio"] =
      ratio(static_cast<double>(tr.search.svc.cache_hits),
            static_cast<double>(tr.search.svc.requested));

  double sims = 0.0;
  std::vector<double> best;
  for (const api::TaskResult& t : tr.results) {
    for (const gcnrl::rl::RunResult& r : t.runs) {
      sims += static_cast<double>(r.sims);
      best.push_back(r.best_fom);
    }
  }
  m["api.evals"] = static_cast<double>(tr.evals);
  m["api.sims"] = sims;
  m["api.best_fom_mean"] = gcnrl::la::mean(best);

  double self = 0.0;
  for (const auto& [name, st] : stats) {
    if (name.rfind("driver.", 0) == 0) self += st.self_s;
  }
  m["driver.self.s"] = self;
  m["proc.user_s"] = u1.user_s - u0.user_s;
  m["proc.sys_s"] = u1.sys_s - u0.sys_s;
  m["trace.wall_s"] = traced_wall;
  m["trace.untraced_wall_s"] = untraced_wall;
  m["trace.overhead_ratio"] = ratio(traced_wall, untraced_wall);
  m["share.rl.learner"] =
      ratio(busy("rl.act") + busy("rl.observe.warm") +
                busy("rl.observe.learn") + busy("rl.agent_init"),
            traced_wall);
  m["share.opt.ask_tell"] = ratio(ask_tell_s + busy("opt.init"), traced_wall);
  m["share.env.eval_batch"] = ratio(busy("env.eval_batch"), traced_wall);
  m["share.env.calibrate"] =
      ratio(busy("env.calibrate") + busy("api.build_circuit"), traced_wall);
  return m;
}

std::string unit_of(const std::string& name) {
  const auto ends = [&](const char* suf) {
    const std::size_t n = std::strlen(suf);
    return name.size() >= n && name.compare(name.size() - n, n, suf) == 0;
  };
  if (name == "peak_rss_mb") return "MB";
  if (ends("_ms")) return "ms";
  if (ends(".s") || ends("_s")) return "s";
  if (ends("ratio") || ends("_frac") || name.rfind("share.", 0) == 0) {
    return "ratio";
  }
  if (name == "api.best_fom_mean") return "fom";
  return "count";
}

void print_result(bool correct, long attempted, long failed,
                  const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  bool first = true;
  for (const auto& [name, value] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(),
                std::isfinite(value) ? value : 0.0, unit_of(name).c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  int trace = 0;
  bool tiny = false;
  bool perturb = false;
  std::string spans;
};

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--perturb") {
      a.perturb = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = std::stoi(v);
      if (a.trace != 0 && a.trace != 1) {
        throw std::invalid_argument("--trace must be 0 or 1");
      }
    } else if (k == "--size") {
      if (v != "full" && v != "tiny") {
        throw std::invalid_argument("--size must be full or tiny");
      }
      a.tiny = v == "tiny";
    } else if (k == "--spans") {
      a.spans = v;
    } else {
      throw std::invalid_argument("unknown option " + k);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return a;
}

int run_untraced(const Args& args, const Workload& w) {
  // The first call warms caches and the allocator and is the result every
  // timed call is checked against; it is not timed. The peak RSS is read
  // after it, before the reference work (which has buffers of its own)
  // first runs.
  const std::vector<api::TaskResult> expected =
      api::run_tasks(w.tasks, perfbench::run_options(w));
  const double rss = usage().max_rss_mb;
  long attempted = total_evals(expected);
  std::string bad = invariant_violation(w, expected);
  std::vector<double> setup;
  std::vector<double> walls;
  // Reference work (reference.hpp), timed before every call at least
  // three times and for a tenth of the previous call's time, so a run of
  // few long calls still gets many samples: one copy for the calls, and
  // kThreads copies at once for the set-ups, which are short bursts on
  // the whole eval pool and slow with it.
  std::vector<double> ref_times;
  std::vector<double> pool_ref_times;
  const double start = now_s();
  while (bad.empty() && (walls.empty() || now_s() - start < args.seconds)) {
    const double ref_start = now_s();
    const double ref_for = walls.empty() ? 0.0 : 0.1 * walls.back();
    int samples = 0;
    do {
      ref_times.push_back(perfbench::time_reference(1));
      pool_ref_times.push_back(perfbench::time_reference(perfbench::kThreads));
    } while (++samples < 3 || now_s() - ref_start < ref_for);
    const api::RunOptions opts = perfbench::run_options(w);
    const double t0 = now_s();
    const std::vector<api::TaskResult> rs = api::run_tasks(w.tasks, opts);
    walls.push_back(now_s() - t0);
    attempted += total_evals(rs);
    bad = invariant_violation(w, rs);
    if (bad.empty()) bad = mismatch(expected, rs);
    // Set-ups are timed between the timed calls rather than all up front,
    // so setup_s samples the same stretch of time as wall_s; a cheap one
    // (Two-TIA calibrates in ~15 ms) is repeated for 0.1 s.
    const double setup_start = now_s();
    do {
      setup.push_back(time_setup(w));
    } while (now_s() - setup_start < 0.1);
  }
  // Times are reported scaled to a machine that runs the reference work
  // in kReferenceNominalS (reference.hpp), which takes out the host's
  // drift in speed between runs. Medians over the whole run: a single
  // reference sample is noisier than a whole call.
  const double scale = perfbench::kReferenceNominalS / median(ref_times);
  const double setup_scale =
      perfbench::kReferenceNominalS / median(pool_ref_times);

  // One traced pass after the timed runs: the bitwise check against
  // run_tasks, and the per-evaluation failure count.
  perfbench::Tracer tracer;
  api::RunOptions opts = perfbench::run_options(w);
  if (args.perturb) opts.calib_seed += 1;
  const perfbench::TracedResult tr = perfbench::run_traced(w.tasks, opts, tracer);
  if (bad.empty()) bad = mismatch(expected, tr.results);

  const Metrics m{
      {"wall_s", scale * median(walls)},
      {"setup_s", setup_scale * median(setup)},
      {"peak_rss_mb", rss},
      {"sim_ok_frac", 1.0 - ratio(static_cast<double>(tr.failed_evals),
                                  static_cast<double>(tr.evals))}};
  std::fprintf(stderr, "perfbench %s: %ld evaluations per run; unscaled "
               "wall time of %zu timed calls:", w.name.c_str(),
               total_evals(expected), walls.size());
  for (const double x : walls) std::fprintf(stderr, " %.3f", x);
  std::fprintf(stderr, "; set-up median %.4f of %zu; reference median "
               "%.4f s (one copy), %.4f s (%d copies), %zu each, scale "
               "%.4f\n", median(setup), setup.size(), median(ref_times),
               median(pool_ref_times), perfbench::kThreads, ref_times.size(),
               scale);
  if (!bad.empty()) std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", bad.c_str());
  print_result(bad.empty(), attempted, bad.empty() ? 0 : attempted, m);
  return bad.empty() ? 0 : 1;
}

int run_traced_mode(const Args& args, const Workload& w) {
  perfbench::Tracer tracer;
  std::vector<Metrics> passes;
  std::map<std::string, std::vector<double>> pooled;  // per-call durations
  long attempted = 0;
  std::string bad;
  const double start = now_s();
  std::vector<double> ref_times;
  while (bad.empty() && (passes.empty() || now_s() - start < args.seconds)) {
    for (int k = 0; k < 3; ++k) {
      ref_times.push_back(perfbench::time_reference(1));
    }
    const double t0 = now_s();
    const std::vector<api::TaskResult> ref =
        api::run_tasks(w.tasks, perfbench::run_options(w));
    const double untraced = now_s() - t0;
    bad = invariant_violation(w, ref);

    tracer.next_run();
    api::RunOptions opts = perfbench::run_options(w);
    if (args.perturb) opts.calib_seed += 1;
    const Usage u0 = usage();
    const double t1 = now_s();
    const perfbench::TracedResult tr =
        perfbench::run_traced(w.tasks, opts, tracer);
    const double traced = now_s() - t1;
    const Usage u1 = usage();
    attempted += total_evals(ref) + tr.evals;
    if (bad.empty()) bad = mismatch(ref, tr.results);

    const auto stats = perfbench::aggregate(tracer, tracer.run());
    passes.push_back(layer_metrics(stats, tr, traced, untraced, u0, u1));
    for (const auto& [name, st] : stats) {
      auto& d = pooled[name];
      d.insert(d.end(), st.durations_s.begin(), st.durations_s.end());
    }
  }

  Metrics m;
  for (const auto& entry : passes.front()) {
    std::vector<double> xs;
    for (const Metrics& p : passes) xs.push_back(p.at(entry.first));
    m[entry.first] = median(xs);
  }
  m["trace.passes"] = static_cast<double>(passes.size());
  m["host.reference_s"] = median(ref_times);
  const auto pct = [&](const std::string& n, double q) {
    const auto it = pooled.find(n);
    return it == pooled.end() ? 0.0 : 1e3 * perfbench::percentile(it->second, q);
  };
  m["rl.observe.learn.p50_ms"] = pct("rl.observe.learn", 0.50);
  m["rl.observe.learn.p95_ms"] = pct("rl.observe.learn", 0.95);
  m["env.eval_batch.p50_ms"] = pct("env.eval_batch", 0.50);
  m["env.eval_batch.p95_ms"] = pct("env.eval_batch", 0.95);
  for (const char* o : {"es", "bo", "mace"}) {
    const std::string n = std::string("opt.") + o + ".tell";
    m[n + ".p95_ms"] = pct(n, 0.95);
  }

  const std::pair<const char*, const char*> groups[] = {
      {"rl.observe.learn", "share.rl.learner"},
      {"opt.ask_tell", "share.opt.ask_tell"},
      {"env.eval_batch", "share.env.eval_batch"},
      {"env.calibrate", "share.env.calibrate"}};
  std::string largest;
  double largest_share = -1.0;
  for (const auto& [layer, share] : groups) {
    if (m.at(share) > largest_share) {
      largest_share = m.at(share);
      largest = layer;
    }
  }
  std::fprintf(stderr,
               "perfbench %s: %zu traced passes, overhead %.3f; predicted "
               "dominant layer %s, largest measured %s (%.1f%% of traced "
               "wall)\n",
               w.name.c_str(), passes.size(), m.at("trace.overhead_ratio"),
               w.dominant.c_str(), largest.c_str(), 100.0 * largest_share);
  if (!args.spans.empty()) tracer.write_jsonl(args.spans, w.name);
  if (!bad.empty()) std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", bad.c_str());
  print_result(bad.empty(), attempted, bad.empty() ? 0 : attempted, m);
  return bad.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse(argc, argv);
    const Workload w = perfbench::make_workload(args.workload, args.seed,
                                                args.tiny);
    return args.trace == 1 ? run_traced_mode(args, w) : run_untraced(args, w);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
