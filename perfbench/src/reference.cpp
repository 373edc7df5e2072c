#include "reference.hpp"

#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

namespace perfbench {

namespace {

std::uint64_t next(std::uint64_t& s) {
  s = s * 6364136223846793005ULL + 1442695040888963407ULL;
  return s >> 11;
}

// Repeated 32x32 products, squashed so the values stay bounded.
double dense(std::uint64_t seed, int reps) {
  constexpr int n = 32;
  std::vector<double> a(n * n), b(n * n), c(n * n);
  for (int i = 0; i < n * n; ++i) {
    a[i] = static_cast<double>(next(seed)) * 0x1.0p-53 - 0.5;
    b[i] = static_cast<double>(next(seed)) * 0x1.0p-53 - 0.5;
  }
  for (int rep = 0; rep < reps; ++rep) {
    for (double& x : c) x = 0.0;
    for (int i = 0; i < n; ++i) {
      for (int k = 0; k < n; ++k) {
        const double x = a[i * n + k];
        for (int j = 0; j < n; ++j) c[i * n + j] += x * b[k * n + j];
      }
    }
    for (int i = 0; i < n * n; ++i) a[i] = c[i] / (1.0 + c[i] * c[i]);
  }
  return a[0];
}

// Dependent reads at random places in an 8 MiB table: each index comes
// from the value read before, so the loop runs at the latency of the
// caches and memory behind the core.
double table(std::uint64_t seed, int hops) {
  constexpr std::size_t n = std::size_t{1} << 20;  // 8 MiB of uint64_t
  std::vector<std::uint64_t> t(n);
  for (std::uint64_t& x : t) x = next(seed);
  std::uint64_t i = 0;
  std::uint64_t acc = 0;
  for (int hop = 0; hop < hops; ++hop) {
    i = (t[i] ^ acc) & (n - 1);
    acc += i;
  }
  return static_cast<double>(acc);
}

// Heap churn: many small blocks, as an autodiff tape builds and frees
// them, and a few large ones, which go to and from the kernel.
double heap(std::uint64_t seed, int rounds) {
  double acc = 0.0;
  for (int rep = 0; rep < rounds; ++rep) {
    std::vector<std::unique_ptr<std::vector<double>>> blocks;
    for (int k = 0; k < 256; ++k) {
      blocks.push_back(std::make_unique<std::vector<double>>(
          8 + next(seed) % 256, 1.0));
      acc += blocks.back()->back();
    }
    std::vector<double> big(std::size_t{1} << 15, 0.5);  // 256 KiB
    acc += big.back();
  }
  return acc;
}

}  // namespace

double time_reference(int copies) {
  const auto work = [] {
    return dense(1, 600) + table(2, 150000) + heap(3, 120);
  };
  std::vector<double> out(static_cast<std::size_t>(copies));
  const auto t0 = std::chrono::steady_clock::now();
  {
    std::vector<std::jthread> threads;
    for (int k = 1; k < copies; ++k) {
      threads.emplace_back([&out, &work, k] { out[k] = work(); });
    }
    out[0] = work();
  }
  const auto t1 = std::chrono::steady_clock::now();
  // Keep the results live so the work cannot be optimised away.
  static volatile double sink = 0.0;
  for (const double x : out) sink = sink + x;
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace perfbench
