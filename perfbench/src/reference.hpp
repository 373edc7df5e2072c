// The reference work: a fixed computation that shares no code with the
// library, timed next to every timed run to measure how fast the machine
// is at that moment. Dividing a run's time by it removes much of the
// drift a shared host adds (co-tenants on the same cores, caches and
// memory), so a benchmark figure follows the library more than the host.
#pragma once

namespace perfbench {

// The benchmark reports times scaled to a machine that runs the reference
// work in this time, about what one copy takes on a quiet 4-vCPU Xeon
// host: measured time * kReferenceNominalS / measured reference time.
inline constexpr double kReferenceNominalS = 0.02;

// Runs `copies` copies of the reference work at the same time, one per
// thread, and returns the wall time of the whole in seconds. A copy
// spends about a third of its time on each of the three kinds of work
// the library's layers do, which a busy host slows by different factors:
// small dense matrix products, dependent random reads over an 8 MiB
// table, and heap churn.
double time_reference(int copies);

}  // namespace perfbench
