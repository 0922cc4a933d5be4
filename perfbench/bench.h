#ifndef P3GM_PERFBENCH_BENCH_H_
#define P3GM_PERFBENCH_BENCH_H_

// Shared pieces of the repo benchmark: the workload table entry, the
// metric sink that becomes the result JSON, and the timing helpers every
// phase uses. See NOTES.md for what each workload measures and why.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/pgm.h"
#include "linalg/matrix.h"
#include "obs/trace.h"

namespace p3gm {
namespace perfbench {

/// One benchmark workload. Every workload runs both P3GM paths — a
/// train phase (CSV load, sigma calibration, phased fit, release) and a
/// serve phase (in-process daemon, closed-loop clients) — and differs in
/// which of the two is the timed primary phase and at what shape.
struct Workload {
  std::string name;
  std::string dataset;          // "esr" (179 features) or "isolet" (617).
  std::size_t rows = 0;         // Rows generated (train + held-out test).
  bool train_primary = false;   // Which phase gets --seconds.
};

/// The same on every workload (NOTES.md): DP-SGD epochs per fit, rows
/// each serve request asks for, and closed-loop client threads (one
/// connection each).
inline constexpr std::size_t kEpochs = 2;
inline constexpr std::size_t kRowsPerRequest = 64;
inline constexpr std::size_t kClients = 2;

/// Fixed run parameters shared by every phase.
struct RunConfig {
  Workload workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
  std::string trace_dir;
};

/// The wall-clock window of a phase's traced work, so per-layer self
/// time can be split by phase after the run.
struct PhaseWindow {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  double ops = 0.0;  // Traced fits (train) or completed requests (serve).
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// The result object: metric values by name plus the operation tally.
struct Result {
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> problems;  // Why `correct` went false.
  PhaseWindow train_window;
  PhaseWindow serve_window;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
};

/// Monotonic wall clock in seconds.
inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Runs `fn` inside an outer trace span named `name` (recorded only while
/// observability is on) and returns its wall time in seconds.
template <typename Fn>
double Timed(const char* name, Fn&& fn) {
  const double start = NowSeconds();
  {
    obs::TraceSpan span(name);
    fn();
  }
  return NowSeconds() - start;
}

double Median(std::vector<double> values);
/// Nearest-rank percentile, q in [0, 1]. Empty input gives 0.
double Percentile(std::vector<double> values, double q);

/// Process user+sys CPU seconds (getrusage RUSAGE_SELF).
double ProcessCpuSeconds();
/// Resets the kernel's peak-RSS mark to the current RSS (clear_refs).
/// Where the kernel refuses, PeakRssMb() stays the lifetime peak.
void ResetPeakRss();
/// Peak resident set size in MB (VmHWM).
double PeakRssMb();

/// Online cores.
std::size_t Cores();
/// Pins thread `tid` (0 = the calling thread) to one core. Giving the
/// server's and the clients' threads a core each keeps runs alike on a
/// shared host: left to the scheduler, their placement changed from run
/// to run and moved serve p50 between two modes 50% apart (NOTES.md).
void PinThread(int tid, std::size_t core);
/// Kernel thread ids of this process's threads.
std::vector<int> ThreadIds();

/// Calls `fn` until `min_seconds` have passed (and at least 5 times);
/// returns the median per-call wall time in nanoseconds.
template <typename Fn>
double MedianCallNs(Fn&& fn, double min_seconds) {
  std::vector<double> ns;
  const double deadline = NowSeconds() + min_seconds;
  while (ns.size() < 5 || NowSeconds() < deadline) {
    const double t0 = NowSeconds();
    fn();
    ns.push_back((NowSeconds() - t0) * 1e9);
  }
  return Median(std::move(ns));
}

// Phases (train_phase.cc, serve_phase.cc). Each appends its metrics to
// `result`; a phase that is not primary runs for a fraction of the run,
// so every end-to-end metric is defined on every workload.

/// What the train phase hands to the serve phase.
struct TrainOutput {
  std::string package_path;
  core::PgmOptions options;
  linalg::Matrix joint;  // Training features + one-hot label block.
};
TrainOutput RunTrainPhase(const RunConfig& config, Result* result);
void RunServePhase(const RunConfig& config, const TrainOutput& trained,
                   Result* result);

/// Per-layer probes (probes.cc): times the public functions of each layer
/// at the workload's shapes. Traced runs only.
void RunProbes(const TrainOutput& trained, Result* result);

/// Reports per-layer self time for each phase's window from every
/// recorded span (spans.cc) and writes the spans, chrome://tracing JSON,
/// to `path`.
void ReportSelfTimes(const std::string& path, Result* result);

}  // namespace perfbench
}  // namespace p3gm

#endif  // P3GM_PERFBENCH_BENCH_H_
