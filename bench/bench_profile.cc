// Sampling-profiler overhead on the serving hot path: batched decode
// throughput with the SIGPROF sampler off vs armed at the default rate
// (99 Hz, the /v1/profile default). The contract printed in
// docs/observability.md — profiling a live daemon is safe — is enforced
// here as a hard gate: the sampled median must stay within 2% of the
// unsampled median, or the bench fails.
//
// Measurement protocol: baseline and sampled windows alternate in
// adjacent pairs, the order flipping every pair (baseline-sampled,
// sampled-baseline, ...) so machine drift on a shared host hits both
// sides alike. Windows are short (~5 timer ticks) and many: per-window
// CPU time of identical work swings by tens of percent on a shared
// host, and the median of many pair ratios settles where a few long
// windows do not, for the same total measured time.
// Windows are measured in *thread CPU time*, not wall time: the
// sampler's entire cost (kernel signal delivery + handler + stack
// capture) is CPU work charged to the interrupted thread, while wall
// time on a shared 1-core host adds preemption noise far larger than
// the effect being gated. Profiler Start/Stop (which symbolizes and is
// deliberately expensive) sits outside the timed windows: the gate
// measures steady-state sampling cost, which is what a daemon pays
// mid-profile.
//
// Emits BENCH_profile.json for the tools/bench_compare regression gate.

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/release.h"
#include "linalg/matrix.h"
#include "obs/profile/profiler.h"
#include "stats/gmm.h"
#include "util/csv.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace p3gm {
namespace bench {
namespace {

// An MNIST-scale decoder (latent 64 -> hidden 512 -> 786 outputs), the
// same shape bench_decode times; weights are fixed pseudo-random so the
// run is reproducible without training.
core::ReleasePackage MakeProfilePackage() {
  const std::size_t dl = 64, h = 512, d = 786;
  linalg::Matrix w1(dl, h), b1(1, h), w2(h, d), b2(1, d);
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return static_cast<double>(state % 2000) / 1000.0 - 1.0;
  };
  for (std::size_t i = 0; i < w1.size(); ++i) w1.data()[i] = 0.1 * next();
  for (std::size_t i = 0; i < b1.size(); ++i) b1.data()[i] = 0.05 * next();
  for (std::size_t i = 0; i < w2.size(); ++i) w2.data()[i] = 0.1 * next();
  for (std::size_t i = 0; i < b2.size(); ++i) b2.data()[i] = 0.05 * next();
  linalg::Matrix means(2, dl), variances(2, dl, 0.8);
  for (std::size_t j = 0; j < dl; ++j) {
    means(0, j) = -0.8;
    means(1, j) = 0.8;
  }
  auto prior = stats::GaussianMixture::Create({0.5, 0.5}, means, variances);
  P3GM_CHECK(prior.ok());
  auto pkg = core::ReleasePackage::FromParts(
      "bench_profile", /*num_classes=*/2, core::DecoderType::kGaussian,
      std::move(*prior), std::move(w1), std::move(b1), std::move(w2),
      std::move(b2));
  P3GM_CHECK(pkg.ok());
  return std::move(*pkg);
}

double Median(std::vector<double> v) {
  P3GM_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// CPU seconds consumed by the calling thread (includes signal-handler
// execution, excludes time spent preempted).
double ThreadCpuSeconds() {
  struct timespec ts;
  P3GM_CHECK(::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace
}  // namespace bench
}  // namespace p3gm

int main() {
  using namespace p3gm;  // NOLINT(build/namespaces)

  // Thread-CPU-time windows only see work on the driver thread; pin the
  // decode there so the measurement covers all of it on any host.
  util::SetNumThreads(1);

  bench::BenchRun run("profile");
  bench::PrintTitle(
      "sampling-profiler overhead on batched decode (99 Hz default)");

  constexpr int kHz = 99;  // /v1/profile default.
  const std::size_t kBatch = 256;
  const int kWindowsPerMode = bench::SmokeMode() ? 27 : 45;
  const double kTargetWindowSeconds = bench::SmokeMode() ? 0.05 : 0.083;

  const core::ReleasePackage pkg = bench::MakeProfilePackage();
  util::Rng z_rng(20260808);
  const linalg::Matrix z = pkg.SampleLatent(kBatch, &z_rng);
  linalg::Matrix out;

  auto decode = [&pkg, &z, &out] {
    const util::Status status = pkg.DecodeLatentInto(z, &out);
    P3GM_CHECK_MSG(status.ok(), status.ToString().c_str());
  };

  // Calibrate iterations so a window spans ~5 ticks at 99 Hz: every
  // sampled window pays for several SIGPROF deliveries, and one tick
  // more or less moves a window by well under 0.1%.
  decode();  // Warm caches / plan arena.
  const double calibrate_start = bench::ThreadCpuSeconds();
  decode();
  const double per_batch =
      std::max(bench::ThreadCpuSeconds() - calibrate_start, 1e-7);
  const std::size_t iters = std::max<std::size_t>(
      4, static_cast<std::size_t>(kTargetWindowSeconds / per_batch));

  obs::profile::CpuProfiler& profiler = obs::profile::CpuProfiler::Global();
  std::vector<double> baseline_windows, sampled_windows;
  std::uint64_t total_samples = 0;
  double overhead = 0.0;
  auto baseline_window = [&] {
    const double start = bench::ThreadCpuSeconds();
    for (std::size_t i = 0; i < iters; ++i) decode();
    const double seconds = bench::ThreadCpuSeconds() - start;
    baseline_windows.push_back(seconds);
    run.suite().RecordSample("profile/decode_baseline", seconds);
  };
  auto sampled_window = [&] {
    obs::profile::CpuProfileOptions options;
    options.hz = kHz;
    const util::Status status = profiler.Start(options);
    P3GM_CHECK_MSG(status.ok(), status.ToString().c_str());
    const double start = bench::ThreadCpuSeconds();
    for (std::size_t i = 0; i < iters; ++i) decode();
    const double seconds = bench::ThreadCpuSeconds() - start;
    auto profile = profiler.Stop();  // Symbolization outside the timer.
    P3GM_CHECK(profile.ok());
    total_samples += profile->samples;
    sampled_windows.push_back(seconds);
    run.suite().RecordSample("profile/decode_sampled", seconds);
  };
  // One re-measurement is allowed before the gate fails: the gate
  // targets a sub-1% effect, and shared-host noise occasionally fakes a
  // multi-percent swing in either direction for a whole measurement. A
  // real regression breaches both attempts.
  for (int attempt = 0; attempt < 2; ++attempt) {
    baseline_windows.clear();
    sampled_windows.clear();
    for (int w = 0; w < kWindowsPerMode; ++w) {
      if (w % 2 == 0) {
        baseline_window();
        sampled_window();
      } else {
        sampled_window();
        baseline_window();
      }
    }
    // Each sampled window is compared against its adjacent baseline
    // window (they ran back to back), then the median ratio is taken:
    // slow host phases shift a pair together and cancel in its ratio,
    // where a median-of-each-side comparison would keep the shift.
    std::vector<double> pair_ratios;
    for (int w = 0; w < kWindowsPerMode; ++w) {
      pair_ratios.push_back(sampled_windows[w] / baseline_windows[w]);
    }
    overhead = bench::Median(pair_ratios) - 1.0;
    if (overhead < 0.02) break;
    std::printf("measured %+.3f%% on attempt %d; re-measuring\n",
                overhead * 100.0, attempt + 1);
  }
  const double baseline = bench::Median(baseline_windows);
  const double sampled = bench::Median(sampled_windows);
  const double rows_base = static_cast<double>(iters * kBatch) / baseline;
  const double rows_sampled = static_cast<double>(iters * kBatch) / sampled;

  std::printf("%-24s %14s %14s\n", "mode", "cpu s/window", "rows/s");
  std::printf("%-24s %14.6f %14.0f\n", "baseline", baseline, rows_base);
  std::printf("%-24s %14.6f %14.0f\n", "sampled@99hz", sampled,
              rows_sampled);
  bench::PrintRule();
  std::printf(
      "sampling overhead: %+.3f%% (%d windows x %zu batches of %zu, "
      "%llu samples captured, %s walker)\n",
      overhead * 100.0, kWindowsPerMode, iters, kBatch,
      static_cast<unsigned long long>(total_samples),
      obs::profile::UsingFramePointerWalk() ? "frame-pointer"
                                            : "backtrace");

  util::CsvWriter csv("bench_profile.csv");
  csv.WriteRow({"mode", "window_seconds", "rows_per_s"});
  csv.WriteRow({"baseline", util::FormatDouble(baseline, 6),
                util::FormatDouble(rows_base, 1)});
  csv.WriteRow({"sampled_99hz", util::FormatDouble(sampled, 6),
                util::FormatDouble(rows_sampled, 1)});
  csv.WriteRow({"overhead_percent", util::FormatDouble(overhead * 100.0, 3),
                ""});
  run.AppendRunInfo(&csv);

  // The gate. Sampling must be cheap enough to leave on against a
  // production daemon; 2% of batched decode is the published budget.
  P3GM_CHECK_MSG(total_samples > 0,
                 "sampler captured nothing during the sampled windows");
  P3GM_CHECK_MSG(overhead < 0.02,
                 "sampling overhead exceeded 2% of batched decode");
  return 0;
}
