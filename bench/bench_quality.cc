// Quality-monitoring overhead: what the serving path pays to fold every
// decoded batch into the streaming sketches (obs/quality/monitor.h),
// measured against the batched decode it rides on. Three costs:
//
//  1. The decode itself (batch 256 through the MNIST-scale decoder) —
//     the denominator of the overhead ratio.
//  2. ObserveDecoded at the production stride: the per-batch cost
//     `p3gm serve` actually adds. The acceptance bar — sketch ingest
//     under 3% of batched decode throughput — is asserted here, so a
//     sketch regression fails the bench run (and CI's bench-smoke tier)
//     rather than quietly taxing every deployment.
//  3. ObserveDecoded at stride 1 (every row) and a scrape-style Score()
//     merge, for the raw per-row fold cost and the scrape-side cost.
//
// Emits BENCH_quality.json for the tools/bench_compare regression gate.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/release.h"
#include "linalg/matrix.h"
#include "obs/quality/fingerprint.h"
#include "obs/quality/monitor.h"
#include "stats/gmm.h"
#include "util/csv.h"
#include "util/rng.h"

namespace p3gm {
namespace bench {
namespace {

// The same MNIST-scale decoder bench_decode times: latent 64 -> hidden
// 512 -> 786 outputs (784 pixels + a 2-class one-hot block). Weights
// are fixed pseudo-random so the run is reproducible without training.
core::ReleasePackage MakeQualityPackage() {
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
      "bench_quality", /*num_classes=*/2, core::DecoderType::kGaussian,
      std::move(*prior), std::move(w1), std::move(b1), std::move(w2),
      std::move(b2));
  P3GM_CHECK(pkg.ok());
  return std::move(*pkg);
}

}  // namespace
}  // namespace bench
}  // namespace p3gm

int main() {
  using namespace p3gm;  // NOLINT(build/namespaces)
  using obs::quality::MonitorOptions;
  using obs::quality::QualityMonitor;

  bench::BenchRun run("quality");
  bench::PrintTitle(
      "quality monitoring: sketch ingest vs batched decode throughput");

  const std::size_t kBatch = 256;
  // Rows processed per measured rep — identical for the decode and the
  // observe benches, so the ratio of medians is the per-row overhead.
  const std::size_t kRowsPerRep = bench::SmokeMode() ? 1024 : 8192;
  const std::size_t kFingerprintRows = bench::SmokeMode() ? 512 : 4096;
  const std::size_t kIters = kRowsPerRep / kBatch;

  const core::ReleasePackage pkg = bench::MakeQualityPackage();
  auto fp = core::BuildFingerprint(pkg, kFingerprintRows, /*seed=*/17);
  P3GM_CHECK_MSG(fp.ok(), fp.status().ToString().c_str());
  auto fingerprint =
      std::make_shared<const obs::quality::Fingerprint>(std::move(*fp));

  // One decoded batch, reused by every observe rep: the monitor reads
  // the decode buffer, so folding the same bytes repeatedly is exactly
  // the serving steady state.
  util::Rng z_rng(20260808);
  const linalg::Matrix z = pkg.SampleLatent(kBatch, &z_rng);
  linalg::Matrix decoded;
  {
    const util::Status status = pkg.DecodeLatentInto(z, &decoded);
    P3GM_CHECK_MSG(status.ok(), status.ToString().c_str());
  }

  MonitorOptions production;  // Default stride, what `p3gm serve` runs.
  MonitorOptions every_row;
  every_row.stride = 1;
  QualityMonitor monitor_default(fingerprint, fingerprint->feature_dim(),
                                 fingerprint->num_classes(), production);
  QualityMonitor monitor_s1(fingerprint, fingerprint->feature_dim(),
                            fingerprint->num_classes(), every_row);

  // The scrape-cost monitor is pre-loaded once so Score() merges sketches
  // at their steady-state (post-compaction) sizes.
  QualityMonitor monitor_scrape(fingerprint, fingerprint->feature_dim(),
                                fingerprint->num_classes(), every_row);
  for (std::size_t it = 0; it < kIters; ++it) {
    monitor_scrape.ObserveDecoded(decoded);
  }
  // The first fold on a thread allocates that thread's sketch slot (a
  // few hundred KiB of level buffers at this width): a once-per-thread
  // cost, not the per-batch one the bar is about, and at smoke sizes
  // (two reps, no warmup) it would be half the measured median.
  monitor_default.ObserveDecoded(decoded);
  monitor_s1.ObserveDecoded(decoded);

  linalg::Matrix out;
  std::vector<obs::bench::BenchSuite::NamedBench> benches;
  benches.push_back({"quality/decode_b256", [&] {
                       for (std::size_t it = 0; it < kIters; ++it) {
                         const util::Status status =
                             pkg.DecodeLatentInto(z, &out);
                         P3GM_CHECK(status.ok());
                       }
                     }});
  benches.push_back({"quality/observe_default_b256", [&] {
                       for (std::size_t it = 0; it < kIters; ++it) {
                         monitor_default.ObserveDecoded(decoded);
                       }
                     }});
  benches.push_back({"quality/observe_stride1_b256", [&] {
                       for (std::size_t it = 0; it < kIters; ++it) {
                         monitor_s1.ObserveDecoded(decoded);
                       }
                     }});
  benches.push_back({"quality/score_scrape", [&] {
                       const obs::quality::DriftReport report =
                           monitor_scrape.Score();
                       P3GM_CHECK(report.has_fingerprint);
                     }});
  run.suite().RunInterleaved(benches);

  auto median_of = [&](const std::string& name) -> double {
    for (const obs::bench::BenchResult& r : run.suite().results()) {
      if (r.name == name) return r.stats.median;
    }
    return 0.0;
  };
  const double decode_s = median_of("quality/decode_b256");
  const double observe_default_s = median_of("quality/observe_default_b256");
  const double observe1_s = median_of("quality/observe_stride1_b256");
  const double score_s = median_of("quality/score_scrape");
  const double rows = static_cast<double>(kIters * kBatch);

  auto per_batch_us = [&](double seconds) {
    return seconds / static_cast<double>(kIters) * 1e6;
  };
  const double overhead =
      decode_s > 0.0 ? observe_default_s / decode_s : 0.0;

  std::printf("%-28s %14s %14s\n", "scenario", "rows/s", "us/batch256");
  util::CsvWriter csv("bench_quality.csv");
  csv.WriteRow({"scenario", "rows_per_s", "us_per_batch"});
  const struct {
    const char* name;
    double seconds;
  } kScenarios[] = {
      {"decode_b256", decode_s},
      {"observe_default_b256", observe_default_s},
      {"observe_stride1_b256", observe1_s},
  };
  for (const auto& s : kScenarios) {
    const double rate = s.seconds > 0.0 ? rows / s.seconds : 0.0;
    std::printf("%-28s %14.0f %14.2f\n", s.name, rate,
                per_batch_us(s.seconds));
    csv.WriteRow({s.name, util::FormatDouble(rate, 1),
                  util::FormatDouble(per_batch_us(s.seconds), 3)});
  }
  std::printf("%-28s %14s %14.2f\n", "score_scrape", "-", score_s * 1e6);
  csv.WriteRow({"score_scrape", "", util::FormatDouble(score_s * 1e6, 3)});
  csv.WriteRow({"observe_over_decode", util::FormatDouble(overhead, 6),
                ""});

  bench::PrintRule();
  std::printf(
      "sketch ingest at stride %zu: %.3f%% of batched decode cost "
      "(bar: < 3%%); monitor footprint %.1f KiB\n",
      production.stride, overhead * 100.0,
      static_cast<double>(monitor_s1.MemoryBytes()) / 1024.0);
  // The acceptance bar from docs/observability.md: monitoring must stay
  // in the noise of the decode it observes.
  P3GM_CHECK_MSG(overhead < 0.03,
                 "quality sketch ingest exceeded 3% of batched decode");
  run.AppendRunInfo(&csv);
  return 0;
}
