// QualityMonitor suite (obs/quality/monitor.h): stride subsampling
// bookkeeping, fingerprint-less operation, drift scoring for clean and
// shifted streams, label total-variation, staged-fold equivalence, and
// memory accounting.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "gtest/gtest.h"
#include "linalg/matrix.h"
#include "obs/quality/fingerprint.h"
#include "obs/quality/monitor.h"

namespace p3gm {
namespace obs {
namespace quality {
namespace {

linalg::Matrix UniformMatrix(std::size_t rows, std::size_t cols,
                             std::uint64_t seed, double shift = 0.0) {
  linalg::Matrix m(rows, cols);
  std::uint64_t state = seed;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      m(r, c) = static_cast<double>(state >> 11) /
                    static_cast<double>(1ULL << 53) +
                shift;
    }
  }
  return m;
}

std::shared_ptr<const Fingerprint> ReferenceFingerprint(std::size_t dim) {
  return std::make_shared<const Fingerprint>(Fingerprint::FromDecoded(
      UniformMatrix(4096, dim, /*seed=*/100), /*num_classes=*/0, /*seed=*/1));
}

TEST(QualityMonitor, StrideSubsamplesOnGlobalRowCounter) {
  MonitorOptions options;
  options.stride = 4;
  QualityMonitor monitor(nullptr, /*feature_dim=*/2, /*num_classes=*/0,
                         options);
  // Two batches of 10: absolute row indices 0..19, multiples of 4 in
  // [0, 20) are 0, 4, 8, 12, 16 — the phase carries across batches.
  monitor.ObserveDecoded(UniformMatrix(10, 2, 1));
  monitor.ObserveDecoded(UniformMatrix(10, 2, 2));
  EXPECT_EQ(monitor.rows_seen(), 20u);
  EXPECT_EQ(monitor.Score().rows_observed, 5u);
}

TEST(QualityMonitor, WidthMismatchIsIgnored) {
  QualityMonitor monitor(nullptr, /*feature_dim=*/3, /*num_classes=*/2);
  monitor.ObserveDecoded(UniformMatrix(8, 4, 1));  // Want 3 + 2 = 5 cols.
  EXPECT_EQ(monitor.rows_seen(), 0u);
  EXPECT_EQ(monitor.Score().rows_observed, 0u);
}

TEST(QualityMonitor, NullFingerprintAccumulatesButDoesNotScore) {
  MonitorOptions options;
  options.stride = 1;
  QualityMonitor monitor(nullptr, /*feature_dim=*/2, /*num_classes=*/0,
                         options);
  monitor.ObserveDecoded(UniformMatrix(50, 2, 3));
  const DriftReport report = monitor.Score();
  EXPECT_FALSE(report.has_fingerprint);
  EXPECT_EQ(report.rows_observed, 50u);
  EXPECT_EQ(report.drift(), 0.0);
  // Live marginals are still tracked for /v1/quality display.
  ASSERT_EQ(report.features.size(), 2u);
  EXPECT_GT(report.features[0].live_stddev, 0.0);
}

TEST(QualityMonitor, CleanStreamScoresLowDrift) {
  const std::size_t dim = 3;
  MonitorOptions options;
  options.stride = 1;
  QualityMonitor monitor(ReferenceFingerprint(dim), dim, /*num_classes=*/0,
                         options);
  // Same distribution, different draw.
  monitor.ObserveDecoded(UniformMatrix(2000, dim, /*seed=*/55));
  const DriftReport report = monitor.Score();
  ASSERT_TRUE(report.has_fingerprint);
  EXPECT_LT(report.drift(), 0.1);
  EXPECT_LT(report.mean_z_max, 0.5);
}

TEST(QualityMonitor, ShiftedStreamScoresHighDrift) {
  const std::size_t dim = 3;
  MonitorOptions options;
  options.stride = 1;
  QualityMonitor monitor(ReferenceFingerprint(dim), dim, /*num_classes=*/0,
                         options);
  // A 0.25 location shift on a [0, 1] uniform moves ~25% of the mass
  // past any fixed cut — far beyond sketch + sampling error.
  monitor.ObserveDecoded(UniformMatrix(2000, dim, /*seed=*/55,
                                       /*shift=*/0.25));
  const DriftReport report = monitor.Score();
  ASSERT_TRUE(report.has_fingerprint);
  EXPECT_GT(report.drift(), 0.15);
  EXPECT_GT(report.mean_z_max, 0.5);
}

TEST(QualityMonitor, LabelShiftShowsInTotalVariation) {
  // Reference: balanced labels. Live: all class 0.
  const std::size_t rows = 600, dim = 2, classes = 2;
  linalg::Matrix reference(rows, dim + classes, 0.0);
  for (std::size_t r = 0; r < rows; ++r) {
    reference(r, 0) = 0.5;
    reference(r, 1) = 0.5;
    reference(r, dim + (r % 2)) = 1.0;
  }
  auto fingerprint = std::make_shared<const Fingerprint>(
      Fingerprint::FromDecoded(reference, classes, /*seed=*/1));

  linalg::Matrix live(rows, dim + classes, 0.0);
  for (std::size_t r = 0; r < rows; ++r) {
    live(r, 0) = 0.5;
    live(r, 1) = 0.5;
    live(r, dim) = 1.0;  // Every row argmaxes to class 0.
  }
  MonitorOptions options;
  options.stride = 1;
  QualityMonitor monitor(fingerprint, dim, classes, options);
  monitor.ObserveDecoded(live);
  const DriftReport report = monitor.Score();
  EXPECT_NEAR(report.label_tv, 0.5, 1e-9);
  EXPECT_GE(report.drift(), 0.5 - 1e-9);
}

TEST(QualityMonitor, ObserveDatasetFoldsEveryRow) {
  const std::size_t dim = 2;
  MonitorOptions options;
  options.stride = 16;  // Dataset path ignores the stride.
  QualityMonitor monitor(ReferenceFingerprint(dim), dim, /*num_classes=*/2,
                         options);
  std::vector<std::size_t> labels(120, 1);
  monitor.ObserveDataset(UniformMatrix(120, dim, 9), labels);
  EXPECT_EQ(monitor.Score().rows_observed, 120u);
}

// ObserveDecoded stages sampled rows and folds them in blocks; every
// sketch must still see its values in arrival order, so the scores are
// bit-identical to folding row by row (ObserveDataset), whatever the
// batch sizes and however many scrapes force a partial block in between.
TEST(QualityMonitor, StagedFoldMatchesRowByRowFold) {
  const std::size_t rows = 300, dim = 3, classes = 2;
  const linalg::Matrix decoded = UniformMatrix(rows, dim + classes, 21);
  auto fingerprint = std::make_shared<const Fingerprint>(
      Fingerprint::FromDecoded(UniformMatrix(4096, dim + classes, 22),
                               classes, /*seed=*/1));
  MonitorOptions options;
  options.stride = 1;

  QualityMonitor staged(fingerprint, dim, classes, options);
  for (std::size_t begin = 0, batch = 0; begin < rows; ++batch) {
    const std::size_t n = std::min<std::size_t>(7, rows - begin);
    linalg::Matrix part(n, dim + classes);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < dim + classes; ++c) {
        part(r, c) = decoded(begin + r, c);
      }
    }
    staged.ObserveDecoded(part);
    if (batch % 5 == 2) staged.Score();  // Scrape mid-block.
    begin += n;
  }

  linalg::Matrix features(rows, dim);
  std::vector<std::size_t> labels(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < dim; ++c) features(r, c) = decoded(r, c);
    labels[r] = decoded(r, dim + 1) > decoded(r, dim) ? 1 : 0;
  }
  QualityMonitor direct(fingerprint, dim, classes, options);
  direct.ObserveDataset(features, labels);

  const DriftReport a = staged.Score();
  const DriftReport b = direct.Score();
  EXPECT_EQ(a.rows_observed, rows);
  EXPECT_EQ(b.rows_observed, rows);
  ASSERT_EQ(a.features.size(), dim);
  for (std::size_t c = 0; c < dim; ++c) {
    EXPECT_EQ(a.features[c].ks, b.features[c].ks) << "feature " << c;
    EXPECT_EQ(a.features[c].live_mean, b.features[c].live_mean);
    EXPECT_EQ(a.features[c].live_stddev, b.features[c].live_stddev);
  }
  EXPECT_EQ(a.label_tv, b.label_tv);
}

TEST(QualityMonitor, MemoryStaysBoundedOverLongStreams) {
  MonitorOptions options;
  options.stride = 1;
  QualityMonitor monitor(nullptr, /*feature_dim=*/4, /*num_classes=*/2,
                         options);
  for (int i = 0; i < 10; ++i) {
    monitor.ObserveDecoded(UniformMatrix(5000, 6, 1 + i));
  }
  const std::size_t at_50k = monitor.MemoryBytes();
  for (int i = 0; i < 10; ++i) {
    monitor.ObserveDecoded(UniformMatrix(5000, 6, 11 + i));
  }
  // Fixed-memory contract: the absolute footprint stays tiny, and
  // doubling the stream adds at most one compaction level per sketch
  // (logarithmic growth), nowhere near doubling the bytes.
  EXPECT_LT(at_50k, static_cast<std::size_t>(256 * 1024));
  EXPECT_LT(monitor.MemoryBytes(),
            at_50k + at_50k / 4);
}

}  // namespace
}  // namespace quality
}  // namespace obs
}  // namespace p3gm
