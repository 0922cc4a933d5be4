// Streaming-sketch suite for the synthesis-quality monitor
// (obs/quality/sketch.h): exactness against sorted arrays while below
// the compaction threshold, bounded rank error beyond it, mergeability,
// fixed-memory bounds, and deterministic merged results under eight
// concurrent writers (the `threads` label — run under TSan to pin the
// per-thread slot sharding).

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "linalg/matrix.h"
#include "obs/per_thread_slots.h"
#include "obs/quality/fingerprint.h"
#include "obs/quality/monitor.h"
#include "obs/quality/sketch.h"

namespace p3gm {
namespace obs {
namespace quality {
namespace {

// Deterministic uniform-ish stream in [0, 1): a full-period LCG keeps
// the tests free of util::Rng so sketch behavior is pinned against a
// fixed input sequence.
std::vector<double> UniformStream(std::size_t n, std::uint64_t seed) {
  std::vector<double> values(n);
  std::uint64_t state = seed;
  for (std::size_t i = 0; i < n; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    values[i] = static_cast<double>(state >> 11) /
                static_cast<double>(1ULL << 53);
  }
  return values;
}

// ------------------------------------------------------------ moments

TEST(MomentsSketch, MatchesDirectComputation) {
  const std::vector<double> values = UniformStream(257, 1);
  MomentsSketch sketch;
  double sum = 0.0;
  for (double v : values) {
    sketch.Add(v);
    sum += v;
  }
  const double mean = sum / static_cast<double>(values.size());
  double m2 = 0.0;
  for (double v : values) m2 += (v - mean) * (v - mean);

  EXPECT_EQ(sketch.count(), values.size());
  EXPECT_NEAR(sketch.mean(), mean, 1e-12);
  EXPECT_NEAR(sketch.variance(), m2 / static_cast<double>(values.size()),
              1e-12);
  EXPECT_EQ(sketch.min(), *std::min_element(values.begin(), values.end()));
  EXPECT_EQ(sketch.max(), *std::max_element(values.begin(), values.end()));
}

TEST(MomentsSketch, MergeEqualsConcatenation) {
  const std::vector<double> values = UniformStream(400, 2);
  MomentsSketch whole, left, right;
  for (std::size_t i = 0; i < values.size(); ++i) {
    whole.Add(values[i]);
    (i < 150 ? left : right).Add(values[i]);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-12);
  EXPECT_EQ(left.min(), whole.min());
  EXPECT_EQ(left.max(), whole.max());
}

TEST(MomentsSketch, EmptySidesMerge) {
  MomentsSketch empty, other;
  other.Add(3.0);
  MomentsSketch a = empty;
  a.Merge(other);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(a.mean(), 3.0);
  other.Merge(empty);
  EXPECT_EQ(other.count(), 1u);
}

// ----------------------------------------------------------- quantile

TEST(QuantileSketch, ExactWhileBelowCapacity) {
  // Compaction triggers on the k-th Add, so n = k - 1 keeps every value
  // retained at weight 1 and all rank queries exact.
  const std::size_t k = 64;
  std::vector<double> values = UniformStream(k - 1, 3);
  QuantileSketch sketch(k);
  for (double v : values) sketch.Add(v);
  std::sort(values.begin(), values.end());
  for (std::size_t i = 0; i <= 32; ++i) {
    const double q = static_cast<double>(i) / 32.0;
    EXPECT_EQ(sketch.Quantile(q), ExactQuantileSorted(values, q))
        << "q=" << q;
  }
}

TEST(QuantileSketch, BoundedRankErrorAfterCompaction) {
  const std::size_t n = 20000;
  const std::vector<double> values = UniformStream(n, 4);
  QuantileSketch sketch(64);
  for (double v : values) sketch.Add(v);
  EXPECT_EQ(sketch.count(), n);
  // The stream is uniform on [0, 1): F(x) ~ x, and the deterministic
  // compactor's rank error at k = 64 stays well inside 5%.
  for (double x = 0.05; x < 1.0; x += 0.05) {
    EXPECT_NEAR(sketch.Cdf(x), x, 0.05) << "x=" << x;
  }
  for (double q = 0.1; q < 1.0; q += 0.1) {
    EXPECT_NEAR(sketch.Quantile(q), q, 0.05) << "q=" << q;
  }
}

TEST(QuantileSketch, DeterministicForIdenticalStreams) {
  const std::vector<double> values = UniformStream(5000, 5);
  QuantileSketch a(64), b(64);
  for (double v : values) {
    a.Add(v);
    b.Add(v);
  }
  for (std::size_t i = 0; i <= 32; ++i) {
    const double q = static_cast<double>(i) / 32.0;
    EXPECT_EQ(a.Quantile(q), b.Quantile(q)) << "q=" << q;
  }
}

TEST(QuantileSketch, MergeCoversConcatenatedStream) {
  const std::vector<double> values = UniformStream(8000, 6);
  QuantileSketch merged(64);
  std::vector<QuantileSketch> parts(4, QuantileSketch(64));
  for (std::size_t i = 0; i < values.size(); ++i) {
    parts[i % parts.size()].Add(values[i]);
  }
  for (const QuantileSketch& part : parts) merged.Merge(part);
  EXPECT_EQ(merged.count(), values.size());
  for (double q = 0.1; q < 1.0; q += 0.1) {
    EXPECT_NEAR(merged.Quantile(q), q, 0.06) << "q=" << q;
  }
}

TEST(QuantileSketch, MemoryBoundedIndependentOfStreamLength) {
  QuantileSketch sketch(64);
  const std::vector<double> values = UniformStream(200000, 7);
  for (double v : values) sketch.Add(v);
  // ~log2(n/k) levels of <= k doubles each plus slack: far below the
  // raw stream (1.6 MB).
  EXPECT_LT(sketch.MemoryBytes(), static_cast<std::size_t>(64 * 1024));
}

// -------------------------------------------------------- categorical

TEST(CategoricalSketch, CountsAndTotalVariation) {
  CategoricalSketch sketch(3);
  for (int i = 0; i < 50; ++i) sketch.Add(0);
  for (int i = 0; i < 30; ++i) sketch.Add(1);
  for (int i = 0; i < 20; ++i) sketch.Add(2);
  EXPECT_EQ(sketch.count(), 100u);
  EXPECT_EQ(sketch.bin_count(0), 50u);
  EXPECT_EQ(sketch.overflow(), 0u);
  // TV against itself is zero; against a point mass it is the moved mass.
  EXPECT_NEAR(sketch.TotalVariation({0.5, 0.3, 0.2}), 0.0, 1e-12);
  EXPECT_NEAR(sketch.TotalVariation({1.0, 0.0, 0.0}), 0.5, 1e-12);
}

TEST(CategoricalSketch, OverflowCountsAsUnmatchedMass) {
  CategoricalSketch sketch(2);
  for (int i = 0; i < 50; ++i) sketch.Add(0);
  for (int i = 0; i < 50; ++i) sketch.Add(7);  // Out of range.
  EXPECT_EQ(sketch.overflow(), 50u);
  // Live: 0.5 in bin 0, 0.5 overflowed. Reference: all mass in bin 0.
  // L1 = |0.5-1.0| + 0 + overflow 0.5 = 1.0 -> TV 0.5.
  EXPECT_NEAR(sketch.TotalVariation({1.0, 0.0}), 0.5, 1e-12);
}

TEST(CategoricalSketch, MergeAddsCounts) {
  CategoricalSketch a(2), b(2);
  a.Add(0);
  b.Add(1);
  b.Add(5);
  a.Merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.bin_count(0), 1u);
  EXPECT_EQ(a.bin_count(1), 1u);
  EXPECT_EQ(a.overflow(), 1u);
}

// ---------------------------------------------- concurrent writers

// Eight threads fold the same decoded matrix into one monitor (each
// thread lands in its own per-thread slot). The merged score must be
// deterministic across identical runs and the fold counts exact. Run
// under -DP3GM_SANITIZE=thread, this also pins the slot sharding as
// data-race free.
TEST(QualityMonitorThreads, EightConcurrentWritersDeterministic) {
  const std::size_t rows = 300, dim = 4;
  linalg::Matrix data(rows, dim);
  const std::vector<double> stream = UniformStream(rows * dim, 8);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < dim; ++c) data(r, c) = stream[r * dim + c];
  }
  const linalg::Matrix reference = data;
  auto fingerprint = std::make_shared<const Fingerprint>(
      Fingerprint::FromDecoded(reference, /*num_classes=*/0, /*seed=*/1));

  auto run_once = [&]() {
    MonitorOptions options;
    options.stride = 1;
    QualityMonitor monitor(fingerprint, dim, /*num_classes=*/0, options);
    std::vector<std::thread> writers;
    for (int t = 0; t < 8; ++t) {
      writers.emplace_back([&monitor, &data] {
        for (int rep = 0; rep < 4; ++rep) monitor.ObserveDecoded(data);
      });
    }
    for (std::thread& w : writers) w.join();
    return monitor.Score();
  };

  const DriftReport first = run_once();
  const DriftReport second = run_once();
  EXPECT_EQ(first.rows_observed, rows * 8 * 4);
  EXPECT_EQ(first.rows_seen, rows * 8 * 4);
  EXPECT_EQ(second.rows_observed, first.rows_observed);
  ASSERT_EQ(first.features.size(), dim);
  for (std::size_t c = 0; c < dim; ++c) {
    // Every writer folded identical data, so the merged sketches — and
    // the drift they score — are a pure function of the input, not of
    // thread scheduling.
    EXPECT_NEAR(second.features[c].ks, first.features[c].ks, 1e-12);
    EXPECT_NEAR(second.features[c].live_mean, first.features[c].live_mean,
                1e-9);
  }
  // The live stream IS the reference draw, so drift stays near zero.
  EXPECT_LT(first.worst_ks, 0.08);
}

// More writers than the old 64 slots, each feeding its own stream. Each
// writer owns the slot of its thread number, so a slot's sketches see
// one stream in that stream's order, and the scrape merges slots in
// thread-number order. Writers are numbered one at a time, in the same
// order in both runs, before they all fold concurrently: the merged
// score must then be bit-identical across runs. Two writers sharing a
// slot would interleave their rows in lock order, and the score would
// depend on scheduling.
TEST(QualityMonitorThreads, ManyWritersWithDistinctStreamsDeterministic) {
  constexpr int kWriters = 72;
  const std::size_t rows = 48, dim = 4;
  std::vector<linalg::Matrix> streams;
  for (int t = 0; t < kWriters; ++t) {
    linalg::Matrix data(rows, dim);
    const std::vector<double> values =
        UniformStream(rows * dim, 1000 + static_cast<std::uint64_t>(t));
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < dim; ++c) {
        // Shift each stream so that fold order shows in the sketches.
        data(r, c) = values[r * dim + c] + 0.01 * t;
      }
    }
    streams.push_back(std::move(data));
  }
  auto fingerprint = std::make_shared<const Fingerprint>(
      Fingerprint::FromDecoded(streams[0], /*num_classes=*/0, /*seed=*/1));

  auto run_once = [&]() {
    MonitorOptions options;
    options.stride = 1;
    QualityMonitor monitor(fingerprint, dim, /*num_classes=*/0, options);
    std::atomic<int> numbered{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> writers;
    for (int t = 0; t < kWriters; ++t) {
      writers.emplace_back([&, t] {
        obs::ThreadIndex();
        numbered.fetch_add(1);
        while (!go.load()) std::this_thread::yield();
        for (int rep = 0; rep < 6; ++rep) monitor.ObserveDecoded(streams[t]);
      });
      while (numbered.load() <= t) std::this_thread::yield();
    }
    go.store(true);
    for (std::thread& w : writers) w.join();
    return monitor.Score();
  };

  const DriftReport first = run_once();
  const DriftReport second = run_once();
  EXPECT_EQ(first.rows_observed, rows * kWriters * 6);
  EXPECT_EQ(second.rows_observed, first.rows_observed);
  ASSERT_EQ(first.features.size(), dim);
  for (std::size_t c = 0; c < dim; ++c) {
    EXPECT_EQ(second.features[c].ks, first.features[c].ks);
    EXPECT_EQ(second.features[c].live_mean, first.features[c].live_mean);
    EXPECT_EQ(second.features[c].live_stddev,
              first.features[c].live_stddev);
  }
  EXPECT_EQ(second.worst_ks, first.worst_ks);
}

}  // namespace
}  // namespace quality
}  // namespace obs
}  // namespace p3gm
