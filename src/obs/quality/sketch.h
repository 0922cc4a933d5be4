#ifndef P3GM_OBS_QUALITY_SKETCH_H_
#define P3GM_OBS_QUALITY_SKETCH_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace p3gm {
namespace obs {
namespace quality {

/// Streaming sketches for the synthesis-quality monitor
/// (docs/observability.md "Synthesis quality"). All three are
///
///   - fixed-memory: bounds independent of the stream length,
///   - mergeable: Merge(other) yields the sketch of the concatenated
///     streams, and
///   - deterministic: the merged state is a pure function of the input
///     partition and the merge order (no RNG, no clocks), so a fixed
///     per-thread data split merged in a fixed order is bit-reproducible
///     regardless of thread scheduling.
///
/// None of them are internally synchronized; the serving monitor shards
/// one sketch set per thread and merges on scrape (quality/monitor.h).

/// Count / mean / variance (Welford) / min / max. Memory: O(1).
class MomentsSketch {
 public:
  /// Inline: this runs once per feature per sampled row on the serving
  /// hot path (bench_quality holds the fold under 3% of decode cost).
  void Add(double v) {
    ++n_;
    const double delta = v - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (v - mean_);
    if (v < min_) min_ = v;
    if (v > max_) max_ = v;
  }

  /// Chan et al. pairwise update; exact in counts, deterministic in
  /// floating point for a fixed merge order.
  void Merge(const MomentsSketch& other);

  std::uint64_t count() const { return n_; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  /// Population variance (division by n).
  double variance() const { return n_ > 0 ? m2_ / static_cast<double>(n_) : 0.0; }
  double stddev() const;
  double min() const { return n_ > 0 ? min_ : 0.0; }
  double max() const { return n_ > 0 ? max_ : 0.0; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// KLL-style quantile sketch with deterministic compaction.
///
/// Values enter a level-0 buffer of capacity k; a full level sorts
/// itself and promotes every other element (the survivor parity
/// alternates with a per-sketch compaction counter — no randomness) to
/// the next level, where each element carries twice the weight. Memory
/// is bounded by k doubles per level times O(log2(n / k)) levels. While
/// n < k no compaction has happened and every rank query is exact —
/// the property the `quality` ctest label pins against sorted arrays;
/// beyond that the rank error grows like O(log(n/k) / k) (the classic
/// deterministic-compactor bound), which at the default k = 64 stays
/// well under the drift thresholds the monitor alarms on.
class QuantileSketch {
 public:
  explicit QuantileSketch(std::size_t k = 64);

  /// Inline fast path: append to the level-0 buffer (capacity is
  /// reserved up front, so this is a store + size bump); the amortized
  /// compaction stays out of line.
  void Add(double v) {
    ++n_;
    levels_[0].push_back(v);
    if (levels_[0].size() >= k_) CompactLevel(0);
  }

  /// Prefetch hint for the slot the next Add writes. A caller folding
  /// many sketches in turn issues it a block ahead, so their first-touch
  /// misses overlap instead of stalling one Add each.
  void PrefetchAdd() const {
    const std::vector<double>& base = levels_[0];
    __builtin_prefetch(base.data() + base.size(), /*rw=*/1);
  }

  void Merge(const QuantileSketch& other);

  std::uint64_t count() const { return n_; }

  /// The smallest retained value whose weighted rank reaches
  /// max(1, ceil(q * retained_weight)) — the lower weighted quantile,
  /// exact while no compaction has occurred (n < k). Returns 0 on an
  /// empty sketch; q is clamped into [0, 1].
  double Quantile(double q) const;

  /// Fraction of ingested weight <= x (empirical CDF estimate).
  double Cdf(double x) const;

  /// Current footprint of the level buffers, for the memory-bound test
  /// and the monitor's bookkeeping gauge.
  std::size_t MemoryBytes() const;

  std::size_t capacity_per_level() const { return k_; }

 private:
  void CompactLevel(std::size_t level);
  /// All retained (value, weight) pairs sorted by value.
  std::vector<std::pair<double, std::uint64_t>> SortedItems() const;

  std::size_t k_;
  std::uint64_t n_ = 0;
  std::uint64_t compactions_ = 0;  // Drives the survivor-parity alternation.
  std::vector<std::vector<double>> levels_;  // Level i items weigh 2^i.
};

/// Bounded histogram over small integer values (class labels,
/// discretized features): exact counts for values in [0, num_bins),
/// one overflow bin for the rest. Memory: O(num_bins).
class CategoricalSketch {
 public:
  explicit CategoricalSketch(std::size_t num_bins = 0);

  void Add(std::size_t value);
  void Merge(const CategoricalSketch& other);

  std::uint64_t count() const { return n_; }
  std::size_t num_bins() const { return counts_.size(); }
  std::uint64_t bin_count(std::size_t bin) const { return counts_[bin]; }
  std::uint64_t overflow() const { return overflow_; }

  /// Per-bin probabilities (empty sketch yields all zeros).
  std::vector<double> Probabilities() const;

  /// Total-variation distance (0.5 * L1) to a reference distribution of
  /// the same arity; reference bins beyond num_bins() count as missing
  /// mass. Returns 0 when either side is empty.
  double TotalVariation(const std::vector<double>& reference_probs) const;

 private:
  std::uint64_t n_ = 0;
  std::uint64_t overflow_ = 0;
  std::vector<std::uint64_t> counts_;
};

}  // namespace quality
}  // namespace obs
}  // namespace p3gm

#endif  // P3GM_OBS_QUALITY_SKETCH_H_
