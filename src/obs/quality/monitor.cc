#include "obs/quality/monitor.h"

#include <algorithm>
#include <cmath>

namespace p3gm {
namespace obs {
namespace quality {

namespace {

/// Features folded together per staged block: enough independent
/// Welford chains to hide the divide latency, few enough that their
/// sketch state stays in L1 across the block's rows.
constexpr std::size_t kFeatureBlock = 8;

/// F_ref(x) estimated from the fingerprint's evenly rank-spaced
/// quantile values: the fraction of grid values <= x. Correct up to
/// grid resolution even when the reference has atoms.
double ReferenceCdf(const FeatureFingerprint& ref, double x) {
  std::size_t below = 0;
  for (double q : ref.quantiles) {
    if (q <= x) ++below;
  }
  return static_cast<double>(below) /
         static_cast<double>(ref.quantiles.size());
}

}  // namespace

QualityMonitor::QualityMonitor(std::shared_ptr<const Fingerprint> fingerprint,
                               std::size_t feature_dim,
                               std::size_t num_classes, MonitorOptions options)
    : fingerprint_(std::move(fingerprint)),
      feature_dim_(feature_dim),
      num_classes_(num_classes),
      options_(options) {
  if (options_.stride == 0) options_.stride = 1;
}

QualityMonitor::~QualityMonitor() {
  slots_.ForEach([](Slot* slot) { delete slot; });
}

QualityMonitor::SketchSet QualityMonitor::NewSketchSet() const {
  SketchSet set;
  set.quantiles.reserve(feature_dim_);
  set.moments.resize(feature_dim_);
  for (std::size_t i = 0; i < feature_dim_; ++i) {
    set.quantiles.emplace_back(options_.quantile_k);
  }
  set.labels = CategoricalSketch(num_classes_);
  return set;
}

QualityMonitor::Slot* QualityMonitor::LocalSlot() {
  return slots_.Local([this] {
    Slot* slot = new Slot;
    slot->set = NewSketchSet();
    slot->staged.resize(kStageRows * (feature_dim_ + num_classes_));
    return slot;
  });
}

void QualityMonitor::FoldStaged(Slot* slot) const {
  const std::size_t n = slot->staged_rows;
  if (n == 0) return;
  const std::size_t width = feature_dim_ + num_classes_;
  const double* rows = slot->staged.data();
  SketchSet& set = slot->set;
  for (std::size_t c0 = 0; c0 < feature_dim_; c0 += kFeatureBlock) {
    const std::size_t c1 = std::min(feature_dim_, c0 + kFeatureBlock);
    const std::size_t next_end = std::min(feature_dim_, c1 + kFeatureBlock);
    for (std::size_t c = c1; c < next_end; ++c) {
      set.quantiles[c].PrefetchAdd();
    }
    for (std::size_t r = 0; r < n; ++r) {
      const double* row = rows + r * width;
      for (std::size_t c = c0; c < c1; ++c) {
        set.quantiles[c].Add(row[c]);
        set.moments[c].Add(row[c]);
      }
    }
  }
  if (num_classes_ > 0) {
    for (std::size_t r = 0; r < n; ++r) {
      const double* onehot = rows + r * width + feature_dim_;
      std::size_t best = 0;
      for (std::size_t c = 1; c < num_classes_; ++c) {
        if (onehot[c] > onehot[best]) best = c;
      }
      set.labels.Add(best);
    }
  }
  set.rows += n;
  slot->staged_rows = 0;
}

void QualityMonitor::ObserveDecoded(const linalg::Matrix& outputs) {
  const std::size_t width = feature_dim_ + num_classes_;
  if (outputs.cols() != width) return;
  const std::uint64_t start =
      rows_seen_.fetch_add(outputs.rows(), std::memory_order_relaxed);
  // Global-counter stride: fold rows whose absolute index is a multiple
  // of the stride, so the sampling phase rotates across batches instead
  // of always picking the same positions within each batch.
  const std::uint64_t stride = options_.stride;
  std::uint64_t next = ((start + stride - 1) / stride) * stride;
  if (next >= start + outputs.rows()) return;
  Slot* slot = LocalSlot();
  if (slot == nullptr) return;
  std::lock_guard<std::mutex> lock(slot->mu);
  for (; next < start + outputs.rows(); next += stride) {
    const double* row =
        outputs.row_data(static_cast<std::size_t>(next - start));
    std::copy(row, row + width,
              slot->staged.data() + slot->staged_rows * width);
    if (++slot->staged_rows == kStageRows) FoldStaged(slot);
  }
}

void QualityMonitor::ObserveDataset(const linalg::Matrix& features,
                                    const std::vector<std::size_t>& labels) {
  if (features.cols() != feature_dim_) return;
  rows_seen_.fetch_add(features.rows(), std::memory_order_relaxed);
  Slot* slot = LocalSlot();
  if (slot == nullptr) return;
  std::lock_guard<std::mutex> lock(slot->mu);
  FoldStaged(slot);  // Keep each sketch's fold order = arrival order.
  for (std::size_t r = 0; r < features.rows(); ++r) {
    const double* row = features.row_data(r);
    for (std::size_t c = 0; c < feature_dim_; ++c) {
      slot->set.quantiles[c].Add(row[c]);
      slot->set.moments[c].Add(row[c]);
    }
    if (num_classes_ > 0 && r < labels.size()) {
      slot->set.labels.Add(labels[r]);
    }
    ++slot->set.rows;
  }
}

QualityMonitor::SketchSet QualityMonitor::MergedSnapshot() const {
  SketchSet merged = NewSketchSet();
  slots_.ForEach([this, &merged](Slot* slot) {
    std::lock_guard<std::mutex> lock(slot->mu);
    FoldStaged(slot);
    for (std::size_t c = 0; c < feature_dim_; ++c) {
      merged.quantiles[c].Merge(slot->set.quantiles[c]);
      merged.moments[c].Merge(slot->set.moments[c]);
    }
    merged.labels.Merge(slot->set.labels);
    merged.rows += slot->set.rows;
  });
  return merged;
}

DriftReport QualityMonitor::Score() const {
  DriftReport report;
  report.rows_seen = rows_seen();
  const SketchSet merged = MergedSnapshot();
  report.rows_observed = merged.rows;
  report.has_fingerprint = fingerprint_ != nullptr &&
                           fingerprint_->feature_dim() == feature_dim_;
  report.features.resize(feature_dim_);
  for (std::size_t c = 0; c < feature_dim_; ++c) {
    FeatureDrift& drift = report.features[c];
    drift.live_mean = merged.moments[c].mean();
    drift.live_stddev = merged.moments[c].stddev();
    if (!report.has_fingerprint) continue;
    const FeatureFingerprint& ref = fingerprint_->feature(c);
    drift.ref_mean = ref.mean;
    drift.ref_stddev = ref.stddev;
    if (merged.rows == 0) continue;
    for (double x : ref.quantiles) {
      const double gap =
          std::fabs(merged.quantiles[c].Cdf(x) - ReferenceCdf(ref, x));
      if (gap > drift.ks) drift.ks = gap;
    }
    drift.mean_z = std::fabs(drift.live_mean - ref.mean) /
                   std::max(ref.stddev, 1e-9);
    drift.sigma_ratio = drift.live_stddev / std::max(ref.stddev, 1e-12);
    if (drift.ks > report.worst_ks) {
      report.worst_ks = drift.ks;
      report.worst_feature = c;
    }
    if (drift.mean_z > report.mean_z_max) report.mean_z_max = drift.mean_z;
  }
  if (report.has_fingerprint && merged.rows > 0 && num_classes_ > 0 &&
      fingerprint_->num_classes() == num_classes_) {
    report.label_tv = merged.labels.TotalVariation(fingerprint_->label_probs());
  }
  return report;
}

std::size_t QualityMonitor::MemoryBytes() const {
  std::size_t bytes = sizeof(*this);
  slots_.ForEach([&bytes](const Slot* slot) {
    std::lock_guard<std::mutex> lock(slot->mu);
    for (const QuantileSketch& q : slot->set.quantiles) {
      bytes += q.MemoryBytes();
    }
    bytes += slot->set.moments.size() * sizeof(MomentsSketch);
    bytes += slot->set.labels.num_bins() * sizeof(std::uint64_t);
    bytes += slot->staged.size() * sizeof(double);
  });
  return bytes;
}

}  // namespace quality
}  // namespace obs
}  // namespace p3gm
