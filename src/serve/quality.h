#ifndef P3GM_SERVE_QUALITY_H_
#define P3GM_SERVE_QUALITY_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "linalg/matrix.h"
#include "obs/quality/monitor.h"
#include "serve/model_registry.h"

namespace p3gm {
namespace serve {

struct QualityOptions {
  /// Master switch (`p3gm serve --no-quality`).
  /// Disabled, the serve path never constructs monitors and the batcher
  /// observer is a null hook — zero overhead, bit-identical samples
  /// (samples are bit-identical either way; monitoring only reads the
  /// decoded buffer).
  bool enabled = true;
  /// Drift alarm threshold on DriftReport::drift()
  /// (`--quality-threshold`). The default comfortably clears sketch
  /// rank error (~2/k) and sampling noise at a few hundred rows while
  /// catching the canonical negative control (a 0.25 marginal shift).
  double threshold = 0.15;
  /// WARN only after this many consecutive breached scrapes, so one
  /// noisy scrape of a cold monitor cannot page anyone.
  std::size_t consecutive = 3;
  /// Don't score drift (or count breaches) below this many folded rows.
  std::size_t min_rows = 128;
  /// Sketch subsample stride on the decode hot path (1 = every row).
  /// Matches obs::quality::MonitorOptions: 1-in-64 keeps ingest well
  /// under the bench_quality 3%-of-decode bar; scoring starts once
  /// stride * min_rows rows have been served.
  std::size_t stride = 64;
  /// When a loaded package has no embedded fingerprint, draw this many
  /// rows through its decoder at (re)load time to compute one (0
  /// disables the fallback — such models report has_fingerprint=false).
  std::size_t fallback_rows = 4096;
  /// Seed for the fallback draw (deterministic per binary).
  std::uint64_t fallback_seed = 0x716c5eed2026ULL;
};

/// Per-model drift state for one scrape, for /v1/quality JSON assembly.
struct QualityModelReport {
  std::string model;
  bool fallback_fingerprint = false;
  obs::quality::DriftReport report;
  std::size_t breach_streak = 0;
  bool breached = false;  // drift > threshold at this scrape.
  bool warn = false;      // breached for >= `consecutive` scrapes.
};

/// The serve path's per-model quality monitors: one
/// obs::quality::QualityMonitor per served model, fed by the batcher's
/// decode observer (worker thread) and scraped by /v1/metrics and
/// /v1/quality (event-loop thread).
///
/// Thread model: Rebuild and Scrape run on the event-loop thread only;
/// ObserveDecoded runs on the batcher worker. The monitor map is
/// swapped wholesale behind a mutex (registry-style), and entries hold
/// shared_ptr monitors, so a fold racing a hot reload keeps the old
/// monitor alive and never touches a dead one.
class QualitySet {
 public:
  explicit QualitySet(QualityOptions options);

  bool enabled() const { return options_.enabled; }
  const QualityOptions& options() const { return options_; }

  /// Builds a fresh monitor per served model (embedded fingerprint if
  /// present, else the fallback draw). Called after Init and after
  /// every successful reload; live sketches reset — drift is always
  /// measured against the currently served weights' fingerprint.
  void Rebuild(const ModelRegistry& registry);

  /// Batcher observer: folds one decoded batch (stride-subsampled)
  /// into `model`'s monitor. No-op for unknown models or when disabled.
  void ObserveDecoded(const std::string& model,
                      const linalg::Matrix& outputs);

  /// Scores every model, updates breach streaks, and exports the
  /// p3gm.quality.* gauges. The caller logs WARNs (it owns the request
  /// scope whose trace id the log must carry) using the returned
  /// `warn` flags. Event-loop thread only.
  std::vector<QualityModelReport> Scrape();

 private:
  struct Entry {
    std::shared_ptr<obs::quality::QualityMonitor> monitor;
    bool fallback_fingerprint = false;
    std::size_t breach_streak = 0;  // Scrape-thread only.
  };
  using MonitorMap = std::map<std::string, Entry>;

  const QualityOptions options_;
  mutable std::mutex mutex_;  // Guards the map shared_ptr swap.
  std::shared_ptr<MonitorMap> monitors_ = std::make_shared<MonitorMap>();
};

/// Body of GET /v1/quality.
std::string QualityReportJson(const std::vector<QualityModelReport>& reports,
                              const QualityOptions& options,
                              std::uint64_t generation);

}  // namespace serve
}  // namespace p3gm

#endif  // P3GM_SERVE_QUALITY_H_
