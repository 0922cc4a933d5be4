// Train phase: the `p3gm train` path through the public API. Seeded rows
// are written as the CSV the CLI reads; set-up is the CSV read plus the
// DP-SGD sigma calibration; one timed fit runs the phased P3GM fit
// (DP-PCA -> DP-EM -> DP-SGD), packages the decoder, embeds the quality
// fingerprint and saves the release, as CmdTrain does. Outputs are
// checked after the timed window: the package reloads, the accountant's
// epsilon is within the target, samples are finite.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <numeric>
#include <optional>

#include "bench.h"
#include "core/pgm.h"
#include "core/release.h"
#include "data/csv_loader.h"
#include "data/dataset.h"
#include "data/synthetic.h"
#include "data/transforms.h"
#include "eval/logistic_regression.h"
#include "eval/metrics.h"
#include "obs/observability.h"
#include "obs/registry.h"
#include "util/thread_pool.h"

namespace p3gm {
namespace perfbench {

namespace {

constexpr double kTargetEpsilon = 1.0;
constexpr double kDelta = 1e-5;
constexpr int kSetupReps = 9;
// At least this many fits per run; a traced run needs two plain and two
// traced fits.
constexpr int kMinFits = 4;
constexpr std::size_t kFingerprintRows = 4096;
constexpr std::size_t kCheckRows = 512;
constexpr std::size_t kUtilityRows = 2000;

// What one fit measured.
struct Fit {
  bool traced = false;
  double train_s = 0.0;
  double cpu_s = 0.0;
  double fingerprint_s = 0.0;
  double save_s = 0.0;
  double phase_pca_s = 0.0;
  double phase_em_s = 0.0;
  double phase_sgd_s = 0.0;
  double recon_loss = 0.0;  // Last epoch's mean reconstruction loss.
  std::vector<double> epoch_s;  // EpochCallback deltas (epochs >= 2).
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

data::Dataset MakeRows(const Workload& w, std::uint64_t seed) {
  return w.dataset == "isolet" ? data::MakeIsoletLike(w.rows, seed)
                               : data::MakeEsrLike(w.rows, seed);
}

std::vector<double> Collect(const std::vector<Fit>& fits, bool traced,
                            double Fit::*field) {
  std::vector<double> out;
  for (const Fit& f : fits) {
    if (f.traced == traced) out.push_back(f.*field);
  }
  return out;
}

// Train-on-synthetic (up to kUtilityRows rows drawn from the release),
// test-on-real AUROC with logistic regression, the first classifier of
// eval::EvaluateSyntheticData's roster. A degenerate single-class
// synthetic set scores 0.5, as that protocol does.
double UtilityAuroc(const core::ReleasePackage& pkg,
                    const data::Dataset& train, const data::Dataset& test,
                    std::uint64_t seed) {
  util::Rng rng(seed ^ 0x5eedull);
  auto synthetic =
      pkg.Generate(std::min(kUtilityRows, train.size()), &rng);
  if (!synthetic.ok()) return 0.5;
  eval::LogisticRegression lr;
  if (!lr.Fit(synthetic->features, synthetic->labels).ok()) return 0.5;
  auto auroc = eval::Auroc(lr.PredictProba(test.features), test.labels);
  return auroc.ok() ? *auroc : 0.5;
}

}  // namespace

TrainOutput RunTrainPhase(const RunConfig& config, Result* result) {
  const Workload& w = config.workload;
  const bool primary = w.train_primary;
  TrainOutput out;
  out.package_path = config.work_dir + "/" + w.dataset + ".release";

  // Inputs: seeded rows, written as the CSV `p3gm train` would read.
  const std::string csv = config.work_dir + "/" + w.dataset + ".csv";
  if (auto st = data::SaveCsvDataset(MakeRows(w, config.seed), csv);
      !st.ok()) {
    result->Fail("write input csv: " + st.ToString());
    return out;
  }
  const double csv_mb =
      static_cast<double>(std::filesystem::file_size(csv)) / 1e6;

  // Set-up: CSV read + sigma calibration (CLI defaults), median of reps.
  // The held-out split only feeds the utility metric, so it is untimed.
  core::PgmOptions opt;
  opt.hidden = 200;
  opt.latent_dim = 10;
  opt.mog_components = 3;
  opt.epochs = kEpochs;
  opt.seed = config.seed;
  opt.differentially_private = true;
  opt.decoder = core::DecoderType::kBernoulli;
  obs::SetEnabled(config.trace);
  std::vector<double> setup_s, load_s, calibrate_s;
  std::optional<data::Split> split;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    std::optional<util::Result<data::Dataset>> loaded;
    const double load =
        Timed("data.load", [&] { loaded.emplace(data::LoadCsvDataset(csv)); });
    if (!loaded->ok()) {
      result->Fail("load csv: " + loaded->status().ToString());
      return out;
    }
    auto parts = data::StratifiedSplit(**loaded, 0.2, config.seed);
    if (!parts.ok()) {
      result->Fail("split: " + parts.status().ToString());
      return out;
    }
    split.emplace(std::move(*parts));
    opt.batch_size = std::min<std::size_t>(200, split->train.size());
    opt.use_pca = opt.latent_dim < split->train.dim();
    std::optional<util::Result<double>> sigma;
    const double calibrate = Timed("dp.calibrate", [&] {
      sigma.emplace(core::Pgm::CalibrateSigma(opt, split->train.size(),
                                              kTargetEpsilon, kDelta));
    });
    if (!sigma->ok()) {
      result->Fail("calibrate: " + sigma->status().ToString());
      return out;
    }
    opt.sgd_sigma = **sigma;
    load_s.push_back(load);
    calibrate_s.push_back(calibrate);
    setup_s.push_back(load + calibrate);
  }
  const data::Dataset& train = split->train;
  const data::Dataset& test = split->test;
  out.options = opt;
  out.joint = data::AttachLabels(train.features, train.labels,
                                 train.num_classes);

  // Timed fits. A traced run alternates plain and traced fits so the
  // tracing overhead is measured under the same conditions.
  obs::Registry& registry = obs::Registry::Global();
  registry.Reset();
  if (primary) ResetPeakRss();
  std::vector<Fit> fits;
  std::unique_ptr<core::Pgm> last;
  std::vector<core::ReleasePackage> releases;  // Traced runs: utility.
  // Serve workloads fit for half a run: enough fits that one slow
  // stretch on a shared host moves a few of them, not the median.
  const double deadline =
      NowSeconds() + (primary ? config.seconds : config.seconds / 2);
  const std::string name = "p3gm:" + csv;
  while (static_cast<int>(fits.size()) < kMinFits ||
         NowSeconds() < deadline) {
    Fit fit;
    fit.traced = config.trace && fits.size() % 2 == 1;
    obs::SetEnabled(fit.traced);
    ++result->attempted;
    std::vector<double> epoch_ends;
    const double cpu0 = ProcessCpuSeconds();
    const double t0 = NowSeconds();
    fit.start_ns = obs::NowNs();
    opt.seed = config.seed * 1000 + fits.size();
    auto pgm = std::make_unique<core::Pgm>(opt);
    util::Status status;
    Timed("core.fit", [&] {
      const linalg::Matrix joint = data::AttachLabels(
          train.features, train.labels, train.num_classes);
      status = pgm->Fit(joint, [&](const core::TrainProgress& progress) {
        epoch_ends.push_back(NowSeconds());
        fit.recon_loss = progress.recon_loss;
      });
    });
    std::optional<util::Result<core::ReleasePackage>> pkg;
    if (status.ok()) {
      Timed("release.package", [&] {
        pkg.emplace(
            core::ReleasePackage::FromPgm(pgm.get(), train.num_classes, name));
      });
      status = pkg->status();
    }
    if (status.ok()) {
      std::optional<util::Result<obs::quality::Fingerprint>> fp;
      fit.fingerprint_s = Timed("release.fingerprint", [&] {
        fp.emplace(core::BuildFingerprint(**pkg, kFingerprintRows,
                                          config.seed));
      });
      status = fp->status();
      if (status.ok()) (*pkg)->SetFingerprint(std::move(**fp));
    }
    if (status.ok() && config.trace) releases.push_back(**pkg);
    if (status.ok()) {
      fit.save_s = Timed("release.save",
                         [&] { status = (*pkg)->Save(out.package_path); });
    }
    fit.train_s = NowSeconds() - t0;
    fit.cpu_s = ProcessCpuSeconds() - cpu0;
    fit.end_ns = obs::NowNs();
    obs::SetEnabled(false);
    if (!status.ok()) {
      ++result->failed;
      result->Fail("fit: " + status.ToString());
      return out;
    }
    for (std::size_t e = 1; e < epoch_ends.size(); ++e) {
      fit.epoch_s.push_back(epoch_ends[e] - epoch_ends[e - 1]);
    }
    if (fit.traced) {
      fit.phase_pca_s = registry.gauge("pgm.phase.pca_seconds")->value();
      fit.phase_em_s = registry.gauge("pgm.phase.em_seconds")->value();
      fit.phase_sgd_s = registry.gauge("pgm.phase.sgd_seconds")->value();
    }
    fits.push_back(std::move(fit));
    last = std::move(pgm);
  }
  const double peak_rss = PeakRssMb();

  // Output checks (untimed).
  std::vector<double> reload_s;
  std::optional<util::Result<core::ReleasePackage>> reloaded;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    reload_s.push_back(Timed("release.load", [&] {
      reloaded.emplace(core::ReleasePackage::Load(out.package_path));
    }));
  }
  if (!reloaded->ok()) {
    result->Fail("release does not reload: " +
                 reloaded->status().ToString());
    return out;
  }
  const core::ReleasePackage& pkg = **reloaded;
  if (pkg.output_dim() != out.joint.cols() || pkg.fingerprint() == nullptr) {
    result->Fail("reloaded release has the wrong shape or no fingerprint");
  }
  const double eps_planned = last->ComputeEpsilon(kDelta).epsilon;
  const double eps_live = last->accountant().GetEpsilon(kDelta).epsilon;
  if (!(eps_planned <= kTargetEpsilon * (1 + 1e-9)) ||
      !(eps_live <= kTargetEpsilon * (1 + 1e-6))) {
    result->Fail("privacy spent exceeds the target epsilon");
  }
  util::Rng rng(config.seed);
  auto samples = pkg.Generate(kCheckRows, &rng);
  bool finite = samples.ok() && samples->size() == kCheckRows;
  if (finite) {
    const linalg::Matrix& f = samples->features;
    for (std::size_t i = 0; i < f.size(); ++i) {
      if (!std::isfinite(f.data()[i])) finite = false;
    }
  }
  if (!finite) result->Fail("release samples are not finite");

  if (!config.trace) {
    if (primary) {
      result->Set("setup_s", Median(setup_s), "s");
      result->Set("peak_rss_mb", peak_rss, "MB");
    }
    result->Set("train_s", Median(Collect(fits, false, &Fit::train_s)), "s");
    result->Set("cpu_s", Median(Collect(fits, false, &Fit::cpu_s)), "s");
    result->Set("recon_loss", Median(Collect(fits, false, &Fit::recon_loss)),
                "nats");
    return out;
  }

  // Traced run: per-layer figures from the traced fits.
  std::vector<double> aurocs;
  for (const core::ReleasePackage& r : releases) {
    aurocs.push_back(UtilityAuroc(r, train, test, config.seed));
  }
  result->Set("eval.utility_auroc", Median(aurocs), "auroc");
  const double load = Median(load_s);
  result->Set("data.load_s", load, "s");
  result->Set("data.load_mb_per_s", csv_mb / load, "MB/s");
  result->Set("dp.calibrate_s", Median(calibrate_s), "s");
  result->Set("release.load_s", Median(reload_s), "s");
  result->Set("release.fingerprint_s",
              Median(Collect(fits, true, &Fit::fingerprint_s)), "s");
  result->Set("release.save_s", Median(Collect(fits, true, &Fit::save_s)),
              "s");
  result->Set("pgm.phase.pca_s",
              Median(Collect(fits, true, &Fit::phase_pca_s)), "s");
  result->Set("pgm.phase.em_s", Median(Collect(fits, true, &Fit::phase_em_s)),
              "s");
  result->Set("pgm.phase.sgd_s",
              Median(Collect(fits, true, &Fit::phase_sgd_s)), "s");
  std::vector<double> epochs;
  std::vector<double> accounted;
  for (const Fit& f : fits) {
    if (!f.traced) continue;
    epochs.insert(epochs.end(), f.epoch_s.begin(), f.epoch_s.end());
    accounted.push_back(100.0 *
                        (f.phase_pca_s + f.phase_em_s + f.phase_sgd_s +
                         f.fingerprint_s + f.save_s) /
                        f.train_s);
  }
  result->Set("pgm.epoch_s", Median(epochs), "s");
  result->Set("train.accounted_pct", Median(accounted), "%");

  // Program spans inside the traced fits: gemm and syrk per fit.
  const std::vector<obs::TraceRecorder::Event> events =
      obs::TraceRecorder::Global().Events();
  double gemm_calls = 0, gemm_ns = 0, syrk_ns = 0, traced_fits = 0;
  for (const Fit& f : fits) {
    if (!f.traced) continue;
    ++traced_fits;
    for (const auto& e : events) {
      if (e.start_ns < f.start_ns || e.end_ns > f.end_ns) continue;
      const std::string_view n = e.name;
      if (n.starts_with("linalg.gemm")) {
        ++gemm_calls;
        gemm_ns += static_cast<double>(e.end_ns - e.start_ns);
      } else if (n == "linalg.syrk") {
        syrk_ns += static_cast<double>(e.end_ns - e.start_ns);
      }
    }
  }
  result->Set("linalg.gemm_calls", gemm_calls / traced_fits, "count");
  result->Set("linalg.gemm_s", gemm_ns * 1e-9 / traced_fits, "s");
  result->Set("linalg.syrk_s", syrk_ns * 1e-9 / traced_fits, "s");

  // Pool use inside the traced fits: the workers' busy_ns counters (the
  // caller counts as worker 0) over the pool's thread-time.
  const std::size_t width = util::NumThreads();
  double busy_ns = 0.0;
  for (std::size_t k = 0; k < width; ++k) {
    busy_ns += static_cast<double>(
        registry.counter("threadpool.worker" + std::to_string(k) + ".busy_ns")
            ->value());
  }
  const std::vector<double> traced_train_s = Collect(fits, true, &Fit::train_s);
  const double traced_s =
      std::accumulate(traced_train_s.begin(), traced_train_s.end(), 0.0);
  result->Set("threadpool.busy_ratio",
              busy_ns * 1e-9 / (static_cast<double>(width) * traced_s),
              "ratio");

  result->train_window.start_ns = fits[1].start_ns;
  result->train_window.end_ns = fits.back().end_ns;
  result->train_window.ops = traced_fits;
  if (primary) {
    result->Set("trace.overhead_pct",
                100.0 * (Median(Collect(fits, true, &Fit::train_s)) /
                             Median(Collect(fits, false, &Fit::train_s)) -
                         1.0),
                "%");
  }
  return out;
}

}  // namespace perfbench
}  // namespace p3gm
