#include "audit/golden.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/pgm.h"
#include "core/release.h"
#include "data/dataset.h"
#include "linalg/matrix.h"
#include "stats/gmm.h"
#include "util/check.h"
#include "util/rng.h"

namespace p3gm {
namespace audit {

namespace {

constexpr char kHeader[] = "# p3gm golden trace v1";
constexpr char kDecodeHeader[] = "# p3gm golden decode v1";
constexpr double kDelta = 1e-5;

// Shared line-by-line comparison: regenerated `fresh` lines against the
// checked-in file at `path`, reporting the first mismatch with a
// regeneration hint.
GoldenCompareResult CompareLinesAgainstFile(
    const std::vector<std::string>& fresh, const std::string& path) {
  GoldenCompareResult result;
  std::ifstream in(path);
  if (!in) {
    result.message = "cannot open golden file: " + path +
                     " (generate it with build/tools/regen_golden)";
    return result;
  }
  std::vector<std::string> golden;
  for (std::string line; std::getline(in, line);) golden.push_back(line);

  const std::size_t n = std::min(golden.size(), fresh.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (golden[i] != fresh[i]) {
      std::ostringstream msg;
      msg << "golden mismatch at line " << (i + 1) << ":\n  golden: "
          << golden[i] << "\n  fresh:  " << fresh[i]
          << "\nIf the numeric change is intentional, regenerate with "
             "build/tools/regen_golden (see tools/regen_golden.cc) and "
             "commit the updated "
          << path;
      result.message = msg.str();
      return result;
    }
  }
  if (golden.size() != fresh.size()) {
    std::ostringstream msg;
    msg << "golden length mismatch: golden has " << golden.size()
        << " lines, fresh run has " << fresh.size()
        << ". Regenerate with build/tools/regen_golden " << path;
    result.message = msg.str();
    return result;
  }
  result.ok = true;
  return result;
}

// "tag,i,v0,v1,..." with every double at %.17g (bit round-trip).
std::string FormatValueRow(const char* tag, std::size_t i, const double* v,
                           std::size_t n) {
  std::ostringstream os;
  os << tag << ',' << i;
  char buf[40];
  for (std::size_t j = 0; j < n; ++j) {
    std::snprintf(buf, sizeof(buf), ",%.17g", v[j]);
    os << buf;
  }
  return os.str();
}

// The canonical decode package: explicit deterministic weights, no
// training. Distinct from the serve-test fixture so the two suites pin
// different numeric surfaces. latent 4 -> hidden 16 -> output 10 with a
// 2-class one-hot block, 3-component MoG prior.
core::ReleasePackage GoldenDecodePackage() {
  const std::size_t dl = 4, h = 16, d = 10;
  linalg::Matrix w1(dl, h), b1(1, h), w2(h, d), b2(1, d);
  for (std::size_t i = 0; i < dl; ++i) {
    for (std::size_t j = 0; j < h; ++j) {
      w1(i, j) = 0.07 * (static_cast<double>((i * h + j) % 11) - 5.0);
    }
  }
  for (std::size_t j = 0; j < h; ++j) b1(0, j) = 0.015 * j - 0.05;
  for (std::size_t i = 0; i < h; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      w2(i, j) = 0.05 * (static_cast<double>((3 * i + 2 * j) % 9) - 4.0);
    }
  }
  for (std::size_t j = 0; j < d; ++j) b2(0, j) = 0.01 * (j % 4) - 0.02;

  linalg::Matrix means(3, dl), variances(3, dl);
  for (std::size_t j = 0; j < dl; ++j) {
    means(0, j) = -1.5 + 0.1 * j;
    means(1, j) = 0.2;
    means(2, j) = 1.1 - 0.2 * j;
    variances(0, j) = 0.6;
    variances(1, j) = 0.4;
    variances(2, j) = 0.8;
  }
  auto prior =
      stats::GaussianMixture::Create({0.25, 0.35, 0.4}, means, variances);
  P3GM_CHECK(prior.ok());
  auto pkg = core::ReleasePackage::FromParts(
      "golden_decode", /*num_classes=*/2, core::DecoderType::kBernoulli,
      std::move(*prior), std::move(w1), std::move(b1), std::move(w2),
      std::move(b2));
  P3GM_CHECK(pkg.ok());
  return std::move(*pkg);
}

}  // namespace

std::vector<std::string> GoldenPgmTraceLines() {
  // Fixed-seed synthetic data in [0, 1): small enough that the full DP
  // pipeline (DP-PCA + DP-EM + DP-SGD) runs in well under a second.
  util::Rng data_rng(123);
  linalg::Matrix x(96, 12);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = data_rng.Uniform();

  core::PgmOptions options;
  options.hidden = 16;
  options.latent_dim = 4;
  options.mog_components = 2;
  options.epochs = 4;
  options.batch_size = 24;
  options.differentially_private = true;
  options.seed = 2024;

  core::Pgm pgm(options);
  std::vector<std::string> lines;
  lines.emplace_back(kHeader);
  const auto callback = [&pgm, &lines](const core::TrainProgress& p) {
    // The live accountant has already composed every release up to and
    // including this epoch's DP-SGD steps.
    const double eps = pgm.accountant().GetEpsilon(kDelta).epsilon;
    char buf[192];
    std::snprintf(buf, sizeof(buf), "epoch,%zu,%.17g,%.17g,%.17g", p.epoch,
                  p.recon_loss, p.kl_loss, eps);
    lines.emplace_back(buf);
  };
  const util::Status status = pgm.Fit(x, callback);
  if (!status.ok()) {
    lines.push_back(std::string("error,") + status.message());
    return lines;
  }

  const dp::DpGuarantee g = pgm.ComputeEpsilon(kDelta);
  char final_buf[128];
  std::snprintf(final_buf, sizeof(final_buf), "final,%.17g,%.17g", g.epsilon,
                g.best_order);
  lines.emplace_back(final_buf);

  // Synthesis digest: a fixed-seed sample folded to one number. Catches
  // regressions in the sampling path (prior draw + decoder) that the
  // training trace cannot see.
  util::Rng sample_rng(31337);
  const linalg::Matrix sample = pgm.Sample(8, &sample_rng);
  double checksum = 0.0;
  for (std::size_t i = 0; i < sample.size(); ++i) {
    checksum += sample.data()[i] * static_cast<double>(i % 7 + 1);
  }
  char buf[96];
  std::snprintf(buf, sizeof(buf), "sample,%zu,%.17g", sample.size(),
                checksum);
  lines.emplace_back(buf);
  return lines;
}

bool WriteGoldenTrace(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  for (const std::string& line : GoldenPgmTraceLines()) out << line << "\n";
  return static_cast<bool>(out);
}

GoldenCompareResult CompareGoldenTrace(const std::string& path) {
  return CompareLinesAgainstFile(GoldenPgmTraceLines(), path);
}

std::vector<std::string> GoldenDecodeLines(bool reference) {
  const core::ReleasePackage pkg = GoldenDecodePackage();
  auto decode = [&](const linalg::Matrix& z) -> util::Result<linalg::Matrix> {
    linalg::Matrix out;
    P3GM_RETURN_NOT_OK(reference ? pkg.ReferenceDecodeInto(z, &out)
                                 : pkg.DecodeLatentInto(z, &out));
    return out;
  };
  std::vector<std::string> lines;
  lines.emplace_back(kDecodeHeader);

  // A deterministic latent grid spanning both signs and magnitudes past
  // the prior means, decoded directly: pins the decoder forward pass
  // alone, independent of the prior sampler.
  linalg::Matrix z(6, pkg.latent_dim());
  for (std::size_t i = 0; i < z.rows(); ++i) {
    for (std::size_t j = 0; j < z.cols(); ++j) {
      z(i, j) = -2.0 + 0.7 * static_cast<double>(i) +
                0.35 * static_cast<double>(j);
    }
  }
  const util::Result<linalg::Matrix> decoded = decode(z);
  if (!decoded.ok()) {
    lines.push_back(std::string("error,") + decoded.status().message());
    return lines;
  }
  for (std::size_t i = 0; i < decoded->rows(); ++i) {
    lines.push_back(FormatValueRow("decode", i,
                                   decoded->data() + i * decoded->cols(),
                                   decoded->cols()));
  }

  // Fixed-seed end-to-end synthesis: prior draws + decode + one-hot
  // label split, exactly what Generate() and `p3gm serve` run per
  // request.
  util::Rng rng(7777);
  util::Result<linalg::Matrix> outputs = decode(pkg.SampleLatent(12, &rng));
  if (!outputs.ok()) {
    lines.push_back(std::string("error,") + outputs.status().message());
    return lines;
  }
  const data::Dataset generated =
      pkg.AssembleRows(std::move(outputs).ValueOrDie());
  const linalg::Matrix& f = generated.features;
  for (std::size_t i = 0; i < f.rows(); ++i) {
    lines.push_back(
        FormatValueRow("sample", i, f.data() + i * f.cols(), f.cols()));
  }
  std::ostringstream labels;
  labels << "labels";
  for (const std::size_t l : generated.labels) labels << ',' << l;
  lines.push_back(labels.str());
  return lines;
}

bool WriteGoldenDecode(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  for (const std::string& line : GoldenDecodeLines()) out << line << "\n";
  return static_cast<bool>(out);
}

GoldenCompareResult CompareGoldenDecode(const std::string& path,
                                        bool reference) {
  return CompareLinesAgainstFile(GoldenDecodeLines(reference), path);
}

}  // namespace audit
}  // namespace p3gm
