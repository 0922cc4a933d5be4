// Decoder synthesis throughput: the compiled inference runtime
// (infer::DecoderPlan — packed weights, arena buffers, fused SIMD
// kernels; see docs/inference.md) against the reference nn/linalg
// forward pass, across batch sizes. The planned side runs
// ReleasePackage::DecodeLatentInto — exactly what `p3gm serve` pays per
// coalesced batch — and the reference side ReferenceDecodeInto, so each
// pays its true end-to-end cost (the reference path's per-layer Matrix
// allocations included).
//
// The two runtimes are contractually bit-identical; this bench asserts
// that on every batch size before timing anything, so a kernel
// regression can never hide behind a throughput win.
//
// Emits BENCH_decode.json for the tools/bench_compare regression gate.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/release.h"
#include "infer/kernels.h"
#include "linalg/matrix.h"
#include "stats/gmm.h"
#include "util/csv.h"
#include "util/rng.h"

namespace p3gm {
namespace bench {
namespace {

// An MNIST-scale decoder: latent 64 -> hidden 512 -> 786 outputs (784
// pixels + a 2-class one-hot block), Bernoulli head. Weights are fixed
// pseudo-random so the run is reproducible without training.
core::ReleasePackage MakeDecodePackage() {
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
      "bench_decode", /*num_classes=*/2, core::DecoderType::kGaussian,
      std::move(*prior), std::move(w1), std::move(b1), std::move(w2),
      std::move(b2));
  P3GM_CHECK(pkg.ok());
  return std::move(*pkg);
}

// Decodes through DecodeLatentInto — the serve batcher's call — or the
// ReferenceDecodeInto oracle, each with the same caller-owned output
// buffer. The reference path still allocates its intermediate matrices
// internally; that is its real per-batch cost.
void DecodeOnce(const core::ReleasePackage& pkg, const linalg::Matrix& z,
                bool planned, linalg::Matrix* out) {
  const util::Status status = planned ? pkg.DecodeLatentInto(z, out)
                                      : pkg.ReferenceDecodeInto(z, out);
  P3GM_CHECK_MSG(status.ok(), status.ToString().c_str());
}

}  // namespace
}  // namespace bench
}  // namespace p3gm

int main() {
  using namespace p3gm;  // NOLINT(build/namespaces)

  bench::BenchRun run("decode");
  bench::PrintTitle(
      "decoder synthesis: planned infer runtime vs reference forward pass");

  const std::vector<std::size_t> kBatches =
      bench::SmokeMode() ? std::vector<std::size_t>{1, 16, 256}
                         : std::vector<std::size_t>{1, 16, 64, 256, 1024};
  // Rows decoded per measured rep: equal row budget at every batch size
  // so per-pass fixed costs show up in the batch=1 column rather than in
  // rep-count asymmetry.
  const std::size_t kRowsPerRep = bench::SmokeMode() ? 256 : 2048;

  const core::ReleasePackage pkg = bench::MakeDecodePackage();
  util::Rng z_rng(20260808);
  linalg::Matrix z_full = pkg.SampleLatent(kBatches.back(), &z_rng);

  // Per-batch latent slices (row-major prefix copies).
  std::vector<linalg::Matrix> z_by_batch;
  for (const std::size_t b : kBatches) {
    linalg::Matrix z(b, z_full.cols());
    std::memcpy(z.data(), z_full.data(),
                b * z_full.cols() * sizeof(double));
    z_by_batch.push_back(std::move(z));
  }

  // Equivalence gate first: the planned runtime must reproduce the
  // reference bytes on every batch size it is about to be timed on.
  for (std::size_t i = 0; i < kBatches.size(); ++i) {
    linalg::Matrix a, b;
    bench::DecodeOnce(pkg, z_by_batch[i], true, &a);
    bench::DecodeOnce(pkg, z_by_batch[i], false, &b);
    P3GM_CHECK_MSG(a.rows() == b.rows() && a.cols() == b.cols() &&
                       std::memcmp(a.data(), b.data(),
                                   a.size() * sizeof(double)) == 0,
                   "planned decode diverged from reference");
  }

  // Interleaved measurement: round r samples every (runtime, batch)
  // configuration once before any configuration gets rep r+1, so machine
  // drift cancels in the planned/reference ratio.
  // Each configuration keeps its own output buffer across reps — the
  // steady state a serving batcher reaches after its first batch.
  std::vector<linalg::Matrix> outs(2 * kBatches.size());
  std::vector<obs::bench::BenchSuite::NamedBench> benches;
  for (std::size_t i = 0; i < kBatches.size(); ++i) {
    const std::size_t batch = kBatches[i];
    const std::size_t iters =
        (kRowsPerRep + batch - 1) / batch;  // >= kRowsPerRep rows.
    const linalg::Matrix* z = &z_by_batch[i];
    linalg::Matrix* planned_out = &outs[2 * i];
    linalg::Matrix* reference_out = &outs[2 * i + 1];
    benches.push_back({"decode/planned_b" + std::to_string(batch),
                       [&pkg, z, iters, planned_out] {
                         for (std::size_t it = 0; it < iters; ++it) {
                           bench::DecodeOnce(pkg, *z, true, planned_out);
                         }
                       }});
    benches.push_back({"decode/reference_b" + std::to_string(batch),
                       [&pkg, z, iters, reference_out] {
                         for (std::size_t it = 0; it < iters; ++it) {
                           bench::DecodeOnce(pkg, *z, false, reference_out);
                         }
                       }});
  }
  run.suite().RunInterleaved(benches);

  // Samples/sec from the median rep of each configuration.
  auto rows_per_second = [&](const std::string& name,
                             std::size_t batch) -> double {
    const std::size_t iters = (kRowsPerRep + batch - 1) / batch;
    for (const obs::bench::BenchResult& r : run.suite().results()) {
      if (r.name == name && r.stats.median > 0.0) {
        return static_cast<double>(iters * batch) / r.stats.median;
      }
    }
    return 0.0;
  };

  std::printf("%-8s %16s %16s %10s\n", "batch", "planned rows/s",
              "reference rows/s", "speedup");
  util::CsvWriter csv("bench_decode.csv");
  csv.WriteRow({"batch", "planned_rows_per_s", "reference_rows_per_s",
                "speedup"});
  double speedup_at_256 = 0.0;
  for (const std::size_t batch : kBatches) {
    const double planned =
        rows_per_second("decode/planned_b" + std::to_string(batch), batch);
    const double reference = rows_per_second(
        "decode/reference_b" + std::to_string(batch), batch);
    const double speedup = reference > 0.0 ? planned / reference : 0.0;
    if (batch == 256) speedup_at_256 = speedup;
    std::printf("%-8zu %16.0f %16.0f %9.2fx\n", batch, planned, reference,
                speedup);
    csv.WriteRow({std::to_string(batch), util::FormatDouble(planned, 1),
                  util::FormatDouble(reference, 1),
                  util::FormatDouble(speedup, 3)});
  }
  bench::PrintRule();
  std::printf("planned-decode speedup at batch 256: %.2fx samples/sec "
              "(latent 64 -> hidden 512 -> 786 outputs, %s tier)\n",
              speedup_at_256,
              infer::TierName(infer::ActiveTier()));
  run.AppendRunInfo(&csv);
  return 0;
}
