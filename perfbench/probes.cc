// Per-layer probes for the traced run: each layer's public functions are
// called directly, at the shapes the workload's train and serve phases
// use, and timed from outside. Nothing here instruments src/.

#include <condition_variable>
#include <memory>
#include <mutex>

#include "bench.h"
#include "core/release.h"
#include "linalg/ops.h"
#include "nn/activations.h"
#include "nn/dp_sgd.h"
#include "nn/linear.h"
#include "nn/losses.h"
#include "nn/sequential.h"
#include "pca/pca.h"
#include "serve/api.h"
#include "serve/batcher.h"
#include "serve/http.h"
#include "serve/sample_cache.h"
#include "stats/dp_em.h"
#include "util/rng.h"

namespace p3gm {
namespace perfbench {

namespace {

constexpr double kProbeSeconds = 0.05;  // Per timed call site.
constexpr int kFitProbeReps = 3;
constexpr int kDpSgdReps = 9;
constexpr std::size_t kCoalesced = 8;  // serve::BatcherOptions default.

linalg::Matrix RandomMatrix(std::size_t rows, std::size_t cols,
                            util::Rng* rng) {
  linalg::Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng->Uniform();
  return m;
}

// DP-PCA and DP-EM on the workload's training matrix.
void ProbeEncodingPhase(const TrainOutput& t, Result* result) {
  pca::DpPcaOptions pca_opts;
  pca_opts.num_components = t.options.latent_dim;
  pca_opts.epsilon = t.options.pca_epsilon;
  std::vector<double> pca_s, em_s;
  for (int rep = 0; rep < kFitProbeReps; ++rep) {
    util::Rng rng(t.options.seed + rep);
    std::optional<util::Result<pca::PcaModel>> model;
    pca_s.push_back(Timed("probe.pca.fit", [&] {
      model.emplace(pca::FitDpPca(t.joint, pca_opts, &rng));
    }));
    if (!model->ok()) {
      result->Fail("probe FitDpPca: " + model->status().ToString());
      return;
    }
    const linalg::Matrix encoded = (*model)->Transform(t.joint);
    stats::DpEmOptions em_opts;
    em_opts.num_components = t.options.mog_components;
    em_opts.iters = t.options.em_iters;
    em_opts.noise_multiplier = t.options.em_sigma;
    std::optional<util::Result<stats::DpEmResult>> em;
    em_s.push_back(Timed("probe.dp_em.fit", [&] {
      em.emplace(stats::FitGmmDpEm(encoded, em_opts, &rng));
    }));
    if (!em->ok()) {
      result->Fail("probe FitGmmDpEm: " + em->status().ToString());
      return;
    }
  }
  result->Set("pca.fit_s", Median(pca_s), "s");
  result->Set("dp_em.fit_s", Median(em_s), "s");
}

// The gemms of one DP-SGD step (nn::Linear forward, input-gradient and
// clipped weight-gradient products of the encoder trunk, the variance
// head and the two decoder layers), each timed alone. Flops and bytes
// are computed from the shapes.
void ProbeGemm(const TrainOutput& t, Result* result) {
  const std::size_t b = t.options.batch_size, d = t.joint.cols(),
                    h = t.options.hidden, l = t.options.latent_dim;
  struct Shape {
    char kind;  // 'N' Matmul, 'A' MatmulTransA, 'B' MatmulTransB.
    std::size_t m, k, n;
  };
  const std::vector<Shape> shapes = {
      {'N', b, d, h}, {'N', b, h, l}, {'N', b, l, h}, {'N', b, h, d},
      {'B', b, d, h}, {'B', b, h, l}, {'B', b, l, h}, {'B', b, h, d},
      {'A', d, b, h}, {'A', h, b, l}, {'A', l, b, h}, {'A', h, b, d}};
  util::Rng rng(7);
  double flops = 0, bytes = 0, ns = 0;
  for (const Shape& s : shapes) {
    // Operands laid out as the callee expects: TransA takes a (k x m)
    // left operand, TransB a (n x k) right operand.
    const linalg::Matrix a = s.kind == 'A' ? RandomMatrix(s.k, s.m, &rng)
                                           : RandomMatrix(s.m, s.k, &rng);
    const linalg::Matrix c = s.kind == 'B' ? RandomMatrix(s.n, s.k, &rng)
                                           : RandomMatrix(s.k, s.n, &rng);
    ns += MedianCallNs(
        [&] {
          linalg::Matrix out = s.kind == 'N'   ? linalg::Matmul(a, c)
                               : s.kind == 'A' ? linalg::MatmulTransA(a, c)
                                               : linalg::MatmulTransB(a, c);
          if (out.rows() != s.m) result->Fail("probe gemm shape");
        },
        kProbeSeconds);
    flops += 2.0 * static_cast<double>(s.m * s.k * s.n);
    bytes += 8.0 * static_cast<double>(s.m * s.k + s.k * s.n + s.m * s.n);
  }
  result->Set("linalg.gemm_gflops", flops / ns, "GFLOP/s");
  result->Set("linalg.gemm_step_ms", ns * 1e-6, "ms");
  result->Set("linalg.gemm_step_mb", bytes * 1e-6, "MB");
}

// nn::DpSgdStep's three stages on a decoder-shaped stack (latent ->
// hidden -> relu -> data width) after a real forward/backward pass.
void ProbeDpSgd(const TrainOutput& t, Result* result) {
  const std::size_t b = t.options.batch_size, d = t.joint.cols();
  util::Rng rng(t.options.seed);
  nn::Sequential decoder("decoder");
  decoder.Emplace<nn::Linear>("dec1", t.options.latent_dim, t.options.hidden,
                              &rng);
  decoder.Emplace<nn::Relu>();
  decoder.Emplace<nn::Linear>("dec2", t.options.hidden, d, &rng);
  const std::vector<nn::Layer*> stacks = {&decoder};
  const std::vector<nn::Parameter*> params = decoder.Parameters();
  nn::DpSgdOptions opts;
  opts.clip_norm = t.options.clip_norm;
  opts.noise_multiplier = t.options.sgd_sigma;
  opts.lot_size = b;
  const linalg::Matrix z = RandomMatrix(b, t.options.latent_dim, &rng);
  const linalg::Matrix x = RandomMatrix(b, d, &rng);
  std::vector<double> norms_s, clip_s, noise_s;
  for (int rep = 0; rep < kDpSgdReps; ++rep) {
    for (nn::Parameter* p : params) p->ZeroGrad();
    const linalg::Matrix logits = decoder.Forward(z, true);
    decoder.Backward(nn::BceWithLogitsLoss(logits, x, false).grad, false);
    nn::DpSgdStep step(opts, &rng);
    util::Status status;
    norms_s.push_back(Timed("probe.dpsgd.norms", [&] {
      status = step.CollectSquaredNorms(stacks, b);
    }));
    if (!status.ok()) {
      result->Fail("probe DpSgdStep: " + status.ToString());
      return;
    }
    clip_s.push_back(Timed("probe.dpsgd.clip",
                           [&] { step.ApplyClippedAccumulation(stacks); }));
    noise_s.push_back(Timed("probe.dpsgd.noise",
                            [&] { step.AddNoiseAndAverage(params, b); }));
  }
  result->Set("dpsgd.norms_s", Median(norms_s), "s");
  result->Set("dpsgd.clip_accum_s", Median(clip_s), "s");
  result->Set("dpsgd.noise_s", Median(noise_s), "s");
}

// Decoder forward pass per row at 1 row, 64 rows and a coalesced batch
// of the workload's requests.
void ProbeDecode(const core::ReleasePackage& pkg, std::size_t per_request,
                 Result* result) {
  const std::pair<const char*, std::size_t> sizes[] = {
      {"infer.decode_ns_per_row.rows1", 1},
      {"infer.decode_ns_per_row.rows64", 64},
      {"infer.decode_ns_per_row.coalesced", kCoalesced * per_request}};
  util::Rng rng(11);
  for (const auto& [name, rows] : sizes) {
    const linalg::Matrix z = pkg.SampleLatent(rows, &rng);
    linalg::Matrix out;
    const double ns = MedianCallNs(
        [&] {
          if (!pkg.DecodeLatentInto(z, &out).ok()) {
            result->Fail("probe DecodeLatentInto");
          }
        },
        kProbeSeconds);
    result->Set(name, ns / static_cast<double>(rows), "ns");
  }
}

// Request parsing, response formatting and HTTP framing at the workload's
// request and response sizes.
void ProbeApiAndHttp(const core::ReleasePackage& pkg, std::size_t rows,
                     Result* result) {
  const std::string body =
      "{\"model\": \"m\", \"n\": " + std::to_string(rows) + "}";
  result->Set("serve.api.parse_ns", MedianCallNs([&] {
                if (!serve::ParseSampleRequest(body, 100000).ok()) {
                  result->Fail("probe ParseSampleRequest");
                }
              }, kProbeSeconds),
              "ns");

  util::Rng rng(13);
  auto sample = pkg.Generate(rows, &rng);
  if (!sample.ok()) {
    result->Fail("probe Generate");
    return;
  }
  std::string json;
  const double json_ns = MedianCallNs(
      [&] { json = serve::SampleResponseJson("m", 1, false, *sample); },
      kProbeSeconds);
  const double values = static_cast<double>(rows * (sample->dim() + 1));
  result->Set("serve.api.json_ns_per_value", json_ns / values, "ns");
  result->Set("serve.api.json_bytes", static_cast<double>(json.size()),
              "bytes");

  const std::string wire =
      "POST /v1/sample HTTP/1.1\r\nHost: p3gm\r\n"
      "Content-Type: application/json\r\nContent-Length: " +
      std::to_string(body.size()) + "\r\n\r\n" + body;
  serve::HttpParser parser;
  result->Set("serve.http.parse_ns", MedianCallNs([&] {
                parser.Feed(wire);
                if (!parser.done()) result->Fail("probe HttpParser::Feed");
                parser.ResetForNext();
              }, kProbeSeconds),
              "ns");
  serve::HttpResponse response;
  response.body = json;
  std::size_t wire_bytes = 0;
  result->Set("serve.http.serialize_ns",
              MedianCallNs([&] { wire_bytes = response.Serialize().size(); },
                           kProbeSeconds),
              "ns");
  if (wire_bytes <= json.size()) result->Fail("probe HttpResponse::Serialize");
}

// Enqueue -> completion through a standalone serve::Batcher, one job at a
// time (no coalescing), so the figure is the batcher hop plus decode.
void ProbeBatcher(const std::shared_ptr<const core::ReleasePackage>& pkg,
                  std::size_t rows, Result* result) {
  serve::SampleCache cache(0);
  std::mutex mutex;
  std::condition_variable cv;
  std::uint64_t done_ticket = 0;
  bool ok = true;
  serve::Batcher batcher(
      serve::BatcherOptions(), &cache,
      [&](std::uint64_t ticket, util::Result<data::Dataset> rows_out) {
        std::lock_guard<std::mutex> lock(mutex);
        ok = ok && rows_out.ok();
        done_ticket = ticket;
        cv.notify_one();
      });
  batcher.Start();
  std::uint64_t ticket = 0;
  const double ns = MedianCallNs(
      [&] {
        serve::SampleJob job;
        job.ticket = ++ticket;
        job.model = "m";
        job.package = pkg;
        job.n = rows;
        job.has_seed = true;
        job.seed = ticket;
        if (!batcher.Enqueue(std::move(job))) {
          result->Fail("probe Batcher::Enqueue refused");
          return;
        }
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return done_ticket == ticket; });
      },
      kProbeSeconds * 4);
  batcher.Stop();
  if (!ok) result->Fail("probe batcher job failed");
  result->Set("serve.batcher.turnaround_us", ns * 1e-3, "us");
}

}  // namespace

void RunProbes(const TrainOutput& trained, Result* result) {
  ProbeEncodingPhase(trained, result);
  ProbeGemm(trained, result);
  ProbeDpSgd(trained, result);
  auto loaded = core::ReleasePackage::Load(trained.package_path);
  if (!loaded.ok()) {
    result->Fail("probe: release does not load");
    return;
  }
  const auto pkg =
      std::make_shared<const core::ReleasePackage>(std::move(*loaded));
  ProbeDecode(*pkg, kRowsPerRequest, result);
  ProbeApiAndHttp(*pkg, kRowsPerRequest, result);
  ProbeBatcher(pkg, kRowsPerRequest, result);
}

}  // namespace perfbench
}  // namespace p3gm
