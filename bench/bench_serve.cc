// Serving throughput in two layers:
//
//  1. Engine: 8 producer threads drive the request Batcher directly
//     (no sockets), comparing max_batch=1 against coalesced passes.
//     Each completion formats its response body, as the server does on
//     the batcher thread, so the scenario ends where the socket write
//     would begin.
//     This isolates what batching actually buys: the per-pass fixed
//     cost — executor wakeup, queue pop, trace span, metrics, matrix
//     setup, and the decoder pass preamble — is paid once per batch
//     instead of once per request, and on multi-core hosts the stacked
//     pass additionally clears the row-parallel gemm grain that
//     single-request passes sit below.
//  2. End to end: the same comparison over real TCP with 8 concurrent
//     keep-alive HTTP clients. On single-core hosts this is bounded by
//     per-request socket I/O (which batching cannot remove), so the
//     end-to-end ratio is a floor for what multi-core deployments see.
//
// Emits BENCH_serve.json for the tools/bench_compare regression gate.

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/release.h"
#include "serve/api.h"
#include "serve/batcher.h"
#include "serve/client.h"
#include "serve/sample_cache.h"
#include "serve/server.h"
#include "stats/gmm.h"
#include "util/csv.h"

namespace p3gm {
namespace bench {
namespace {

// A serving-scale decoder (latent 12 -> hidden 256 -> 40 outputs incl.
// a 2-class one-hot block); weights are fixed pseudo-random so the run
// is reproducible without a training pipeline.
core::ReleasePackage MakeServePackage() {
  const std::size_t dl = 12, h = 256, d = 40;
  linalg::Matrix w1(dl, h), b1(1, h), w2(h, d), b2(1, d);
  std::uint64_t state = 0x243f6a8885a308d3ull;
  auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return static_cast<double>(state % 2000) / 1000.0 - 1.0;
  };
  for (std::size_t i = 0; i < dl; ++i) {
    for (std::size_t j = 0; j < h; ++j) w1(i, j) = 0.2 * next();
  }
  for (std::size_t j = 0; j < h; ++j) b1(0, j) = 0.05 * next();
  for (std::size_t i = 0; i < h; ++i) {
    for (std::size_t j = 0; j < d; ++j) w2(i, j) = 0.2 * next();
  }
  for (std::size_t j = 0; j < d; ++j) b2(0, j) = 0.05 * next();
  linalg::Matrix means(3, dl), variances(3, dl, 0.7);
  for (std::size_t k = 0; k < 3; ++k) {
    for (std::size_t j = 0; j < dl; ++j) {
      means(k, j) = static_cast<double>(k) - 1.0;
    }
  }
  auto prior = stats::GaussianMixture::Create({0.3, 0.3, 0.4}, means,
                                              variances);
  P3GM_CHECK(prior.ok());
  auto pkg = core::ReleasePackage::FromParts(
      "bench", /*num_classes=*/2, core::DecoderType::kBernoulli,
      std::move(*prior), std::move(w1), std::move(b1), std::move(w2),
      std::move(b2));
  P3GM_CHECK(pkg.ok());
  return std::move(*pkg);
}

// A minimal decoder (latent 2 -> hidden 4 -> 4 outputs) for the engine
// section: with per-row compute this small, throughput is bound by the
// per-pass dispatch cost — the quantity batching amortizes — rather
// than by the decoder arithmetic.
core::ReleasePackage MakeDispatchPackage() {
  const std::size_t dl = 2, h = 4, d = 4;
  linalg::Matrix w1(dl, h, 0.1), b1(1, h, 0.0), w2(h, d, 0.1),
      b2(1, d, 0.0);
  linalg::Matrix means(2, dl), variances(2, dl, 0.5);
  means(0, 0) = -1.0;
  means(1, 0) = 1.0;
  auto prior = stats::GaussianMixture::Create({0.5, 0.5}, means, variances);
  P3GM_CHECK(prior.ok());
  auto pkg = core::ReleasePackage::FromParts(
      "bench", /*num_classes=*/2, core::DecoderType::kBernoulli,
      std::move(*prior), std::move(w1), std::move(b1), std::move(w2),
      std::move(b2));
  P3GM_CHECK(pkg.ok());
  return std::move(*pkg);
}

struct ScenarioResult {
  double seconds = 0.0;
  double requests_per_second = 0.0;
  int errors = 0;
};

// Engine-level scenario: `producers` threads submit `jobs_per_producer`
// single-model sample jobs straight into a Batcher and the run is timed
// until every completion has formatted its response body.
ScenarioResult RunEngineScenario(
    std::shared_ptr<const core::ReleasePackage> pkg,
    const std::string& section, std::size_t max_batch, int producers,
    int jobs_per_producer, std::size_t rows_per_job) {
  serve::BatcherOptions options;
  options.max_batch_requests = max_batch;
  serve::SampleCache cache(0);

  const int total = producers * jobs_per_producer;
  // Room for the whole workload: producers hand off and get out of the
  // way instead of yield-spinning against the executor for the CPU,
  // which would turn scheduler luck into measurement noise.
  options.queue_limit = static_cast<std::size_t>(total) + 1;
  std::mutex done_mutex;
  std::condition_variable done_cv;
  std::atomic<int> completed{0};
  std::atomic<int> errors{0};

  serve::Batcher batcher(
      options, &cache,
      [&](std::uint64_t, util::Result<data::Dataset> result) {
        std::string body;
        if (!result.ok() || result->size() != rows_per_job ||
            !serve::AppendSampleResponseJson("bench", 1, false, *result,
                                             &body)
                 .ok()) {
          errors.fetch_add(1);
        }
        // Lock-free on the hot path; only the last completion takes the
        // mutex to publish the wakeup.
        if (completed.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            total) {
          std::lock_guard<std::mutex> lock(done_mutex);
          done_cv.notify_one();
        }
      });
  batcher.Start();

  ScenarioResult out;
  {
    Section timer(section);
    std::vector<std::thread> threads;
    threads.reserve(producers);
    for (int p = 0; p < producers; ++p) {
      threads.emplace_back([&, p] {
        for (int j = 0; j < jobs_per_producer; ++j) {
          serve::SampleJob job;
          job.ticket =
              static_cast<std::uint64_t>(p) * jobs_per_producer + j;
          job.model = "bench";
          job.package = pkg;
          job.n = rows_per_job;
          job.stream_index = job.ticket;
          while (!batcher.Enqueue(job)) std::this_thread::yield();
        }
      });
    }
    for (std::thread& t : threads) t.join();
    std::unique_lock<std::mutex> lock(done_mutex);
    done_cv.wait(lock, [&] {
      return completed.load(std::memory_order_acquire) == total;
    });
    out.seconds = timer.Stop();
  }
  batcher.Stop();
  out.errors = errors.load();
  out.requests_per_second =
      out.seconds > 0 ? (total - out.errors) / out.seconds : 0.0;
  return out;
}

// End-to-end scenario: `clients` keep-alive HTTP connections each fire
// `requests` sample requests of `rows_per_request` rows against a fresh
// server with the given batching width.
ScenarioResult RunHttpScenario(const std::string& pkg_path,
                               const std::string& section,
                               std::size_t max_batch, int clients,
                               int requests, int rows_per_request) {
  serve::ServerOptions options;
  options.port = 0;
  options.max_batch = max_batch;
  options.queue_limit = 1024;
  serve::Server server(options);
  P3GM_CHECK(server.Init({pkg_path}).ok());
  P3GM_CHECK(server.Start().ok());

  const std::string body = "{\"model\": \"bench\", \"n\": " +
                           std::to_string(rows_per_request) + "}";
  std::atomic<int> errors{0};
  ScenarioResult result;
  {
    Section timer(section);
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&] {
        serve::HttpClient client;
        if (!client.Connect("127.0.0.1", server.port()).ok()) {
          errors.fetch_add(requests);
          return;
        }
        for (int r = 0; r < requests; ++r) {
          auto response = client.Post("/v1/sample", body);
          if (!response.ok() || response->status != 200) {
            errors.fetch_add(1);
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    result.seconds = timer.Stop();
  }
  server.Stop();
  result.errors = errors.load();
  const int total = clients * requests;
  result.requests_per_second =
      result.seconds > 0 ? (total - result.errors) / result.seconds : 0.0;
  return result;
}

double Ratio(const ScenarioResult& batched,
             const ScenarioResult& unbatched) {
  return unbatched.requests_per_second > 0
             ? batched.requests_per_second / unbatched.requests_per_second
             : 0.0;
}

void PrintScenarioRow(const char* name, const ScenarioResult& r) {
  std::printf("%-26s %10.3f %14.1f %8d\n", name, r.seconds,
              r.requests_per_second, r.errors);
}

}  // namespace
}  // namespace bench
}  // namespace p3gm

int main() {
  using namespace p3gm;  // NOLINT(build/namespaces)

  bench::BenchRun run("serve");
  bench::PrintTitle("p3gm serve: batched vs unbatched sample throughput");

  const int kClients = 8;
  const int kEngineJobs = bench::SmokeMode() ? 4000 : 20000;
  const int kHttpRequests = bench::SmokeMode() ? 40 : 400;
  const std::size_t kEngineRows = 1;
  const int kHttpRows = 16;
  const std::size_t kMaxBatch = 16;
  const std::size_t kEngineBatch = 32;

  auto pkg = std::make_shared<const core::ReleasePackage>(
      bench::MakeServePackage());
  // The registry serves each package under its file basename.
  const std::string pkg_path = "bench.release";
  P3GM_CHECK(pkg->Save(pkg_path).ok());

  // --- Engine: batcher throughput without sockets. Single-row jobs on a
  // minimal decoder make the per-pass dispatch cost the dominant term,
  // which is exactly the cost batching exists to amortize.
  auto dispatch_pkg = std::make_shared<const core::ReleasePackage>(
      bench::MakeDispatchPackage());
  (void)bench::RunEngineScenario(dispatch_pkg, "serve/warmup_engine",
                                 kEngineBatch, kClients, kEngineJobs / 4,
                                 kEngineRows);
  // Best-of-3 per configuration, interleaved: short dispatch-bound
  // windows are scheduler-noise-prone, and the best rep is the standard
  // estimate of the noise-free cost.
  bench::ScenarioResult engine_unbatched, engine_batched;
  for (int rep = 0; rep < 3; ++rep) {
    const auto u = bench::RunEngineScenario(
        dispatch_pkg, "serve/engine_unbatched", 1, kClients, kEngineJobs,
        kEngineRows);
    const auto b = bench::RunEngineScenario(
        dispatch_pkg, "serve/engine_batched", kEngineBatch, kClients,
        kEngineJobs, kEngineRows);
    if (u.requests_per_second > engine_unbatched.requests_per_second ||
        u.errors > 0) {
      engine_unbatched = u;
    }
    if (b.requests_per_second > engine_batched.requests_per_second ||
        b.errors > 0) {
      engine_batched = b;
    }
  }
  const double engine_ratio = bench::Ratio(engine_batched,
                                           engine_unbatched);

  // --- End to end: the same comparison over real TCP. Interleave
  // warmups so transient machine load biases neither configuration.
  (void)bench::RunHttpScenario(pkg_path, "serve/warmup_http_unbatched", 1,
                               kClients, kHttpRequests / 4, kHttpRows);
  (void)bench::RunHttpScenario(pkg_path, "serve/warmup_http_batched",
                               kMaxBatch, kClients, kHttpRequests / 4,
                               kHttpRows);
  const auto http_unbatched = bench::RunHttpScenario(
      pkg_path, "serve/http_unbatched", 1, kClients, kHttpRequests,
      kHttpRows);
  const auto http_batched = bench::RunHttpScenario(
      pkg_path, "serve/http_batched", kMaxBatch, kClients, kHttpRequests,
      kHttpRows);
  const double http_ratio = bench::Ratio(http_batched, http_unbatched);

  std::printf("%-26s %10s %14s %8s\n", "scenario", "seconds", "req/s",
              "errors");
  bench::PrintScenarioRow("engine unbatched", engine_unbatched);
  bench::PrintScenarioRow("engine batched", engine_batched);
  bench::PrintScenarioRow("http unbatched", http_unbatched);
  bench::PrintScenarioRow("http batched", http_batched);
  bench::PrintRule();
  std::printf("batching speedup: %.2fx requests/sec at %d concurrent "
              "clients (engine, max_batch=%zu)\n",
              engine_ratio, kClients, kEngineBatch);
  std::printf("end-to-end http speedup: %.2fx requests/sec at %d clients "
              "(threads=%zu; single-core hosts are bounded by per-request "
              "socket I/O)\n",
              http_ratio, kClients, util::NumThreads());
  P3GM_CHECK_MSG(engine_unbatched.errors == 0 &&
                     engine_batched.errors == 0 &&
                     http_unbatched.errors == 0 && http_batched.errors == 0,
                 "serve bench saw failed requests");

  util::CsvWriter csv("bench_serve.csv");
  csv.WriteRow({"scenario", "seconds", "requests_per_second", "errors"});
  auto write = [&csv](const char* name, const bench::ScenarioResult& r) {
    csv.WriteRow({name, util::FormatDouble(r.seconds, 6),
                  util::FormatDouble(r.requests_per_second, 2),
                  std::to_string(r.errors)});
  };
  write("engine_unbatched", engine_unbatched);
  write("engine_batched", engine_batched);
  write("http_unbatched", http_unbatched);
  write("http_batched", http_batched);
  csv.WriteRow({"engine_speedup", util::FormatDouble(engine_ratio, 4), "",
                ""});
  csv.WriteRow({"http_speedup", util::FormatDouble(http_ratio, 4), "", ""});
  run.AppendRunInfo(&csv);
  ::unlink(pkg_path.c_str());
  return 0;
}
