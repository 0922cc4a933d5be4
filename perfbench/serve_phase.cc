// Serve phase: the `p3gm serve` path. An in-process serve::Server on an
// ephemeral port serves the release the train phase saved; `clients`
// keep-alive closed-loop clients (each waits for its reply before sending
// the next request) POST /v1/sample with the workload's row count. A
// request that fails or is refused counts as +infinity in the latency
// percentiles. After the timed window a fixed set of seeded requests is
// checked value by value against the decoder run in-process.

#include <pthread.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>
#include <thread>

#include "bench.h"
#include "core/release.h"
#include "obs/json.h"
#include "obs/observability.h"
#include "obs/registry.h"
#include "serve/client.h"
#include "serve/server.h"
#include "util/rng.h"

namespace p3gm {
namespace perfbench {

namespace {

constexpr int kSetupReps = 51;
constexpr double kSliceSeconds = 1.0;
constexpr double kWarmupSeconds = 0.3;
constexpr double kHealthTimeoutSeconds = 5.0;
constexpr int kCheckRequests = 4;
constexpr double kInf = std::numeric_limits<double>::infinity();
const char kHost[] = "127.0.0.1";

// One request as the client saw it: completion time and latency
// (+infinity when it failed or was refused).
struct Sample {
  double end_s = 0.0;
  double latency_ms = 0.0;
};

struct ClientTally {
  std::vector<Sample> samples;
  std::uint64_t connects = 0;
};

// The clients run on the second half of the cores; the server's threads
// have the first half (RunServePhase).
std::size_t ClientCores() { return Cores() - Cores() / 2; }

void ClientLoop(int port, const std::string& body, std::size_t index,
                const std::atomic<bool>* stop, ClientTally* tally) {
  const std::size_t half = Cores() / 2;
  if (half > 0) PinThread(0, half + index % ClientCores());
  serve::HttpClient client;
  while (!stop->load(std::memory_order_relaxed)) {
    const double t0 = NowSeconds();
    if (!client.connected()) {
      ++tally->connects;
      if (!client.Connect(kHost, port).ok()) {
        tally->samples.push_back({NowSeconds(), kInf});
        continue;
      }
    }
    auto response = client.Post("/v1/sample", body);
    const bool ok = response.ok() && response->status == 200;
    if (!response.ok()) client.Close();
    const double now = NowSeconds();
    tally->samples.push_back({now, ok ? (now - t0) * 1e3 : kInf});
  }
}

// One closed-loop window cut into equal slices. Each slice yields its own
// rate, latency percentiles and server CPU per request; the window
// reports the median slice, so a short stall on a shared host moves one
// slice, not the result.
struct Window {
  std::vector<double> rps, p50_ms, p99_ms, server_cpu_us;  // Per slice.
  std::vector<double> latency_ms;  // Every request inside the window.
  std::uint64_t ok = 0;               // Inside the window.
  std::uint64_t attempted_total = 0;  // Including requests past its end.
  std::uint64_t failed_total = 0;
  std::uint64_t connects = 0;
  double client_cpu_s = 0.0;
};

double ThreadCpuOf(std::thread& t) {
  clockid_t id;
  timespec ts{};
  if (pthread_getcpuclockid(t.native_handle(), &id) != 0 ||
      clock_gettime(id, &ts) != 0) {
    return 0.0;
  }
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

Window RunWindow(int port, const std::string& body, std::size_t clients,
                 double seconds, int slices) {
  std::vector<ClientTally> tallies(clients);
  std::atomic<bool> stop{false};
  const double slice_s = seconds / slices;
  std::vector<double> process_cpu = {ProcessCpuSeconds()};
  std::vector<double> client_cpu = {0.0};
  const double t0 = NowSeconds();
  std::vector<double> bounds = {t0};  // Slice edges as actually sampled.
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back(ClientLoop, port, std::cref(body), c, &stop,
                         &tallies[c]);
  }
  for (int k = 1; k <= slices; ++k) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(t0 + k * slice_s - NowSeconds()));
    bounds.push_back(NowSeconds());
    process_cpu.push_back(ProcessCpuSeconds());
    double cpu = 0.0;
    for (std::thread& t : threads) cpu += ThreadCpuOf(t);
    client_cpu.push_back(cpu);
  }
  stop.store(true);
  for (std::thread& t : threads) t.join();

  Window w;
  w.client_cpu_s = client_cpu.back();
  std::vector<std::vector<double>> by_slice(slices);
  for (const ClientTally& tally : tallies) {
    w.connects += tally.connects;
    for (const Sample& s : tally.samples) {
      const bool ok = std::isfinite(s.latency_ms);
      ++w.attempted_total;
      if (!ok) ++w.failed_total;
      const int k = static_cast<int>(
          std::upper_bound(bounds.begin(), bounds.end(), s.end_s) -
          bounds.begin()) - 1;
      if (k < 0 || k >= slices) continue;
      by_slice[k].push_back(s.latency_ms);
      w.latency_ms.push_back(s.latency_ms);
      if (ok) ++w.ok;
    }
  }
  for (int k = 0; k < slices; ++k) {
    const auto& lat = by_slice[k];
    const double ok = static_cast<double>(std::count_if(
        lat.begin(), lat.end(), [](double v) { return std::isfinite(v); }));
    w.rps.push_back(ok / (bounds[k + 1] - bounds[k]));
    w.p50_ms.push_back(Percentile(lat, 0.50));
    w.p99_ms.push_back(Percentile(lat, 0.99));
    const double server_cpu = (process_cpu[k + 1] - process_cpu[k]) -
                              (client_cpu[k + 1] - client_cpu[k]);
    w.server_cpu_us.push_back(ok > 0 ? server_cpu / ok * 1e6 : kInf);
  }
  return w;
}

bool WaitHealthy(int port) {
  const double deadline = NowSeconds() + kHealthTimeoutSeconds;
  while (NowSeconds() < deadline) {
    auto r = serve::FetchOnce(kHost, port, "GET", "/healthz");
    if (r.ok() && r->status == 200) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

// Server-side /v1/sample latency quantile (ms) and mean coalesced batch
// size from a /v1/metrics JSON scrape.
struct ServerView {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double batch_requests_mean = 0.0;
};

obs::HistogramSample ToHistogram(const obs::json::Value& v) {
  obs::HistogramSample h;
  h.count = static_cast<std::uint64_t>(v.NumberOr("count", 0));
  h.sum = v.NumberOr("sum", 0);
  if (const auto* b = v.Find("bounds")) {
    for (const auto& x : b->items) h.bounds.push_back(x.number_value);
  }
  if (const auto* b = v.Find("bucket_counts")) {
    for (const auto& x : b->items) {
      h.bucket_counts.push_back(static_cast<std::uint64_t>(x.number_value));
    }
  }
  return h;
}

std::optional<ServerView> ScrapeServer(int port) {
  auto r = serve::FetchOnce(kHost, port, "GET", "/v1/metrics");
  if (!r.ok() || r->status != 200) return std::nullopt;
  obs::json::Value root;
  std::string error;
  if (!obs::json::Parse(r->body, &root, &error)) return std::nullopt;
  const obs::json::Value* hists = root.Find("histograms");
  if (hists == nullptr) return std::nullopt;
  const obs::json::Value* latency =
      hists->Find("serve.request.latency_seconds{endpoint=\"/v1/sample\"}");
  const obs::json::Value* batch = hists->Find("serve.batch.requests");
  if (latency == nullptr || batch == nullptr) return std::nullopt;
  ServerView view;
  const obs::HistogramSample h = ToHistogram(*latency);
  view.p50_ms = h.Quantile(0.5) * 1e3;
  view.p99_ms = h.Quantile(0.99) * 1e3;
  const obs::HistogramSample b = ToHistogram(*batch);
  view.batch_requests_mean =
      b.count > 0 ? b.sum / static_cast<double>(b.count) : 0.0;
  return view;
}

// Seeded requests answered by the daemon must equal, value for value,
// SampleLatent -> DecodeLatent -> AssembleRows run in-process on
// util::Rng(seed). Values are compared as parsed doubles, not bytes.
bool CheckSeeded(int port, const std::string& model,
                 const core::ReleasePackage& pkg, std::uint64_t seed,
                 std::size_t n, std::string* why) {
  const std::string body = "{\"model\": \"" + model +
                           "\", \"n\": " + std::to_string(n) +
                           ", \"seed\": " + std::to_string(seed) + "}";
  auto r = serve::FetchOnce(kHost, port, "POST", "/v1/sample", body);
  if (!r.ok() || r->status != 200) {
    *why = "seeded request failed";
    return false;
  }
  obs::json::Value root;
  std::string error;
  if (!obs::json::Parse(r->body, &root, &error)) {
    *why = "seeded response is not JSON: " + error;
    return false;
  }
  util::Rng rng(seed);
  auto decoded = pkg.DecodeLatent(pkg.SampleLatent(n, &rng));
  if (!decoded.ok()) {
    *why = "in-process decode failed";
    return false;
  }
  const data::Dataset expected = pkg.AssembleRows(std::move(*decoded));
  const obs::json::Value* rows = root.Find("rows");
  const obs::json::Value* labels = root.Find("labels");
  if (rows == nullptr || labels == nullptr || rows->items.size() != n ||
      labels->items.size() != n) {
    *why = "seeded response has the wrong shape";
    return false;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const auto& row = rows->items[i].items;
    if (row.size() != expected.dim() ||
        labels->items[i].number_value !=
            static_cast<double>(expected.labels[i])) {
      *why = "seeded response row shape or label differs";
      return false;
    }
    for (std::size_t j = 0; j < row.size(); ++j) {
      if (row[j].number_value != expected.features(i, j)) {
        *why = "seeded response value differs from the in-process decoder";
        return false;
      }
    }
  }
  return true;
}

}  // namespace

void RunServePhase(const RunConfig& config, const TrainOutput& trained,
                   Result* result) {
  const Workload& w = config.workload;
  const bool primary = !w.train_primary;
  // Train workloads serve their release for a third of the run.
  const double seconds = primary ? config.seconds : config.seconds / 3;
  const std::string model =
      std::filesystem::path(trained.package_path).stem().string();

  // Load-generator health: each client thread (one connection each) needs
  // a core of its own among the cores the clients are pinned to
  // (ClientLoop), or the run measures the client.
  const std::size_t cores = Cores();
  if (kClients > ClientCores()) {
    result->Fail("load generator has more client threads than client cores");
    return;
  }

  // Set-up: Server::Init + Start until /healthz answers; median of reps,
  // the last server stays up for the timed window.
  obs::SetEnabled(config.trace);
  std::vector<double> setup_s;
  std::unique_ptr<serve::Server> server;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (server) server->Stop();
    server = std::make_unique<serve::Server>(serve::ServerOptions());
    util::Status status;
    bool healthy = false;
    const std::vector<int> before = ThreadIds();
    setup_s.push_back(Timed("serve.setup", [&] {
      status = server->Init({trained.package_path});
      if (status.ok()) status = server->Start();
      if (status.ok()) healthy = WaitHealthy(server->port());
    }));
    if (!status.ok() || !healthy) {
      result->Fail("server set-up: " + status.ToString());
      return;
    }
    // The threads Start spawned (event loop, batcher) get a core each in
    // the first half of the cores.
    std::size_t next = 0;
    for (int tid : ThreadIds()) {
      if (cores < 2 ||
          std::find(before.begin(), before.end(), tid) != before.end()) {
        continue;
      }
      PinThread(tid, next++ % (cores / 2));
    }
  }
  obs::SetEnabled(false);
  const int port = server->port();
  const std::string body = "{\"model\": \"" + model +
                           "\", \"n\": " + std::to_string(kRowsPerRequest) +
                           "}";

  RunWindow(port, body, kClients, kWarmupSeconds, 1);
  if (primary) ResetPeakRss();
  // A traced run spends half the window untraced and half traced, so the
  // tracing overhead is measured on the same server.
  const int slices = std::max(1, static_cast<int>(seconds / kSliceSeconds));
  const Window plain = RunWindow(port, body, kClients,
                                 config.trace ? seconds / 2 : seconds,
                                 config.trace ? std::max(1, slices / 2) : slices);
  std::optional<Window> traced;
  std::optional<ServerView> view;
  if (config.trace) {
    obs::Registry::Global().Reset();
    obs::SetEnabled(true);
    result->serve_window.start_ns = obs::NowNs();
    traced = RunWindow(port, body, kClients, seconds / 2,
                       std::max(1, slices / 2));
    result->serve_window.end_ns = obs::NowNs();
    result->serve_window.ops = static_cast<double>(traced->ok);
    view = ScrapeServer(port);
    obs::SetEnabled(false);
    if (!view) result->Fail("/v1/metrics scrape lacks the serve histograms");
  }
  const double peak_rss = PeakRssMb();

  // Output checks (untimed): seeded requests against the in-process path.
  auto pkg = core::ReleasePackage::Load(trained.package_path);
  if (!pkg.ok()) {
    result->Fail("release does not load for the serve check");
  } else {
    for (int k = 0; k < kCheckRequests; ++k) {
      const std::size_t n = k + 1 < kCheckRequests ? kRowsPerRequest : 3;
      std::string why;
      ++result->attempted;
      if (!CheckSeeded(port, model, *pkg, config.seed * 1000 + k, n, &why)) {
        ++result->failed;
        result->Fail(why);
      }
    }
  }
  server->Stop();

  result->attempted += plain.attempted_total;
  result->failed += plain.failed_total;
  if (traced) {
    result->attempted += traced->attempted_total;
    result->failed += traced->failed_total;
  }
  const Window& m = plain;
  if (m.ok == 0) {
    result->Fail("no request completed");
    return;
  }
  if (!config.trace) {
    if (primary) {
      result->Set("setup_s", Median(setup_s), "s");
      result->Set("peak_rss_mb", peak_rss, "MB");
    }
    result->Set("serve_rps", Median(m.rps), "1/s");
    result->Set("serve_p50_ms", Median(m.p50_ms), "ms");
    result->Set("serve_cpu_us_per_req", Median(m.server_cpu_us), "us");
    return;
  }

  const Window& t = *traced;
  const double traced_ok = static_cast<double>(std::max<std::uint64_t>(1, t.ok));
  result->Set("serve.samples", static_cast<double>(t.latency_ms.size()),
              "count");
  result->Set("client.cpu_us_per_req", t.client_cpu_s / traced_ok * 1e6, "us");
  result->Set("client.threads", static_cast<double>(kClients), "count");
  result->Set("client.connections",
              static_cast<double>(std::max(t.connects, m.connects)), "count");
  result->Set("serve.setup_s", Median(setup_s), "s");
  result->Set("serve.client.p99_ms", Median(t.p99_ms), "ms");
  const double client_p50 = Percentile(t.latency_ms, 0.50);
  if (view) {
    result->Set("serve.server.p50_ms", view->p50_ms, "ms");
    result->Set("serve.server.p99_ms", view->p99_ms, "ms");
    result->Set("serve.server_share", view->p50_ms / client_p50, "ratio");
    result->Set("serve.batch.requests_mean", view->batch_requests_mean,
                "count");
  }
  if (primary) {
    result->Set("trace.overhead_pct",
                100.0 * (Median(m.rps) / Median(t.rps) - 1.0), "%");
  }
}

}  // namespace perfbench
}  // namespace p3gm
