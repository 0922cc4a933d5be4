#include "serve/server.h"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <fstream>
#include <utility>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include "obs/build_info.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/observability.h"
#include "obs/perf/alloc.h"
#include "obs/process_stats.h"
#include "obs/profile/heap.h"
#include "obs/profile/profiler.h"
#include "obs/prometheus.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "serve/api.h"
#include "util/logging.h"
#include "util/string_utils.h"

namespace p3gm {
namespace serve {

namespace {

// Latency buckets from 100us to 3s; the histogram powers the /v1/metrics
// p50/p99 readout and bench_serve's latency report.
const std::vector<double> kLatencyBounds = {1e-4, 3e-4, 1e-3, 3e-3, 1e-2,
                                            3e-2, 0.1,  0.3,  1.0,  3.0};
// Per-stage buckets (serve.stage.*_seconds) reach down to 10us: a
// write is one syscall, a small response formats in microseconds.
const std::vector<double> kStageBounds = {1e-5, 3e-5, 1e-4, 3e-4,
                                          1e-3, 3e-3, 1e-2, 3e-2,
                                          0.1,  0.3,  1.0};

int SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0) return -1;
  return fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

int StatusToHttp(const util::Status& status) {
  switch (status.code()) {
    case util::StatusCode::kInvalidArgument:
    case util::StatusCode::kOutOfRange:
      return 400;
    case util::StatusCode::kNotFound:
      return 404;
    default:
      return 500;
  }
}

HttpResponse JsonResponse(int status, std::string body) {
  HttpResponse response;
  response.status = status;
  response.body = std::move(body);
  return response;
}

void AddTraceHeaders(const obs::TraceContext& trace, HttpResponse* response) {
  response->extra_headers.emplace_back("X-Request-Id",
                                       obs::TraceIdHex(trace));
  response->extra_headers.emplace_back("traceparent",
                                       obs::FormatTraceparent(trace));
}

// The serialize stage. Fresh answers (batcher thread) and cache hits
// (loop thread) share it, so both get the same bytes, span and
// histogram. A block holding a non-finite value becomes a 500.
HttpResponse SampleResponse(const std::string& model,
                            std::uint64_t generation, bool cached,
                            const data::Dataset& rows) {
  static obs::Histogram* stage = obs::Registry::Global().histogram(
      "serve.stage.serialize_seconds", kStageBounds);
  P3GM_TRACE_SPAN("serve.serialize");
  const std::uint64_t start_ns = obs::NowNs();
  HttpResponse response;
  const util::Status status = AppendSampleResponseJson(
      model, generation, cached, rows, &response.body);
  if (!status.ok()) {
    P3GM_LOG(Warning) << "p3gm serve: model \"" << model
                      << "\": " << status.message();
    response = JsonResponse(500, ErrorJson(status.message()));
  }
  stage->Observe(static_cast<double>(obs::NowNs() - start_ns) * 1e-9);
  return response;
}

std::string ModelsJson(const ModelRegistry& registry) {
  std::string out = "{\"generation\": " +
                    std::to_string(registry.generation()) +
                    ", \"models\": [";
  bool first = true;
  for (const ModelInfo& info : registry.List()) {
    if (!first) out += ", ";
    first = false;
    out += "{\"name\": \"" + obs::json::Escape(info.name) + "\"";
    out += ", \"latent_dim\": " + std::to_string(info.latent_dim);
    out += ", \"feature_dim\": " + std::to_string(info.feature_dim);
    out += ", \"num_classes\": " + std::to_string(info.num_classes);
    out += ", \"decoder\": \"" + info.decoder + "\"}";
  }
  out += "]}";
  return out;
}

// The one process-wide signal target. Handlers only touch atomics and a
// pipe write, both async-signal-safe.
std::atomic<Server*> g_signal_server{nullptr};

void HandleStopSignal(int) {
  if (Server* server = g_signal_server.load(std::memory_order_acquire)) {
    server->RequestStop();
  }
}

void HandleReloadSignal(int) {
  if (Server* server = g_signal_server.load(std::memory_order_acquire)) {
    server->RequestReload();
  }
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      quality_(options_.quality),
      cache_(options_.cache_entries) {
  BatcherOptions batch_options;
  batch_options.max_batch_requests = std::max<std::size_t>(1,
                                                           options_.max_batch);
  batch_options.max_batch_rows = options_.max_batch_rows;
  batch_options.queue_limit = options_.queue_limit;
  batch_options.server_seed = options_.seed;
  if (quality_.enabled()) {
    batch_options.decode_observer = [this](const std::string& model,
                                           const linalg::Matrix& outputs) {
      quality_.ObserveDecoded(model, outputs);
    };
  }
  batcher_ = std::make_unique<Batcher>(
      batch_options, &cache_,
      [this](std::uint64_t ticket, util::Result<data::Dataset> result) {
        CompleteSample(ticket, std::move(result));
      });
}

Server::~Server() {
  Stop();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
}

util::Status Server::Init(const std::vector<std::string>& package_paths) {
  if (initialized_) {
    return util::Status::FailedPrecondition("Server: Init called twice");
  }
  // An empty package set is a valid cold start (mid-rollout, models
  // arrive via reload): /healthz reports zero models and the scrape
  // endpoints answer 503 + Retry-After until something loads.
  if (!package_paths.empty()) {
    P3GM_RETURN_NOT_OK(registry_.LoadPaths(package_paths));
  }
  quality_.Rebuild(registry_);

  int fds[2];
  if (::pipe(fds) != 0) {
    return util::Status::IoError("Server: pipe() failed");
  }
  wake_read_fd_ = fds[0];
  wake_write_fd_ = fds[1];
  SetNonBlocking(wake_read_fd_);
  SetNonBlocking(wake_write_fd_);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return util::Status::IoError("Server: socket() failed");
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return util::Status::InvalidArgument("Server: bad host \"" +
                                         options_.host + "\"");
  }
  if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof addr) != 0) {
    return util::Status::IoError("Server: bind(" + options_.host + ":" +
                                 std::to_string(options_.port) +
                                 ") failed: " + std::strerror(errno));
  }
  if (::listen(listen_fd_, 128) != 0) {
    return util::Status::IoError("Server: listen() failed");
  }
  SetNonBlocking(listen_fd_);
  struct sockaddr_in bound;
  socklen_t bound_len = sizeof bound;
  if (::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&bound),
                    &bound_len) == 0) {
    bound_port_ = ntohs(bound.sin_port);
  }
  initialized_ = true;
  return util::Status::OK();
}

util::Status Server::Start() {
  std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  if (!initialized_) {
    return util::Status::FailedPrecondition("Server: Start before Init");
  }
  if (running_.load(std::memory_order_acquire)) {
    return util::Status::FailedPrecondition("Server: already running");
  }
  stop_requested_.store(false, std::memory_order_release);
  P3GM_ASSIGN_OR_RETURN(poller_, Poller::Create());
  P3GM_RETURN_NOT_OK(
      poller_->Add(listen_fd_, /*want_read=*/true, /*want_write=*/false));
  P3GM_RETURN_NOT_OK(
      poller_->Add(wake_read_fd_, /*want_read=*/true, /*want_write=*/false));
  batcher_->Start();
  running_.store(true, std::memory_order_release);
  loop_thread_ = std::thread([this] { LoopThread(); });
  P3GM_LOG(Info) << "p3gm serve: listening on " << options_.host << ":"
                 << bound_port_;
  // Self-describing startup: the build-info gauge makes every scrape
  // attributable to a binary, and the config line puts the effective
  // options in the incident log up front.
  obs::RegisterBuildInfoGauge();
  const obs::BuildInfo& build = obs::GetBuildInfo();
  P3GM_LOG(Info) << "p3gm serve: config version=" << build.version
                 << " git_sha=" << build.git_sha << " port=" << bound_port_
                 << " max_batch=" << options_.max_batch
                 << " max_batch_rows=" << options_.max_batch_rows
                 << " queue_limit=" << options_.queue_limit
                 << " cache_entries=" << options_.cache_entries
                 << " max_n=" << options_.max_n
                 << " quality=" << (quality_.enabled() ? "on" : "off")
                 << " quality_threshold=" << options_.quality.threshold
                 << " models=" << registry_.size();
  // Daemon-lifetime sampled heap profile behind the alloc-tracking
  // hooks: /v1/profile/heap snapshots it on demand. Already-running
  // (e.g. under the `p3gm profile` wrapper) and compiled-out are both
  // fine — the endpoint reports what it finds.
  if (obs::perf::AllocTrackingCompiledIn()) {
    const util::Status heap_status =
        obs::profile::HeapProfiler::Global().Start(
            obs::profile::HeapProfileOptions());
    if (!heap_status.ok() &&
        heap_status.code() != util::StatusCode::kFailedPrecondition) {
      P3GM_LOG(Warning) << "p3gm serve: heap profiler unavailable: "
                        << heap_status;
    }
  }
  return util::Status::OK();
}

void Server::Stop() {
  std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  if (!loop_thread_.joinable()) return;
  RequestStop();
  loop_thread_.join();
  batcher_->Stop();
  // The profile worker watches stop_requested_, so this join is bounded
  // by one 50ms sleep slice plus profiler teardown.
  if (profile_thread_.joinable()) profile_thread_.join();
  running_.store(false, std::memory_order_release);
}

void Server::WaitUntilStopped() {
  // The loop thread clears running_ as it exits; joining happens in
  // Stop() (or the destructor), so this only has to watch the flag.
  while (running_.load(std::memory_order_acquire)) {
    struct timespec ts = {0, 50 * 1000 * 1000};
    ::nanosleep(&ts, nullptr);
  }
}

void Server::RequestStop() {
  stop_requested_.store(true, std::memory_order_release);
  Wake();
}

void Server::RequestReload() {
  reload_requested_.store(true, std::memory_order_release);
  Wake();
}

void Server::InstallSignalHandlers(Server* server) {
  g_signal_server.store(server, std::memory_order_release);
  if (server == nullptr) return;
  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_handler = HandleStopSignal;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  sa.sa_handler = HandleReloadSignal;
  ::sigaction(SIGHUP, &sa, nullptr);
  ::signal(SIGPIPE, SIG_IGN);
}

void Server::Wake() {
  if (wake_write_fd_ < 0) return;
  const char byte = 'w';
  // Non-blocking; a full pipe already guarantees a pending wakeup.
  [[maybe_unused]] ssize_t rc = ::write(wake_write_fd_, &byte, 1);
}

void Server::LoopThread() {
  obs::Registry& registry = obs::Registry::Global();
  obs::Gauge* active = registry.gauge("serve.connections.active");
  std::vector<Poller::Event> events;
  const std::uint64_t drain_deadline_budget_ns =
      static_cast<std::uint64_t>(std::max(0, options_.drain_timeout_ms)) *
      1000000ull;
  std::uint64_t drain_started_ns = 0;
  bool accepting = true;

  for (;;) {
    const bool stopping = stop_requested_.load(std::memory_order_acquire);
    if (stopping && accepting) {
      accepting = false;
      poller_->Remove(listen_fd_);
      drain_started_ns = obs::NowNs();
    }
    if (stopping) {
      bool pending_out = false;
      for (const auto& [fd, conn] : connections_) {
        if (!conn->out.empty() || conn->awaiting_sample ||
            conn->awaiting_profile) {
          pending_out = true;
          break;
        }
      }
      const bool pending = pending_out || !ticket_to_fd_.empty();
      const bool deadline_hit =
          obs::NowNs() - drain_started_ns > drain_deadline_budget_ns;
      if (!pending || deadline_hit) break;
    }

    const int n = poller_->Wait(&events, /*timeout_ms=*/50);
    if (n < 0) break;
    for (const Poller::Event& ev : events) {
      if (ev.fd == listen_fd_) {
        if (accepting && ev.readable) AcceptNewConnections();
        continue;
      }
      if (ev.fd == wake_read_fd_) {
        char buf[64];
        while (::read(wake_read_fd_, buf, sizeof buf) > 0) {
        }
        continue;
      }
      const auto it = connections_.find(ev.fd);
      if (it == connections_.end()) continue;
      Connection* conn = it->second.get();
      if (ev.readable) HandleReadable(conn);
      if (connections_.count(ev.fd) == 0) continue;  // Closed above.
      if (ev.writable) HandleWritable(conn);
      if (connections_.count(ev.fd) == 0) continue;
      if (ev.error && !ev.readable) CloseConnection(ev.fd);
    }
    if (reload_requested_.exchange(false, std::memory_order_acq_rel)) {
      HttpResponse ignored = ReloadNow();
      (void)ignored;
    }
    DrainCompletions();
    DrainProfileCompletions();
    active->Set(static_cast<double>(connections_.size()));
  }

  // Teardown: force-close whatever is left.
  std::vector<int> fds;
  fds.reserve(connections_.size());
  for (const auto& [fd, conn] : connections_) fds.push_back(fd);
  for (const int fd : fds) CloseConnection(fd);
  ticket_to_fd_.clear();
  active->Set(0.0);
  running_.store(false, std::memory_order_release);
}

void Server::AcceptNewConnections() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or transient error — try next wakeup.
    SetNonBlocking(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    if (connections_.size() >= options_.max_connections) {
      static obs::Counter* overload =
          obs::Registry::Global().counter("serve.overload");
      overload->Add();
      HttpResponse busy;
      busy.status = 503;
      busy.extra_headers.emplace_back("Retry-After", "1");
      busy.body = ErrorJson("connection limit reached");
      busy.close_connection = true;
      const std::string wire = busy.Serialize();
      ::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL);
      ::close(fd);
      continue;
    }
    // An fd the poller cannot watch would never be woken yet would hold
    // a max_connections slot until drain; drop it now instead.
    if (const util::Status added =
            poller_->Add(fd, /*want_read=*/true, /*want_write=*/false);
        !added.ok()) {
      P3GM_LOG(Warning) << "p3gm serve: dropping connection: " << added;
      ::close(fd);
      continue;
    }
    connections_.emplace(fd, std::make_unique<Connection>(fd, options_.http));
  }
}

void Server::HandleReadable(Connection* conn) {
  char buf[8192];
  for (;;) {
    const ssize_t got = ::recv(conn->fd, buf, sizeof buf, 0);
    if (got > 0) {
      conn->parser.Feed(buf, static_cast<std::size_t>(got));
      if (conn->parser.failed()) break;
      if (static_cast<std::size_t>(got) < sizeof buf) break;
      continue;
    }
    if (got == 0) {  // Peer closed.
      CloseConnection(conn->fd);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConnection(conn->fd);
    return;
  }
  PumpRequests(conn);
}

void Server::PumpRequests(Connection* conn) {
  if (conn->parser.failed()) {
    static obs::Counter* bad =
        obs::Registry::Global().counter("serve.responses.4xx");
    bad->Add();
    HttpResponse response;
    response.status = conn->parser.error_status();
    response.body = ErrorJson(conn->parser.error_message());
    response.close_connection = true;
    Respond(conn, std::move(response));
    return;
  }
  // Serve pipelined requests until the parser runs dry or a sample
  // request parks the connection. ProcessRequest can close (and free)
  // the connection when a close-marked response flushes inline, so the
  // liveness check must key on the fd captured before the call.
  const int fd = conn->fd;
  while (!conn->awaiting_sample && !conn->awaiting_profile &&
         conn->parser.done() && !conn->close_after_write) {
    conn->request_start_ns = obs::NowNs();
    ProcessRequest(conn);
    if (connections_.count(fd) == 0) return;  // Closed.
    if (conn->awaiting_sample || conn->awaiting_profile) break;
    conn->parser.ResetForNext();
    if (conn->parser.failed()) {
      PumpRequests(conn);  // Report the pipelined parse error.
      return;
    }
  }
  UpdateInterest(conn);
}

void Server::ProcessRequest(Connection* conn) {
  const HttpRequest& req = conn->parser.request();

  // Trace identity first: ingest a W3C traceparent if the client sent a
  // valid one (joining its trace with a fresh local span), else mint a
  // root context. The scope makes it ambient for every span and log
  // record emitted while this request is on the stack.
  const std::string* traceparent = req.FindHeader("traceparent");
  if (traceparent == nullptr ||
      !obs::ParseTraceparent(*traceparent, &conn->trace)) {
    conn->trace = obs::MakeRootContext();
  }
  obs::RequestScope request_scope(conn->trace);
  obs::FlightRecorder::Global().Record(
      obs::FlightRecorder::EventKind::kRequest, "serve.request.begin",
      conn->trace.span_id, 0);
  P3GM_TRACE_SPAN("serve.request");

  obs::Registry& registry = obs::Registry::Global();
  static obs::Counter* total = registry.counter("serve.requests_total");
  total->Add();

  conn->close_after_write = !req.KeepAlive();

  if (req.method == "GET") {
    if (req.path == "/healthz") {
      conn->endpoint = "/healthz";
      Respond(conn, JsonResponse(
                        200, "{\"status\": \"ok\", \"models\": " +
                                 std::to_string(registry_.size()) +
                                 ", \"generation\": " +
                                 std::to_string(registry_.generation()) +
                                 "}"));
      return;
    }
    if (req.path == "/v1/models") {
      conn->endpoint = "/v1/models";
      Respond(conn, JsonResponse(200, ModelsJson(registry_)));
      return;
    }
    if (req.path == "/v1/metrics") {
      conn->endpoint = "/v1/metrics";
      Respond(conn, MetricsResponse(req));
      return;
    }
    if (req.path == "/v1/quality") {
      conn->endpoint = "/v1/quality";
      Respond(conn, QualityResponse());
      return;
    }
    if (req.path == "/v1/profile") {
      conn->endpoint = "/v1/profile";
      HandleProfile(conn, req);
      return;
    }
    if (req.path == "/v1/profile/heap") {
      conn->endpoint = "/v1/profile/heap";
      Respond(conn, ProfileHeapResponse());
      return;
    }
    Respond(conn, JsonResponse(404, ErrorJson("no such endpoint: " +
                                              req.target)));
    return;
  }
  if (req.method == "POST") {
    if (req.path == "/v1/sample") {
      conn->endpoint = "/v1/sample";
      HandleSample(conn, req);
      return;
    }
    if (req.path == "/v1/reload") {
      conn->endpoint = "/v1/reload";
      Respond(conn, ReloadNow());
      return;
    }
    Respond(conn, JsonResponse(404, ErrorJson("no such endpoint: " +
                                              req.target)));
    return;
  }
  HttpResponse response;
  response.status = 405;
  response.extra_headers.emplace_back("Allow", "GET, POST");
  response.body = ErrorJson("method not allowed: " + req.method);
  Respond(conn, std::move(response));
}

namespace {

/// Scrape endpoints with zero loaded models answer 503 + Retry-After
/// (the overload semantics from the queue-full path): an empty registry
/// mid-rollout means "not ready, come back", not "healthy with no
/// data", and an empty-but-200 scrape would mask the outage.
HttpResponse NoModelsResponse() {
  HttpResponse response;
  response.status = 503;
  response.extra_headers.emplace_back("Retry-After", "1");
  response.body = ErrorJson("no models loaded");
  return response;
}

}  // namespace

std::vector<QualityModelReport> Server::ScrapeQuality() {
  std::vector<QualityModelReport> reports = quality_.Scrape();
  for (const QualityModelReport& r : reports) {
    if (!r.warn) continue;
    P3GM_LOG(Warning) << "p3gm serve: quality drift on model \"" << r.model
                      << "\": drift " << r.report.drift() << " > threshold "
                      << quality_.options().threshold << " for "
                      << r.breach_streak
                      << " consecutive scrape(s) (worst feature "
                      << r.report.worst_feature << ", ks "
                      << r.report.worst_ks << ", label_tv "
                      << r.report.label_tv << ", rows "
                      << r.report.rows_observed << ")";
  }
  return reports;
}

HttpResponse Server::QualityResponse() {
  if (registry_.size() == 0) return NoModelsResponse();
  return JsonResponse(200,
                      QualityReportJson(ScrapeQuality(), quality_.options(),
                                        registry_.generation()));
}

HttpResponse Server::MetricsResponse(const HttpRequest& req) {
  if (registry_.size() == 0) return NoModelsResponse();
  // A metrics scrape also refreshes the quality gauges, so Prometheus
  // sees drift without anyone polling /v1/quality.
  ScrapeQuality();
  obs::Registry& registry = obs::Registry::Global();
  // Surface silent-loss counts right before the snapshot so a scrape
  // always sees current values.
  registry.gauge("obs.trace.dropped_events")
      ->Set(static_cast<double>(obs::TraceRecorder::Global().DroppedCount()));
  obs::FlightRecorder& flight = obs::FlightRecorder::Global();
  registry.gauge("obs.flight.recorded_events")
      ->Set(static_cast<double>(flight.RecordedCount()));
  registry.gauge("obs.flight.overwritten_events")
      ->Set(static_cast<double>(flight.OverwrittenCount()));
  // p3gm_process_* (always) and p3gm_alloc_* (when the operator-new
  // hooks are compiled in) refresh on every scrape.
  obs::PublishProcessGauges();

  const obs::Snapshot snapshot = registry.TakeSnapshot();
  const std::string* format = req.QueryParam("format");
  if (format != nullptr && *format == "prometheus") {
    HttpResponse response;
    response.content_type = obs::PrometheusContentType();
    response.body = obs::ToPrometheusText(snapshot);
    return response;
  }
  if (format != nullptr && *format != "json") {
    return JsonResponse(
        400, ErrorJson("unknown metrics format \"" + *format +
                       "\" (want json or prometheus)"));
  }
  return JsonResponse(200, snapshot.ToJson());
}

void Server::HandleSample(Connection* conn, const HttpRequest& req) {
  obs::Registry& registry = obs::Registry::Global();
  static obs::Counter* samples = registry.counter("serve.sample.requests");
  samples->Add();

  auto parsed = ParseSampleRequest(req.body, options_.max_n);
  if (!parsed.ok()) {
    Respond(conn, JsonResponse(StatusToHttp(parsed.status()),
                               ErrorJson(parsed.status().message())));
    return;
  }
  const SampleRequest& sample = *parsed;
  std::shared_ptr<const core::ReleasePackage> package =
      registry_.Find(sample.model);
  if (package == nullptr) {
    Respond(conn, JsonResponse(404, ErrorJson("unknown model \"" +
                                              sample.model + "\"")));
    return;
  }
  const std::uint64_t generation = registry_.generation();

  // Cache fast path: unseeded, cache-eligible requests may be answered
  // without touching the batcher at all.
  const bool cacheable = cache_.enabled() && !sample.has_seed &&
                         !sample.fresh;
  if (cacheable) {
    data::Dataset rows;
    if (cache_.Lookup(sample.model, generation, sample.n, &rows)) {
      static obs::Counter* hits = registry.counter("serve.cache.hits");
      hits->Add();
      conn->cache_hit = true;
      Respond(conn, SampleResponse(sample.model, generation,
                                   /*cached=*/true, rows));
      return;
    }
    static obs::Counter* misses = registry.counter("serve.cache.misses");
    misses->Add();
  }

  SampleJob job;
  job.ticket = next_ticket_++;
  job.model = sample.model;
  job.generation = generation;
  job.package = std::move(package);
  job.n = sample.n;
  job.has_seed = sample.has_seed;
  job.seed = sample.seed;
  job.stream_index = next_stream_index_++;
  job.fill_cache = cacheable;
  job.trace = conn->trace;
  const std::uint64_t ticket = job.ticket;
  // Registered before the job can complete: the batcher thread formats
  // the response from it.
  {
    std::lock_guard<std::mutex> lock(completions_mutex_);
    sample_contexts_[ticket] = SampleContext{
        sample.model, generation, conn->trace, conn->close_after_write};
  }
  if (!batcher_->Enqueue(std::move(job))) {
    {
      std::lock_guard<std::mutex> lock(completions_mutex_);
      sample_contexts_.erase(ticket);
    }
    static obs::Counter* overload = registry.counter("serve.overload");
    overload->Add();
    HttpResponse response;
    response.status = 503;
    response.extra_headers.emplace_back("Retry-After", "1");
    response.body = ErrorJson("sample queue full, retry later");
    Respond(conn, std::move(response));
    return;
  }
  conn->awaiting_sample = true;
  conn->ticket = ticket;
  ticket_to_fd_[ticket] = conn->fd;
}

void Server::HandleProfile(Connection* conn, const HttpRequest& req) {
  obs::Registry& registry = obs::Registry::Global();
  static obs::Counter* requests = registry.counter("serve.profile.requests");
  requests->Add();

  std::uint64_t seconds = 1;
  std::uint64_t hz = 99;
  if (const std::string* s = req.QueryParam("seconds")) {
    if (!util::ParseUint64(*s, 1, 60, &seconds)) {
      Respond(conn, JsonResponse(
                        400, ErrorJson("bad seconds \"" + *s +
                                       "\" (want integer in [1, 60])")));
      return;
    }
  }
  if (const std::string* s = req.QueryParam("hz")) {
    if (!util::ParseUint64(*s, 1, 1000, &hz)) {
      Respond(conn, JsonResponse(
                        400, ErrorJson("bad hz \"" + *s +
                                       "\" (want integer in [1, 1000])")));
      return;
    }
  }

  // Admission: one profile at a time, shared with --profile-on-slow
  // bursts. exchange(true) claims the slot or reports it taken.
  if (profile_busy_.exchange(true, std::memory_order_acq_rel)) {
    HttpResponse busy;
    busy.status = 503;
    busy.extra_headers.emplace_back("Retry-After",
                                    std::to_string(seconds));
    busy.body = ErrorJson("a profile is already running, retry later");
    Respond(conn, std::move(busy));
    return;
  }
  obs::profile::CpuProfileOptions profile_options;
  profile_options.hz = static_cast<int>(hz);
  const util::Status status =
      obs::profile::CpuProfiler::Global().Start(profile_options);
  if (!status.ok()) {
    profile_busy_.store(false, std::memory_order_release);
    const bool contended =
        status.code() == util::StatusCode::kFailedPrecondition;
    HttpResponse response;
    response.status = contended ? 503 : 500;
    if (contended) response.extra_headers.emplace_back("Retry-After", "1");
    response.body = ErrorJson(status.message());
    Respond(conn, std::move(response));
    return;
  }

  // Park the connection (sample-request machinery) and collect on a
  // worker so the event loop keeps serving; the loop thread's own work
  // still gets sampled — only this endpoint's response assembly happens
  // after Stop, excluding it from its own profile.
  const std::uint64_t ticket = next_ticket_++;
  conn->awaiting_profile = true;
  conn->ticket = ticket;
  ticket_to_fd_[ticket] = conn->fd;
  if (profile_thread_.joinable()) profile_thread_.join();
  profile_thread_ = std::thread([this, ticket, seconds] {
    const std::uint64_t deadline_ns =
        obs::NowNs() + seconds * 1000000000ull;
    while (obs::NowNs() < deadline_ns &&
           !stop_requested_.load(std::memory_order_acquire)) {
      struct timespec ts = {0, 50 * 1000 * 1000};
      ::nanosleep(&ts, nullptr);
    }
    auto profile = obs::profile::CpuProfiler::Global().Stop();
    HttpResponse response;
    if (!profile.ok()) {
      response.status = 500;
      response.body = ErrorJson(profile.status().message());
    } else {
      response.content_type = "text/plain; charset=utf-8";
      response.body = profile->ToFoldedText();
      response.extra_headers.emplace_back(
          "X-Profile-Samples", std::to_string(profile->samples));
      response.extra_headers.emplace_back(
          "X-Profile-Dropped", std::to_string(profile->dropped));
      response.extra_headers.emplace_back(
          "X-Profile-Hz", std::to_string(profile->hz));
    }
    {
      std::lock_guard<std::mutex> lock(profile_completions_mutex_);
      profile_completions_.push_back(
          ProfileCompletion{ticket, std::move(response)});
    }
    profile_busy_.store(false, std::memory_order_release);
    Wake();
  });
}

HttpResponse Server::ProfileHeapResponse() {
  obs::profile::HeapProfiler& heap = obs::profile::HeapProfiler::Global();
  if (!obs::perf::AllocTrackingCompiledIn()) {
    HttpResponse response;
    response.status = 501;
    response.body = ErrorJson(
        "heap profiling requires a -DP3GM_ALLOC_TRACKING=ON build");
    return response;
  }
  if (!heap.running()) {
    HttpResponse response;
    response.status = 503;
    response.extra_headers.emplace_back("Retry-After", "1");
    response.body = ErrorJson("heap profiler is not running");
    return response;
  }
  auto snapshot = heap.Snapshot();
  if (!snapshot.ok()) {
    return JsonResponse(500, ErrorJson(snapshot.status().message()));
  }
  HttpResponse response;
  response.content_type = "text/plain; charset=utf-8";
  response.body = snapshot->ToFoldedText();
  response.extra_headers.emplace_back(
      "X-Profile-Samples", std::to_string(snapshot->samples));
  response.extra_headers.emplace_back(
      "X-Profile-Dropped", std::to_string(snapshot->dropped));
  response.extra_headers.emplace_back(
      "X-Profile-Stride-Bytes", std::to_string(snapshot->stride_bytes));
  return response;
}

void Server::MaybeStartSlowProfile() {
  if (options_.profile_on_slow_dir.empty()) return;
  obs::Registry& registry = obs::Registry::Global();
  static obs::Counter* bursts =
      registry.counter("serve.profile.slow_bursts");
  static obs::Counter* skipped =
      registry.counter("serve.profile.slow_skipped");
  if (profile_busy_.exchange(true, std::memory_order_acq_rel)) {
    skipped->Add();  // Never queue bursts behind a running profile.
    return;
  }
  const util::Status status = obs::profile::CpuProfiler::Global().Start(
      obs::profile::CpuProfileOptions());
  if (!status.ok()) {
    profile_busy_.store(false, std::memory_order_release);
    skipped->Add();
    return;
  }
  bursts->Add();
  const std::string path = options_.profile_on_slow_dir + "/slow-" +
                           obs::TraceIdHex(obs::CurrentContext()) +
                           ".folded";
  const std::uint64_t seconds = static_cast<std::uint64_t>(
      std::max(1, options_.profile_on_slow_seconds));
  if (profile_thread_.joinable()) profile_thread_.join();
  profile_thread_ = std::thread([this, path, seconds] {
    const std::uint64_t deadline_ns =
        obs::NowNs() + seconds * 1000000000ull;
    while (obs::NowNs() < deadline_ns &&
           !stop_requested_.load(std::memory_order_acquire)) {
      struct timespec ts = {0, 50 * 1000 * 1000};
      ::nanosleep(&ts, nullptr);
    }
    auto profile = obs::profile::CpuProfiler::Global().Stop();
    if (profile.ok()) {
      std::ofstream out(path, std::ios::trunc);
      out << profile->ToFoldedText();
      out.close();
      P3GM_LOG(Info) << "p3gm serve: slow-request profile burst ("
                     << profile->samples << " samples, "
                     << profile->dropped << " dropped) written to "
                     << path;
    } else {
      P3GM_LOG(Warning) << "p3gm serve: slow-request profile burst "
                        << "failed: " << profile.status();
    }
    profile_busy_.store(false, std::memory_order_release);
  });
}

void Server::DrainProfileCompletions() {
  std::vector<ProfileCompletion> batch;
  {
    std::lock_guard<std::mutex> lock(profile_completions_mutex_);
    batch.swap(profile_completions_);
  }
  for (ProfileCompletion& done : batch) {
    const auto it = ticket_to_fd_.find(done.ticket);
    if (it == ticket_to_fd_.end()) continue;  // Connection went away.
    const int fd = it->second;
    ticket_to_fd_.erase(it);
    const auto conn_it = connections_.find(fd);
    if (conn_it == connections_.end()) continue;
    Connection* conn = conn_it->second.get();
    if (!conn->awaiting_profile || conn->ticket != done.ticket) continue;
    conn->awaiting_profile = false;
    obs::RequestScope request_scope(conn->trace);
    Respond(conn, std::move(done.response));
    if (connections_.count(fd) == 0) continue;
    conn->parser.ResetForNext();
    PumpRequests(conn);
  }
}

void Server::DrainCompletions() {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(completions_mutex_);
    batch.swap(completions_);
  }
  for (Completion& done : batch) {
    const auto it = ticket_to_fd_.find(done.ticket);
    if (it == ticket_to_fd_.end()) continue;  // Connection went away.
    const int fd = it->second;
    ticket_to_fd_.erase(it);
    const auto conn_it = connections_.find(fd);
    if (conn_it == connections_.end()) continue;
    Connection* conn = conn_it->second.get();
    if (!conn->awaiting_sample || conn->ticket != done.ticket) continue;
    conn->awaiting_sample = false;
    // Re-enter the request's trace scope: the slow log and latency
    // attribution belong to the span that parked here. The bytes were
    // formatted on the batcher thread; the loop only writes them.
    obs::RequestScope request_scope(conn->trace);
    Send(conn, done.status, std::move(done.message));
    if (connections_.count(fd) == 0) continue;
    // The parked connection may hold a pipelined follow-up request.
    conn->parser.ResetForNext();
    PumpRequests(conn);
  }
}

HttpResponse Server::ReloadNow() {
  static obs::Counter* reloads =
      obs::Registry::Global().counter("serve.reloads");
  const util::Status status = registry_.Reload();
  if (!status.ok()) {
    P3GM_LOG(Warning) << "p3gm serve: reload failed: " << status;
    return JsonResponse(500, ErrorJson("reload failed: " +
                                       status.message()));
  }
  reloads->Add();
  // Fresh monitors against the reloaded weights' fingerprints: drift
  // must always be measured relative to what is being served now.
  quality_.Rebuild(registry_);
  P3GM_LOG(Info) << "p3gm serve: reloaded " << registry_.size()
                 << " model(s), generation " << registry_.generation();
  return JsonResponse(
      200, "{\"status\": \"reloaded\", \"generation\": " +
               std::to_string(registry_.generation()) + ", \"models\": " +
               std::to_string(registry_.size()) + "}");
}

void Server::CompleteSample(std::uint64_t ticket,
                            util::Result<data::Dataset> result) {
  SampleContext context;
  {
    std::lock_guard<std::mutex> lock(completions_mutex_);
    auto node = sample_contexts_.extract(ticket);
    if (node.empty()) return;  // The connection closed while it ran.
    context = std::move(node.mapped());
  }
  obs::RequestScope request_scope(context.trace);
  HttpResponse response =
      result.ok() ? SampleResponse(context.model, context.generation,
                                   /*cached=*/false, *result)
                  : JsonResponse(StatusToHttp(result.status()),
                                 ErrorJson(result.status().message()));
  AddTraceHeaders(context.trace, &response);
  response.close_connection = context.close_connection;
  Completion done;
  done.ticket = ticket;
  done.status = response.status;
  done.message.head = response.SerializeHead();
  done.message.body = std::move(response.body);
  {
    std::lock_guard<std::mutex> lock(completions_mutex_);
    completions_.push_back(std::move(done));
  }
  Wake();
}

void Server::Respond(Connection* conn, HttpResponse response) {
  // Every response names its request: parse failures and early
  // rejections reach here without ProcessRequest having minted an id,
  // so mint one now. Echoing traceparent lets a propagating client
  // stitch our server span into its own trace.
  if (!conn->trace.valid()) conn->trace = obs::MakeRootContext();
  AddTraceHeaders(conn->trace, &response);
  if (response.close_connection) conn->close_after_write = true;
  response.close_connection = conn->close_after_write;
  OutMessage message;
  message.head = response.SerializeHead();
  message.body = std::move(response.body);
  Send(conn, response.status, std::move(message));
}

void Server::Send(Connection* conn, int status, OutMessage message) {
  obs::Registry& registry = obs::Registry::Global();
  static obs::Counter* ok2xx = registry.counter("serve.responses.2xx");
  static obs::Counter* err4xx = registry.counter("serve.responses.4xx");
  static obs::Counter* err5xx = registry.counter("serve.responses.5xx");
  static obs::Histogram* latency = registry.histogram(
      "serve.request.latency_seconds", kLatencyBounds);
  if (status < 400) {
    ok2xx->Add();
  } else if (status < 500) {
    err4xx->Add();
  } else {
    err5xx->Add();
  }
  if (conn->request_start_ns != 0) {
    const double seconds =
        static_cast<double>(obs::NowNs() - conn->request_start_ns) * 1e-9;
    latency->Observe(seconds);
    registry
        .histogram(obs::LabeledName("serve.request.latency_seconds",
                                    {{"endpoint", conn->endpoint}}),
                   kLatencyBounds)
        ->Observe(seconds);
    if (std::strcmp(conn->endpoint, "/v1/sample") == 0) {
      registry
          .histogram(
              obs::LabeledName("serve.request.latency_seconds",
                               {{"endpoint", conn->endpoint},
                                {"result",
                                 conn->cache_hit ? "hit" : "fresh"}}),
              kLatencyBounds)
          ->Observe(seconds);
    }
    obs::FlightRecorder::Global().Record(
        obs::FlightRecorder::EventKind::kRequest, "serve.respond",
        conn->trace.span_id, static_cast<std::uint64_t>(status));
    if (options_.slow_request_ms > 0 &&
        seconds * 1000.0 >= static_cast<double>(options_.slow_request_ms)) {
      obs::RequestScope slow_scope(conn->trace);
      P3GM_LOG(Warning) << "p3gm serve: slow request " << conn->endpoint
                        << " status " << status << " took "
                        << static_cast<std::uint64_t>(seconds * 1000.0)
                        << " ms (threshold " << options_.slow_request_ms
                        << " ms)";
      // --profile-on-slow: attach a flamegraph to the incident. The
      // burst file is named by this request's trace id (ambient via
      // slow_scope above).
      MaybeStartSlowProfile();
    }
    conn->request_start_ns = 0;
  }
  conn->endpoint = "other";
  conn->cache_hit = false;
  message.queued_ns = obs::NowNs();
  conn->out.push_back(std::move(message));
  HandleWritable(conn);
}

void Server::HandleWritable(Connection* conn) {
  static obs::Histogram* stage = obs::Registry::Global().histogram(
      "serve.stage.write_seconds", kStageBounds);
  while (!conn->out.empty()) {
    const OutMessage& front = conn->out.front();
    // What is left of head and body, as one vectored write.
    struct iovec iov[2];
    std::size_t iov_count = 0;
    std::size_t skip = conn->out_offset;
    for (const std::string* part : {&front.head, &front.body}) {
      if (skip >= part->size()) {
        skip -= part->size();
        continue;
      }
      iov[iov_count].iov_base = const_cast<char*>(part->data()) + skip;
      iov[iov_count].iov_len = part->size() - skip;
      ++iov_count;
      skip = 0;
    }
    // sendmsg is writev with MSG_NOSIGNAL: a vanished peer is an error
    // return, not a SIGPIPE.
    struct msghdr msg;
    std::memset(&msg, 0, sizeof msg);
    msg.msg_iov = iov;
    msg.msg_iovlen = iov_count;
    const ssize_t sent = ::sendmsg(conn->fd, &msg, MSG_NOSIGNAL);
    if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (sent < 0 && errno == EINTR) continue;
    if (sent <= 0) {
      CloseConnection(conn->fd);
      return;
    }
    conn->out_offset += static_cast<std::size_t>(sent);
    if (conn->out_offset < front.head.size() + front.body.size()) continue;
    stage->Observe(static_cast<double>(obs::NowNs() - front.queued_ns) *
                   1e-9);
    conn->out.pop_front();
    conn->out_offset = 0;
  }
  if (conn->out.empty() && conn->close_after_write) {
    CloseConnection(conn->fd);
    return;
  }
  UpdateInterest(conn);
}

void Server::UpdateInterest(Connection* conn) {
  const bool want_write = !conn->out.empty();
  // While a sample or profile is in flight we stop reading:
  // backpressure, and the parked request's response must go out before
  // the next one is read.
  const bool want_read = !conn->awaiting_sample && !conn->awaiting_profile;
  poller_->Update(conn->fd, want_read, want_write);
}

void Server::CloseConnection(int fd) {
  const auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  if (it->second->awaiting_sample) {
    // The batcher may still be running this job; without its context
    // the completion skips formatting.
    std::lock_guard<std::mutex> lock(completions_mutex_);
    sample_contexts_.erase(it->second->ticket);
  }
  if (it->second->awaiting_sample || it->second->awaiting_profile) {
    ticket_to_fd_.erase(it->second->ticket);
  }
  poller_->Remove(fd);
  ::close(fd);
  connections_.erase(it);
}

}  // namespace serve
}  // namespace p3gm
