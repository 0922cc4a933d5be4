// End-to-end tests for the serving path's request-scoped tracing:
// X-Request-Id / traceparent echo on every response, W3C traceparent
// ingestion, id uniqueness under concurrent clients, the batched decode
// span linking back to every coalesced request, Prometheus exposition
// at /v1/metrics?format=prometheus, the slow-request log, and the
// SIGQUIT flight-recorder dump.

#include <chrono>
#include <csignal>
#include <cstddef>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "gtest/gtest.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/observability.h"
#include "obs/prometheus.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve_test_util.h"
#include "util/logging.h"

namespace p3gm {
namespace serve {
namespace {

using serve_test::MakePackage;
using serve_test::TempDir;

bool IsLowerHex(const std::string& s, std::size_t want_len) {
  if (s.size() != want_len) return false;
  for (char c : s) {
    const bool ok = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
    if (!ok) return false;
  }
  return true;
}

// Reads the whole file; empty string when absent.
std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class ServeTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::SetEnabled(true);
    obs::Registry::Global().Reset();
    obs::TraceRecorder::Global().Clear();
    pkg_path_ = dir_.WritePackage(MakePackage("alpha"), "alpha");
  }

  void TearDown() override {
    util::SetLogSinkForTest(nullptr);
    obs::SetEnabled(false);
  }

  void StartServer(ServerOptions options) {
    options.port = 0;
    server_ = std::make_unique<Server>(options);
    ASSERT_TRUE(server_->Init({pkg_path_}).ok());
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_GT(server_->port(), 0);
    ASSERT_TRUE(client_.Connect("127.0.0.1", server_->port()).ok());
  }

  TempDir dir_;
  std::string pkg_path_;
  std::unique_ptr<Server> server_;
  HttpClient client_;
};

TEST_F(ServeTraceTest, EveryResponseCarriesRequestIdAndTraceparent) {
  StartServer(ServerOptions());
  struct Case {
    std::string method, target, body;
  } cases[] = {
      {"GET", "/healthz", ""},
      {"GET", "/v1/models", ""},
      {"POST", "/v1/sample", "{\"model\": \"alpha\", \"n\": 2}"},
      {"POST", "/v1/sample", "not json"},       // 400 path.
      {"GET", "/definitely/not/there", ""},     // 404 path.
  };
  for (const Case& c : cases) {
    auto response = client_.Request(c.method, c.target, c.body);
    ASSERT_TRUE(response.ok()) << c.target << ": " << response.status();
    const std::string* id = response->FindHeader("X-Request-Id");
    ASSERT_NE(id, nullptr) << c.method << " " << c.target;
    EXPECT_TRUE(IsLowerHex(*id, 32)) << *id;
    const std::string* tp = response->FindHeader("traceparent");
    ASSERT_NE(tp, nullptr) << c.method << " " << c.target;
    // 00-<32 hex>-<16 hex>-01, trace id matching X-Request-Id.
    ASSERT_EQ(tp->size(), 55u) << *tp;
    EXPECT_EQ(tp->substr(0, 3), "00-");
    EXPECT_EQ(tp->substr(3, 32), *id);
    EXPECT_TRUE(IsLowerHex(tp->substr(36, 16), 16)) << *tp;
    EXPECT_EQ(tp->substr(52), "-01");
  }
}

TEST_F(ServeTraceTest, TraceparentIngestKeepsTraceIdMintsFreshSpan) {
  StartServer(ServerOptions());
  const std::string trace_id = "4bf92f3577b34da6a3ce929d0e0e4736";
  const std::string parent_id = "00f067aa0ba902b7";
  auto response = client_.Raw(
      "GET /healthz HTTP/1.1\r\nHost: t\r\ntraceparent: 00-" + trace_id +
      "-" + parent_id + "-01\r\nConnection: close\r\n\r\n");
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_EQ(response->status, 200);
  const std::string* id = response->FindHeader("X-Request-Id");
  ASSERT_NE(id, nullptr);
  EXPECT_EQ(*id, trace_id);  // The remote trace id is adopted...
  const std::string* tp = response->FindHeader("traceparent");
  ASSERT_NE(tp, nullptr);
  ASSERT_EQ(tp->size(), 55u);
  EXPECT_EQ(tp->substr(3, 32), trace_id);
  // ...but the echoed span id is a fresh local one, not the remote
  // parent (the daemon is a child span of the caller).
  EXPECT_NE(tp->substr(36, 16), parent_id);
  EXPECT_TRUE(IsLowerHex(tp->substr(36, 16), 16)) << *tp;
}

TEST_F(ServeTraceTest, MalformedTraceparentGetsFreshTraceId) {
  StartServer(ServerOptions());
  const char* bad[] = {
      "not a traceparent",
      "00-00000000000000000000000000000000-00f067aa0ba902b7-01",
      "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",
      "ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
      "00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",
  };
  for (const char* header : bad) {
    HttpClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    auto response = client.Raw(std::string("GET /healthz HTTP/1.1\r\n") +
                               "Host: t\r\ntraceparent: " + header +
                               "\r\nConnection: close\r\n\r\n");
    ASSERT_TRUE(response.ok()) << header << ": " << response.status();
    const std::string* id = response->FindHeader("X-Request-Id");
    ASSERT_NE(id, nullptr) << header;
    EXPECT_TRUE(IsLowerHex(*id, 32)) << *id;
    EXPECT_NE(*id, "00000000000000000000000000000000") << header;
    EXPECT_NE(*id, "4bf92f3577b34da6a3ce929d0e0e4736") << header;
  }
}

TEST_F(ServeTraceTest, RequestIdsAreUniqueUnderConcurrentClients) {
  ServerOptions options;
  options.cache_entries = 8;  // Cache hits must still get unique ids.
  StartServer(options);
  constexpr int kThreads = 8;
  constexpr int kRequestsPerThread = 8;
  std::mutex mutex;
  std::set<std::string> ids;
  std::vector<std::string> errors;
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&] {
      HttpClient client;
      if (!client.Connect("127.0.0.1", server_->port()).ok()) {
        std::lock_guard<std::mutex> lock(mutex);
        errors.push_back("connect failed");
        return;
      }
      for (int i = 0; i < kRequestsPerThread; ++i) {
        auto response =
            client.Post("/v1/sample", "{\"model\": \"alpha\", \"n\": 3}");
        std::lock_guard<std::mutex> lock(mutex);
        if (!response.ok() || response->status != 200) {
          errors.push_back("request failed");
          continue;
        }
        const std::string* id = response->FindHeader("X-Request-Id");
        if (id == nullptr || !IsLowerHex(*id, 32)) {
          errors.push_back("bad X-Request-Id");
          continue;
        }
        ids.insert(*id);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_TRUE(errors.empty()) << errors.size() << " failures, e.g. "
                              << errors.front();
  // Every response got its own 128-bit trace id — no reuse across
  // threads, batches, or cache hits.
  EXPECT_EQ(ids.size(),
            static_cast<std::size_t>(kThreads * kRequestsPerThread));
}

TEST_F(ServeTraceTest, BatchDecodeSpanLinksEveryCoalescedRequest) {
  if (!obs::kCompiledIn) {
    GTEST_SKIP() << "observability compiled out";
  }
  StartServer(ServerOptions());
  constexpr int kThreads = 8;
  std::mutex mutex;
  std::set<std::string> response_ids;
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&] {
      HttpClient client;
      if (!client.Connect("127.0.0.1", server_->port()).ok()) return;
      auto response = client.Post(
          "/v1/sample", "{\"model\": \"alpha\", \"n\": 4, \"fresh\": true}");
      if (!response.ok() || response->status != 200) return;
      const std::string* id = response->FindHeader("X-Request-Id");
      if (id == nullptr) return;
      std::lock_guard<std::mutex> lock(mutex);
      response_ids.insert(*id);
    });
  }
  for (std::thread& t : clients) t.join();
  ASSERT_EQ(response_ids.size(), static_cast<std::size_t>(kThreads));

  // The batcher recorded one decode span per coalesced pass plus one
  // slice span per request, stamped with the request's trace identity.
  std::set<std::string> slice_trace_ids;
  int decode_spans = 0;
  for (const auto& event : obs::TraceRecorder::Global().Events()) {
    const std::string name = event.name;
    if (name == "serve.batch.decode") {
      ++decode_spans;
      EXPECT_TRUE(event.has_context());
    } else if (name == "serve.batch.slice") {
      EXPECT_TRUE(event.has_context());
      EXPECT_NE(event.parent_id, 0u)
          << "slice spans parent on the request span";
      obs::TraceContext ctx;
      ctx.trace_hi = event.trace_hi;
      ctx.trace_lo = event.trace_lo;
      slice_trace_ids.insert(obs::TraceIdHex(ctx));
    }
  }
  EXPECT_GE(decode_spans, 1);
  for (const std::string& id : response_ids) {
    EXPECT_TRUE(slice_trace_ids.count(id) > 0)
        << "request " << id << " has no slice span in the decode pass";
  }
}

TEST_F(ServeTraceTest, SerializeSpanJoinsTheRequestTrace) {
  if (!obs::kCompiledIn) {
    GTEST_SKIP() << "observability compiled out";
  }
  ServerOptions options;
  options.cache_entries = 8;
  StartServer(options);
  const std::string body = "{\"model\": \"alpha\", \"n\": 4}";
  std::set<std::string> response_ids;
  for (int i = 0; i < 2; ++i) {  // Fresh (batcher thread), then cached.
    auto response = client_.Post("/v1/sample", body);
    ASSERT_TRUE(response.ok()) << response.status();
    ASSERT_EQ(response->status, 200);
    const std::string* id = response->FindHeader("X-Request-Id");
    ASSERT_NE(id, nullptr);
    response_ids.insert(*id);
  }
  ASSERT_EQ(response_ids.size(), 2u);
  std::set<std::string> serialize_trace_ids;
  for (const auto& event : obs::TraceRecorder::Global().Events()) {
    if (std::string(event.name) != "serve.serialize") continue;
    EXPECT_TRUE(event.has_context());
    obs::TraceContext ctx;
    ctx.trace_hi = event.trace_hi;
    ctx.trace_lo = event.trace_lo;
    serialize_trace_ids.insert(obs::TraceIdHex(ctx));
  }
  EXPECT_EQ(serialize_trace_ids, response_ids);
}

TEST_F(ServeTraceTest, MetricsPrometheusFormat) {
  if (!obs::kCompiledIn) {
    GTEST_SKIP() << "observability compiled out";
  }
  ServerOptions options;
  options.cache_entries = 8;
  StartServer(options);
  const std::string body = "{\"model\": \"alpha\", \"n\": 4}";
  ASSERT_TRUE(client_.Post("/v1/sample", body).ok());  // Fresh.
  ASSERT_TRUE(client_.Post("/v1/sample", body).ok());  // Cache hit.

  auto response = client_.Get("/v1/metrics?format=prometheus");
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_EQ(response->status, 200);
  const std::string* content_type = response->FindHeader("Content-Type");
  ASSERT_NE(content_type, nullptr);
  EXPECT_EQ(*content_type, obs::PrometheusContentType());
  const std::string& text = response->body;
  EXPECT_NE(text.find("# TYPE serve_request_latency_seconds histogram"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("serve_request_latency_seconds_bucket{"
                      "endpoint=\"/v1/sample\",le=\"+Inf\"}"),
            std::string::npos)
      << text;
  EXPECT_NE(
      text.find("endpoint=\"/v1/sample\",result=\"hit\""),
      std::string::npos)
      << text;
  EXPECT_NE(
      text.find("endpoint=\"/v1/sample\",result=\"fresh\""),
      std::string::npos)
      << text;
  EXPECT_NE(text.find("serve_request_latency_seconds_count"),
            std::string::npos);
  EXPECT_NE(text.find("obs_flight_recorded_events"), std::string::npos);
  // Per-stage histograms: serialization (fresh and cached answers) and
  // the write of every response.
  for (const char* stage : {"serve_stage_serialize_seconds",
                            "serve_stage_write_seconds"}) {
    EXPECT_NE(text.find(std::string("# TYPE ") + stage + " histogram"),
              std::string::npos)
        << stage << "\n" << text;
    EXPECT_NE(text.find(std::string(stage) + "_bucket{le=\"+Inf\"}"),
              std::string::npos)
        << stage << "\n" << text;
  }
  // Exactly one # TYPE line per metric family.
  EXPECT_EQ(text.find("# TYPE serve_request_latency_seconds histogram"),
            text.rfind("# TYPE serve_request_latency_seconds histogram"));

  // The JSON view still answers (default and explicit).
  auto json_response = client_.Get("/v1/metrics?format=json");
  ASSERT_TRUE(json_response.ok());
  EXPECT_EQ(json_response->status, 200);
  obs::json::Value parsed;
  std::string error;
  EXPECT_TRUE(obs::json::Parse(json_response->body, &parsed, &error))
      << error;

  // Unknown formats are rejected, not silently defaulted.
  auto bad = client_.Get("/v1/metrics?format=xml");
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->status, 400);
}

TEST_F(ServeTraceTest, SlowRequestLogCarriesTraceId) {
  std::mutex mutex;
  std::vector<std::string> records;
  util::SetLogSinkForTest(
      [&](util::LogLevel, const std::string& record) {
        std::lock_guard<std::mutex> lock(mutex);
        records.push_back(record);
      });
  ServerOptions options;
  options.slow_request_ms = 1;
  StartServer(options);
  // A large fresh decode (50k rows serialized to JSON) takes well over
  // one millisecond end to end.
  auto response = client_.Post(
      "/v1/sample", "{\"model\": \"alpha\", \"n\": 50000, \"fresh\": true}");
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_EQ(response->status, 200);
  const std::string* id = response->FindHeader("X-Request-Id");
  ASSERT_NE(id, nullptr);

  std::lock_guard<std::mutex> lock(mutex);
  bool found = false;
  for (const std::string& record : records) {
    if (record.find("slow request") == std::string::npos) continue;
    found = true;
    EXPECT_NE(record.find("/v1/sample"), std::string::npos) << record;
    // Emitted inside the request's scope: the text format carries the
    // trace id of the request that was slow.
    EXPECT_NE(record.find(*id), std::string::npos) << record;
  }
  EXPECT_TRUE(found) << "no slow-request record among " << records.size()
                     << " captured records";
}

TEST_F(ServeTraceTest, SigquitDumpsFlightRecorder) {
  const std::string dump_path = dir_.path() + "/flight.dump";
  obs::InstallFlightDumpHandlers(dump_path);
  EXPECT_STREQ(obs::FlightDumpPath(), dump_path.c_str());
  StartServer(ServerOptions());
  ASSERT_TRUE(
      client_.Post("/v1/sample", "{\"model\": \"alpha\", \"n\": 2}").ok());

  ASSERT_EQ(::kill(::getpid(), SIGQUIT), 0);
  // The handler runs on whichever thread takes the signal; poll briefly.
  std::string dump;
  for (int i = 0; i < 200; ++i) {
    dump = Slurp(dump_path);
    if (dump.find("=== end flight recorder ===") != std::string::npos) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_NE(dump.find("=== p3gm flight recorder ==="), std::string::npos);
  EXPECT_NE(dump.find("=== end flight recorder ==="), std::string::npos);
  // The last moments include the request lifecycle events recorded by
  // the serving path (written even though nothing crashed).
  EXPECT_NE(dump.find("serve.request.begin"), std::string::npos) << dump;
  EXPECT_NE(dump.find("serve.respond"), std::string::npos);
  // And the process kept running: SIGQUIT is dump-and-continue.
  auto health = client_.Get("/healthz");
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_EQ(health->status, 200);
}

}  // namespace
}  // namespace serve
}  // namespace p3gm
