#include "util/logging.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <mutex>

#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/per_thread_slots.h"
#include "obs/trace_context.h"

namespace p3gm {
namespace util {

namespace {

std::atomic<int> g_level{static_cast<int>(LogLevel::kInfo)};
std::atomic<int> g_format{static_cast<int>(LogFormat::kText)};
std::mutex g_write_mutex;

std::mutex g_sink_mutex;
std::function<void(LogLevel, const std::string&)> g_test_sink;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

// "2026-08-06T12:34:56.789Z" (UTC). Returns the formatted length.
std::size_t FormatTimestamp(char* buf, std::size_t size) {
  const auto now = std::chrono::system_clock::now();
  const std::time_t seconds = std::chrono::system_clock::to_time_t(now);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      now.time_since_epoch())
                      .count() %
                  1000;
  std::tm tm_utc{};
  gmtime_r(&seconds, &tm_utc);
  const std::size_t n = std::strftime(buf, size, "%Y-%m-%dT%H:%M:%S", &tm_utc);
  return n + std::snprintf(buf + n, size - n, ".%03dZ",
                           static_cast<int>(ms));
}

std::string AsciiLower(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

void Emit(LogLevel level, const std::string& record) {
  {
    std::lock_guard<std::mutex> lock(g_sink_mutex);
    if (g_test_sink) {
      g_test_sink(level, record);
      return;
    }
  }
  // Append the newline outside the sink path so tests see clean records.
  std::lock_guard<std::mutex> lock(g_write_mutex);
  std::fwrite(record.data(), 1, record.size(), stderr);
  std::fputc('\n', stderr);
}

std::string BuildRecord(LogLevel level, const std::string& message) {
  char ts[48];
  const std::size_t ts_len = FormatTimestamp(ts, sizeof ts);
  const obs::TraceContext& ctx = obs::CurrentContext();
  std::string record;
  if (GetLogFormat() == LogFormat::kJson) {
    record.reserve(message.size() + 128);
    record += "{\"ts\":\"";
    record.append(ts, ts_len);
    record += "\",\"level\":\"";
    record += LevelName(level);
    record += "\",\"thread\":";
    record += std::to_string(obs::ThreadIndex());
    if (ctx.valid()) {
      record += ",\"trace_id\":\"";
      record += obs::TraceIdHex(ctx);
      record += "\",\"span_id\":\"";
      record += obs::SpanIdHex(ctx.span_id);
      record += '"';
    }
    record += ",\"msg\":\"";
    record += obs::json::Escape(message);
    record += "\"}";
  } else {
    char prefix[64];
    const std::size_t n =
        std::snprintf(prefix, sizeof prefix, " [%s] [t%zu] ",
                      LevelName(level), obs::ThreadIndex());
    record.reserve(message.size() + 128);
    record.append(ts, ts_len);
    record.append(prefix, n);
    if (ctx.valid()) {
      record += "[trace:";
      record += obs::TraceIdHex(ctx);
      record += " span:";
      record += obs::SpanIdHex(ctx.span_id);
      record += "] ";
    }
    record += message;
  }
  return record;
}

std::once_flag g_env_once;

}  // namespace

void SetLogLevel(LogLevel level) {
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel GetLogLevel() {
  return static_cast<LogLevel>(g_level.load(std::memory_order_relaxed));
}

void SetLogFormat(LogFormat format) {
  g_format.store(static_cast<int>(format), std::memory_order_relaxed);
}

LogFormat GetLogFormat() {
  return static_cast<LogFormat>(g_format.load(std::memory_order_relaxed));
}

bool ParseLogLevel(const std::string& text, LogLevel* out) {
  const std::string lower = AsciiLower(text);
  if (lower == "debug") {
    *out = LogLevel::kDebug;
  } else if (lower == "info") {
    *out = LogLevel::kInfo;
  } else if (lower == "warn" || lower == "warning") {
    *out = LogLevel::kWarning;
  } else if (lower == "error") {
    *out = LogLevel::kError;
  } else {
    return false;
  }
  return true;
}

bool ParseLogFormat(const std::string& text, LogFormat* out) {
  const std::string lower = AsciiLower(text);
  if (lower == "text") {
    *out = LogFormat::kText;
  } else if (lower == "json") {
    *out = LogFormat::kJson;
  } else {
    return false;
  }
  return true;
}

void InitLoggingFromEnv() {
  const char* level_env = std::getenv("P3GM_LOG_LEVEL");
  if (level_env != nullptr) {
    LogLevel level;
    if (ParseLogLevel(level_env, &level)) {
      SetLogLevel(level);
    } else {
      Emit(LogLevel::kError,
           BuildRecord(LogLevel::kError,
                       std::string("P3GM_LOG_LEVEL: invalid value \"") +
                           level_env +
                           "\" (want debug|info|warn|error); keeping "
                           "current level"));
    }
  }
  const char* format_env = std::getenv("P3GM_LOG_FORMAT");
  if (format_env != nullptr) {
    LogFormat format;
    if (ParseLogFormat(format_env, &format)) {
      SetLogFormat(format);
    } else {
      Emit(LogLevel::kError,
           BuildRecord(LogLevel::kError,
                       std::string("P3GM_LOG_FORMAT: invalid value \"") +
                           format_env +
                           "\" (want text|json); keeping current format"));
    }
  }
}

void LogMessage(LogLevel level, const std::string& message) {
  std::call_once(g_env_once, InitLoggingFromEnv);
  if (static_cast<int>(level) < g_level.load(std::memory_order_relaxed)) {
    return;
  }
  obs::FlightRecorder::Global().RecordLog(LevelName(level), message.data(),
                                          message.size());
  Emit(level, BuildRecord(level, message));
}

void SetLogSinkForTest(
    std::function<void(LogLevel, const std::string&)> sink) {
  std::lock_guard<std::mutex> lock(g_sink_mutex);
  g_test_sink = std::move(sink);
}

}  // namespace util
}  // namespace p3gm
