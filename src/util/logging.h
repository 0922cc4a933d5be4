#ifndef P3GM_UTIL_LOGGING_H_
#define P3GM_UTIL_LOGGING_H_

#include <functional>
#include <sstream>
#include <string>

namespace p3gm {
namespace util {

/// Severity levels in increasing order of importance.
enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

/// Output encodings. Text is the human-readable single-line form; JSON
/// emits one JSON object per line (machine-ingestable, values escaped
/// via obs/json.h).
enum class LogFormat : int { kText = 0, kJson = 1 };

/// Process-wide minimum level; messages below it are dropped.
/// Defaults to kInfo. Thread-safe (atomic).
void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

/// Process-wide output format. Defaults to kText. Thread-safe (atomic).
void SetLogFormat(LogFormat format);
LogFormat GetLogFormat();

/// Case-insensitive parsers for the env-var spellings:
/// "debug" | "info" | "warn" | "warning" | "error" and "text" | "json".
/// Return false (leaving *out untouched) on anything else.
bool ParseLogLevel(const std::string& text, LogLevel* out);
bool ParseLogFormat(const std::string& text, LogFormat* out);

/// Applies P3GM_LOG_LEVEL and P3GM_LOG_FORMAT from the environment.
/// Invalid values are rejected loudly — one diagnostic record naming the
/// bad value and the accepted spellings — and the current setting is
/// kept. Runs implicitly before the first log record; call it directly
/// to apply the environment earlier (e.g. before any logging happens).
void InitLoggingFromEnv();

/// Writes one formatted record to stderr if `level` passes the
/// process-wide filter. Text format:
///
///   2026-08-06T12:34:56.789Z [INFO] [t0] message
///
/// (ISO-8601 UTC timestamp with milliseconds; [tN] is the thread's
/// obs::ThreadIndex(), the number flight dumps and traces print.) JSON
/// format:
///
///   {"ts":"...","level":"INFO","thread":0,"msg":"message"}
///
/// Inside an obs::RequestScope both formats carry the scope's trace and
/// span ids (a `[trace:... span:...]` segment / "trace_id" +
/// "span_id" fields), correlating every record with its request. The
/// record is assembled into one buffer and emitted with a single write
/// under a mutex, so concurrent loggers never interleave characters.
/// Every accepted record is also noted in the obs flight recorder.
void LogMessage(LogLevel level, const std::string& message);

/// Test hook: when set, complete records (no trailing newline) go to
/// `sink` instead of stderr. Pass nullptr to restore stderr output.
void SetLogSinkForTest(
    std::function<void(LogLevel, const std::string&)> sink);

/// Stream-style logger used via the P3GM_LOG macro. Emits on destruction.
class LogStream {
 public:
  explicit LogStream(LogLevel level) : level_(level) {}
  ~LogStream() { LogMessage(level_, stream_.str()); }
  LogStream(const LogStream&) = delete;
  LogStream& operator=(const LogStream&) = delete;

  template <typename T>
  LogStream& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace util
}  // namespace p3gm

#define P3GM_LOG(level) \
  ::p3gm::util::LogStream(::p3gm::util::LogLevel::k##level)

#endif  // P3GM_UTIL_LOGGING_H_
