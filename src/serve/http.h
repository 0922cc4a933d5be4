#ifndef P3GM_SERVE_HTTP_H_
#define P3GM_SERVE_HTTP_H_

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace p3gm {
namespace serve {

/// Minimal, hardened HTTP/1.1 message layer for the `p3gm serve` daemon
/// and its in-repo test client. Deliberately small: no chunked encoding
/// (rejected with 501), no multipart, no TLS — a synthesis daemon speaks
/// small JSON bodies over trusted networks. What it *is* careful about
/// is untrusted input: every limit below is enforced before any
/// allocation proportional to the claimed size, and malformed input of
/// any shape must produce a 4xx/5xx status code, never a crash (the
/// table-driven corpus in tests/test_serve_http.cc pins this under
/// ASan/UBSan).

/// Hard ceilings applied while parsing a request. A request exceeding a
/// limit is rejected with the HTTP status noted per field.
struct HttpLimits {
  std::size_t max_start_line = 8192;      // Request line bytes (414/400).
  std::size_t max_header_bytes = 16384;   // Total header block (431).
  std::size_t max_headers = 64;           // Header count (431).
  std::size_t max_body_bytes = 4u << 20;  // Content-Length cap (413).
};

struct HttpRequest {
  std::string method;   // Uppercase token, e.g. "GET".
  std::string target;   // Origin-form target, e.g. "/v1/metrics?format=x".
  std::string path;     // Target up to (not including) any '?'.
  std::string query;    // Raw query string after '?', "" when absent.
  std::string version;  // "HTTP/1.0" or "HTTP/1.1".
  std::vector<std::pair<std::string, std::string>> headers;
  /// Split "k1=v1&k2=v2" pairs from `query` (no percent decoding — the
  /// keys and values this server defines are plain tokens).
  std::vector<std::pair<std::string, std::string>> query_params;
  std::string body;

  /// Case-insensitive header lookup; nullptr when absent.
  const std::string* FindHeader(const std::string& name) const;

  /// Exact-match query parameter lookup; nullptr when absent. A bare
  /// "k" (no '=') yields an empty value.
  const std::string* QueryParam(const std::string& key) const;

  /// HTTP/1.1 defaults to keep-alive; "Connection: close" (or 1.0
  /// without "keep-alive") opts out.
  bool KeepAlive() const;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  /// Extra headers appended verbatim (e.g. {"Retry-After", "1"}).
  std::vector<std::pair<std::string, std::string>> extra_headers;
  std::string body;
  bool close_connection = false;

  /// Status line + headers (Content-Length always set) + the blank line:
  /// everything before the body, so a writer can send head and body as
  /// two buffers without concatenating them.
  std::string SerializeHead() const;

  /// SerializeHead() + body: the full wire bytes.
  std::string Serialize() const;

 private:
  void AppendHead(std::string* out) const;
};

/// Stable reason phrase for the status codes this server emits.
const char* ReasonPhrase(int status);

/// Incremental request parser. Feed() bytes as they arrive; once
/// state() == kDone, request() holds the parsed message and any extra
/// bytes already received (pipelined next request) are retained across
/// ResetForNext(). On kError, error_status()/error_message() describe
/// the rejection; the connection should answer and close.
class HttpParser {
 public:
  explicit HttpParser(HttpLimits limits = HttpLimits());

  enum class State { kHeaders, kBody, kDone, kError };

  void Feed(const char* data, std::size_t len);
  void Feed(const std::string& data) { Feed(data.data(), data.size()); }

  State state() const { return state_; }
  bool done() const { return state_ == State::kDone; }
  bool failed() const { return state_ == State::kError; }

  /// Valid once done().
  const HttpRequest& request() const { return request_; }

  /// Valid once failed(): the HTTP status to answer with (400, 413,
  /// 414, 431, 501) and a one-line reason for the error body.
  int error_status() const { return error_status_; }
  const std::string& error_message() const { return error_message_; }

  /// Re-arms the parser for the next request on a keep-alive
  /// connection, keeping unconsumed buffered bytes.
  void ResetForNext();

 private:
  void Fail(int status, std::string message);
  void TryParse();
  bool ParseHeaderBlock(std::size_t block_end);

  HttpLimits limits_;
  State state_ = State::kHeaders;
  std::string buffer_;
  std::size_t body_bytes_needed_ = 0;
  HttpRequest request_;
  int error_status_ = 0;
  std::string error_message_;
};

}  // namespace serve
}  // namespace p3gm

#endif  // P3GM_SERVE_HTTP_H_
