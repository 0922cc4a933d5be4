#ifndef P3GM_SERVE_API_H_
#define P3GM_SERVE_API_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "util/result.h"

namespace p3gm {
namespace serve {

/// Wire schema of the /v1/* JSON API (docs/serving.md is the normative
/// reference). Parsing is two-staged: the strict UTF-8 check runs before
/// the JSON grammar (obs::json::Parse, which is already depth-limited),
/// so no malformed byte sequence reaches value handling.

/// True iff `s` is well-formed UTF-8: no truncated or overlong
/// sequences, no surrogate code points, nothing above U+10FFFF.
bool Utf8Valid(const std::string& s);

/// A validated POST /v1/sample body.
struct SampleRequest {
  std::string model;
  std::size_t n = 0;
  /// Optional "seed": when present the response rows are a pure function
  /// of (package, seed, n) — independent of batching, coalescing and
  /// concurrent load. Seeded requests never touch the sample cache.
  bool has_seed = false;
  std::uint64_t seed = 0;
  /// Optional "fresh": true bypasses the sample cache for this request.
  bool fresh = false;
};

/// Parses and validates a sample-request body. Errors are
/// InvalidArgument (malformed JSON / fields, maps to 400), OutOfRange
/// (n outside [1, max_n], maps to 400) or NotFound is *not* produced
/// here — model existence is the registry's call.
util::Result<SampleRequest> ParseSampleRequest(const std::string& body,
                                               std::size_t max_n);

/// {"error": "<message>"} with proper escaping.
std::string ErrorJson(const std::string& message);

/// Appends the response body for a sample request to `*out`: row-major
/// features, integer labels, and enough metadata for a client to
/// interpret the shape. Every feature is written as the shortest decimal
/// that parses back to the same double (std::to_chars), so the bytes
/// are a pure function of the values. JSON has no spelling for NaN or
/// infinity: a block holding one is an Internal error (the server
/// answers 500) and `*out` is left as it was.
util::Status AppendSampleResponseJson(const std::string& model,
                                      std::uint64_t generation, bool cached,
                                      const data::Dataset& rows,
                                      std::string* out);

/// The AppendSampleResponseJson body as a string; a block it refuses
/// yields the ErrorJson body naming the non-finite value instead.
std::string SampleResponseJson(const std::string& model,
                               std::uint64_t generation, bool cached,
                               const data::Dataset& rows);

}  // namespace serve
}  // namespace p3gm

#endif  // P3GM_SERVE_API_H_
