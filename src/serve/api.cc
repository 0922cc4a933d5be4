#include "serve/api.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <vector>

#include "obs/json.h"
#include "util/thread_pool.h"

namespace p3gm {
namespace serve {

bool Utf8Valid(const std::string& s) {
  const unsigned char* p = reinterpret_cast<const unsigned char*>(s.data());
  const unsigned char* end = p + s.size();
  while (p < end) {
    const unsigned char c = *p;
    if (c < 0x80) {
      ++p;
      continue;
    }
    int extra;
    unsigned cp;
    if ((c & 0xE0) == 0xC0) {
      extra = 1;
      cp = c & 0x1Fu;
    } else if ((c & 0xF0) == 0xE0) {
      extra = 2;
      cp = c & 0x0Fu;
    } else if ((c & 0xF8) == 0xF0) {
      extra = 3;
      cp = c & 0x07u;
    } else {
      return false;  // Lone continuation byte or 0xF8+ lead.
    }
    if (end - p <= extra) return false;  // Truncated sequence.
    for (int i = 1; i <= extra; ++i) {
      if ((p[i] & 0xC0) != 0x80) return false;
      cp = (cp << 6) | (p[i] & 0x3Fu);
    }
    // Overlong encodings, UTF-16 surrogates and out-of-range points are
    // the classic smuggling vectors; reject all three.
    static constexpr unsigned kMinByLen[4] = {0, 0x80, 0x800, 0x10000};
    if (cp < kMinByLen[extra]) return false;
    if (cp >= 0xD800 && cp <= 0xDFFF) return false;
    if (cp > 0x10FFFF) return false;
    p += extra + 1;
  }
  return true;
}

util::Result<SampleRequest> ParseSampleRequest(const std::string& body,
                                               std::size_t max_n) {
  if (!Utf8Valid(body)) {
    return util::Status::InvalidArgument("body is not valid UTF-8");
  }
  obs::json::Value root;
  std::string error;
  if (!obs::json::Parse(body, &root, &error)) {
    return util::Status::InvalidArgument("malformed JSON: " + error);
  }
  if (!root.is_object()) {
    return util::Status::InvalidArgument("body must be a JSON object");
  }
  SampleRequest req;
  const obs::json::Value* model = root.Find("model");
  if (model == nullptr || !model->is_string() ||
      model->string_value.empty()) {
    return util::Status::InvalidArgument(
        "\"model\" must be a non-empty string");
  }
  req.model = model->string_value;
  const obs::json::Value* n = root.Find("n");
  if (n == nullptr || !n->is_number()) {
    return util::Status::InvalidArgument("\"n\" must be a number");
  }
  const double nv = n->number_value;
  if (!(nv >= 1.0) || nv != std::floor(nv)) {
    return util::Status::OutOfRange("\"n\" must be a positive integer");
  }
  if (nv > static_cast<double>(max_n)) {
    return util::Status::OutOfRange(
        "\"n\" exceeds the server's --max-n limit");
  }
  req.n = static_cast<std::size_t>(nv);
  if (const obs::json::Value* seed = root.Find("seed")) {
    const double sv = seed->number_value;
    // 2^53: the largest width at which every integer survives the
    // JSON-number (double) round trip, so a client never gets a
    // silently truncated seed.
    if (!seed->is_number() || sv < 0.0 || sv != std::floor(sv) ||
        sv > 9007199254740992.0) {
      return util::Status::InvalidArgument(
          "\"seed\" must be a non-negative integer <= 2^53");
    }
    req.has_seed = true;
    req.seed = static_cast<std::uint64_t>(sv);
  }
  if (const obs::json::Value* fresh = root.Find("fresh")) {
    if (fresh->kind != obs::json::Value::Kind::kBool) {
      return util::Status::InvalidArgument("\"fresh\" must be a boolean");
    }
    req.fresh = fresh->bool_value;
  }
  return req;
}

std::string ErrorJson(const std::string& message) {
  return "{\"error\": \"" + obs::json::Escape(message) + "\"}";
}

namespace {

// Longest std::to_chars outputs: a shortest round-trip double
// ("-2.2250738585072014e-308") and a 64-bit unsigned integer.
constexpr std::size_t kMaxDoubleChars = 24;
constexpr std::size_t kMaxUintChars = 20;

template <std::size_t N>
char* Put(char* p, const char (&literal)[N]) {
  std::memcpy(p, literal, N - 1);
  return p + N - 1;
}

char* Put(char* p, const std::string& s) {
  std::memcpy(p, s.data(), s.size());
  return p + s.size();
}

char* PutUint(char* p, std::uint64_t v) {
  return std::to_chars(p, p + kMaxUintChars, v).ptr;
}

// Rows are formatted in chunks of about this many values on the util
// thread pool. The chunk grid depends only on the block's shape and each
// value's text only on the value, so the bytes do not depend on the
// thread count.
constexpr std::size_t kValuesPerChunk = 2048;
constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);

// Writes rows [begin, end) as `[v, v], [v, v]` (row 0 without the
// leading separator) at p and returns the end. On a non-finite value it
// stops, stores the value's row-major index in *bad and returns p.
char* PutRows(const linalg::Matrix& features, std::size_t begin,
              std::size_t end, char* p, std::size_t* bad) {
  const std::size_t dim = features.cols();
  for (std::size_t i = begin; i < end; ++i) {
    if (i > 0) p = Put(p, ", ");
    *p++ = '[';
    const double* row = features.row_data(i);
    for (std::size_t j = 0; j < dim; ++j) {
      if (j > 0) p = Put(p, ", ");
      if (!std::isfinite(row[j])) {
        *bad = i * dim + j;
        return p;
      }
      p = std::to_chars(p, p + kMaxDoubleChars, row[j]).ptr;
    }
    *p++ = ']';
  }
  return p;
}

}  // namespace

util::Status AppendSampleResponseJson(const std::string& model,
                                      std::uint64_t generation, bool cached,
                                      const data::Dataset& rows,
                                      std::string* out) {
  const std::string escaped_model = obs::json::Escape(model);
  const std::size_t n = rows.size();
  const std::size_t dim = rows.dim();
  // Worst-case size, so the whole body is written through raw pointers
  // into one allocation and trimmed once at the end.
  const std::size_t row_bound = 4 + dim * (kMaxDoubleChars + 2);
  const std::size_t bound = 160 + escaped_model.size() + 4 * kMaxUintChars +
                            n * row_bound +
                            rows.labels.size() * (kMaxUintChars + 2);
  const std::size_t start = out->size();
  out->resize(start + bound);
  char* p = out->data() + start;
  p = Put(p, "{\"model\": \"");
  p = Put(p, escaped_model);
  p = Put(p, "\", \"generation\": ");
  p = PutUint(p, generation);
  p = Put(p, ", \"n\": ");
  p = PutUint(p, n);
  p = Put(p, ", \"dim\": ");
  p = PutUint(p, dim);
  p = Put(p, ", \"num_classes\": ");
  p = PutUint(p, rows.num_classes);
  p = cached ? Put(p, ", \"cached\": true") : Put(p, ", \"cached\": false");
  p = Put(p, ", \"rows\": [");

  // Each chunk writes at its worst-case offset; the chunks are then slid
  // left into place in order.
  const std::size_t grain = std::max<std::size_t>(
      1, kValuesPerChunk / std::max<std::size_t>(1, dim));
  const std::size_t chunks = util::NumChunks(0, n, grain);
  std::vector<char*> ends(chunks);
  std::vector<std::size_t> bad(chunks, kNoIndex);
  char* const rows_begin = p;
  util::ParallelForChunks(
      0, n, grain, [&](std::size_t c, std::size_t begin, std::size_t end) {
        ends[c] = PutRows(rows.features, begin, end,
                          rows_begin + begin * row_bound, &bad[c]);
      });
  for (std::size_t c = 0; c < chunks; ++c) {
    if (bad[c] != kNoIndex) {
      out->resize(start);
      const double v = rows.features.data()[bad[c]];
      return util::Status::Internal(
          "decoded value at row " + std::to_string(bad[c] / dim) +
          ", column " + std::to_string(bad[c] % dim) + " is not finite (" +
          (std::isnan(v) ? "nan" : v > 0 ? "inf" : "-inf") +
          "); JSON cannot carry it");
    }
    char* const chunk_begin = rows_begin + c * grain * row_bound;
    const std::size_t length = static_cast<std::size_t>(ends[c] - chunk_begin);
    if (p != chunk_begin) std::memmove(p, chunk_begin, length);
    p += length;
  }
  p = Put(p, "], \"labels\": [");
  for (std::size_t i = 0; i < rows.labels.size(); ++i) {
    if (i > 0) p = Put(p, ", ");
    p = PutUint(p, rows.labels[i]);
  }
  p = Put(p, "]}");
  out->resize(static_cast<std::size_t>(p - out->data()));
  return util::Status::OK();
}

std::string SampleResponseJson(const std::string& model,
                               std::uint64_t generation, bool cached,
                               const data::Dataset& rows) {
  std::string out;
  const util::Status status =
      AppendSampleResponseJson(model, generation, cached, rows, &out);
  if (!status.ok()) return ErrorJson(status.message());
  return out;
}

}  // namespace serve
}  // namespace p3gm
