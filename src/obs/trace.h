#ifndef P3GM_OBS_TRACE_H_
#define P3GM_OBS_TRACE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "obs/observability.h"
#include "obs/per_thread_slots.h"
#include "obs/trace_context.h"

namespace p3gm {
namespace obs {

/// Scoped trace spans exported in the chrome://tracing / Perfetto JSON
/// format. Instrument a region with the RAII macro:
///
///   void Matmul(...) {
///     P3GM_TRACE_SPAN("linalg.gemm");
///     ...
///   }
///
/// Each span records (name, begin, end, thread) into the thread's
/// obs::PerThreadSlots buffer: no cross-thread synchronization on the hot
/// path beyond one relaxed atomic load (the enabled flag) and one
/// uncontended per-thread mutex lock at span end. Span names must be
/// string literals (or otherwise outlive the recorder) — they are stored
/// by pointer, not copied.
/// Nested spans nest naturally in the viewer ("X" complete events).
///
/// With P3GM_OBSERVABILITY=OFF the macro expands to nothing; with the
/// runtime flag off a span costs one atomic load and records nothing.

class TraceRecorder {
 public:
  struct Event {
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::uint32_t tid;  // obs::ThreadIndex() of the recording thread.
    // Request attribution (all zero for spans outside a request scope):
    // the owning trace id, this span's id, and its parent span id —
    // exported as chrome-JSON "args" so a batched decode span links back
    // to every coalesced request in the Perfetto view.
    std::uint64_t trace_hi = 0;
    std::uint64_t trace_lo = 0;
    std::uint64_t span_id = 0;
    std::uint64_t parent_id = 0;

    bool has_context() const { return (trace_hi | trace_lo) != 0; }
  };

  /// The process-wide recorder (never destroyed).
  static TraceRecorder& Global();

  /// Appends one completed span for the calling thread. Drops (and
  /// counts) events beyond the per-thread capacity or slot capacity.
  void Append(const char* name, std::uint64_t start_ns,
              std::uint64_t end_ns);

  /// As above, stamped with an explicit trace context: the span records
  /// ctx's trace id and span id, and parent_id = ctx.parent_span_id.
  void Append(const char* name, std::uint64_t start_ns,
              std::uint64_t end_ns, const TraceContext& ctx);

  /// Interns a dynamic span name (e.g. "serve.decode:alpha") so it can
  /// be stored by pointer like a literal. Idempotent per distinct string;
  /// interned names live for the process lifetime.
  const char* InternName(const std::string& name);

  /// Copies out every buffered event, ordered by (tid, start).
  std::vector<Event> Events() const;

  std::size_t EventCount() const;
  std::uint64_t DroppedCount() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Discards buffered events (buffers and registered threads persist).
  void Clear();

  /// Per-thread event cap; guards against unbounded growth on long runs.
  void SetCapacityPerThread(std::size_t capacity);

  /// Serializes to the chrome://tracing "traceEvents" JSON format
  /// (load in chrome://tracing or https://ui.perfetto.dev). Timestamps
  /// are microseconds on the shared obs::NowNs timebase.
  std::string ToChromeJson() const;
  bool WriteChromeJson(const std::string& path) const;

 private:
  struct ThreadBuffer {
    mutable std::mutex mutex;
    std::vector<Event> events;
  };

  TraceRecorder() = default;

  // Never freed, so short-lived workers' events reach the export.
  PerThreadSlots<ThreadBuffer> buffers_;
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::size_t> capacity_per_thread_{1 << 20};

  // Interned dynamic span names; unordered_set node storage keeps the
  // c_str() pointers stable across rehash, and entries are never erased.
  std::mutex intern_mutex_;
  std::unordered_set<std::string> interned_names_;
};

/// RAII span; prefer the P3GM_TRACE_SPAN macro. Spans opened inside a
/// RequestScope inherit the scope's trace context automatically, so
/// existing instrumentation gains request attribution for free.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) {
    if (Enabled()) {
      name_ = name;
      ctx_ = CurrentContext();
      start_ns_ = NowNs();
    }
  }
  ~TraceSpan() {
    if (name_ != nullptr) {
      TraceRecorder::Global().Append(name_, start_ns_, NowNs(), ctx_);
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_ = nullptr;
  std::uint64_t start_ns_ = 0;
  TraceContext ctx_;
};

}  // namespace obs
}  // namespace p3gm

#define P3GM_OBS_CONCAT_INNER(a, b) a##b
#define P3GM_OBS_CONCAT(a, b) P3GM_OBS_CONCAT_INNER(a, b)

#if P3GM_OBSERVABILITY_ENABLED
#define P3GM_TRACE_SPAN(name) \
  ::p3gm::obs::TraceSpan P3GM_OBS_CONCAT(p3gm_trace_span_, __LINE__)(name)
#else
#define P3GM_TRACE_SPAN(name) \
  do {                        \
  } while (0)
#endif

#endif  // P3GM_OBS_TRACE_H_
