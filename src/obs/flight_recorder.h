#ifndef P3GM_OBS_FLIGHT_RECORDER_H_
#define P3GM_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "obs/per_thread_slots.h"

namespace p3gm {
namespace obs {

/// Black-box flight recorder: a fixed-size per-thread ring buffer of
/// recent structured events (span ends, log records, queue-depth
/// transitions) that keeps recording even when tracing is disabled, so
/// there is always a record of the last moments before a crash or stall.
///
/// Hot path: single-writer per ring — five relaxed atomic word stores
/// plus one release store of the head, no locks, no allocation after a
/// thread's first event. Readers (metrics, dumps) tolerate torn events
/// at the wrap point; a post-mortem tool does not need perfection.
///
/// Dumping is async-signal-safe: DumpToFd formats with write(2) and
/// stack buffers only (no malloc, no stdio), so the fatal-signal
/// handlers installed by InstallFlightDumpHandlers can call it from a
/// SIGSEGV context. Labels must be string literals or interned strings
/// (stored by pointer).
///
/// Unlike the tracing and metrics instruments this is NOT gated on
/// obs::Enabled(); opt out with the P3GM_FLIGHT_RECORDER=0 env var or
/// SetEnabled(false).
class FlightRecorder {
 public:
  enum class EventKind : std::uint32_t {
    kSpanEnd = 1,     // a = start_ns, b = span id
    kLog = 2,         // a, b = first 16 bytes of the message
    kQueueDepth = 3,  // a = new depth, b = queue limit
    kRequest = 4,     // a = span id, b = endpoint-specific detail
  };

  /// The process-wide recorder (never destroyed; rings leak on purpose
  /// so a crash handler can always walk them).
  static FlightRecorder& Global();

  /// Appends one event to the calling thread's ring, overwriting the
  /// oldest once the ring is full. `label` is stored by pointer.
  void Record(EventKind kind, const char* label, std::uint64_t a = 0,
              std::uint64_t b = 0);

  /// Record(kLog, ...) with the message's first 16 bytes packed into
  /// the payload words so dumps show a prefix of what was logged.
  void RecordLog(const char* level_label, const char* message,
                 std::size_t message_len);

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void SetEnabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Total events recorded / lost to ring wrap, summed over threads.
  std::uint64_t RecordedCount() const;
  std::uint64_t OverwrittenCount() const;
  /// Events lost because their thread is past PerThreadSlots::kCapacity.
  std::uint64_t DroppedCount() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Writes a human-readable dump of every ring (oldest event first per
  /// ring) to `fd`. Async-signal-safe.
  void DumpToFd(int fd) const;

  /// DumpToFd into `path` (created/truncated, mode 0644). Also
  /// async-signal-safe. Returns false if the file cannot be opened.
  bool DumpToFile(const char* path) const;

  /// Ring size for threads that have not yet recorded (rounded up to a
  /// power of two; existing rings keep their size). Default 4096.
  void SetCapacityPerThread(std::size_t capacity);

 private:
  // One slot = kWordsPerEvent atomic words:
  //   [0] timestamp (obs::NowNs), [1] label pointer, [2] a, [3] b,
  //   [4] kind << 32 | tid.
  static constexpr std::size_t kWordsPerEvent = 5;

  struct Ring {
    std::uint32_t tid = 0;
    std::size_t capacity = 0;  // Power of two.
    std::atomic<std::uint64_t> head{0};  // Total events ever recorded.
    std::unique_ptr<std::atomic<std::uint64_t>[]> words;
  };

  FlightRecorder();

  std::atomic<bool> enabled_{true};
  std::atomic<std::size_t> capacity_per_thread_{4096};
  std::atomic<std::uint64_t> dropped_{0};
  // Lock-free, so a signal handler can walk the rings without a mutex.
  PerThreadSlots<Ring> rings_;
};

/// Installs signal handlers that dump the flight recorder to `path`:
/// SIGQUIT dumps and continues running (kill -QUIT = "show me the last
/// N events"); SIGSEGV / SIGABRT / SIGBUS dump, append a backtrace, and
/// re-raise with the default disposition so the process still dies (and
/// still cores, where enabled). Safe to call more than once; the last
/// path wins.
void InstallFlightDumpHandlers(const std::string& path);

/// The path registered with InstallFlightDumpHandlers ("" if none).
const char* FlightDumpPath();

}  // namespace obs
}  // namespace p3gm

#endif  // P3GM_OBS_FLIGHT_RECORDER_H_
