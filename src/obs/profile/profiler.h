#ifndef P3GM_OBS_PROFILE_PROFILER_H_
#define P3GM_OBS_PROFILE_PROFILER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/result.h"

namespace p3gm {
namespace obs {
namespace profile {

/// In-process sampling CPU profiler (docs/observability.md "Profiling").
///
/// A SIGPROF interval timer (setitimer(ITIMER_PROF)) fires at `hz` per
/// second of consumed process CPU time; the kernel delivers each tick to
/// a thread that is currently running, so samples are CPU-weighted
/// across threads for free. The handler captures a raw program-counter
/// stack into the calling thread's lock-free ring and returns — zero
/// locks, zero allocation, zero syscalls on the sampling path. A thread
/// takes a ring from a pool that Start pre-allocates and keeps it in its
/// obs::PerThreadSlots slot (obs/per_thread_slots.h): one writer per
/// ring, torn-tolerant readers, loss accounted instead of blocked.
///
/// Symbolization (dladdr + demangling) happens exclusively at collection
/// time, never in the handler. The collected profile renders as folded
/// stacks — `frame;frame;...;leaf <count>` — the format flamegraph.pl
/// and the existing tools/trace_to_folded pipeline consume.
///
/// Like the flight recorder, the profiler is NOT gated on
/// obs::Enabled(): it is strictly passive (never feeds a computation,
/// never consumes util::Rng), so it is available even in
/// -DP3GM_OBSERVABILITY=OFF builds; only the obs.profile.* registry
/// gauges become no-ops there.

/// Hard compile-time caps of the sampling path.
constexpr std::size_t kMaxStackDepth = 64;  // Frames kept per sample.
constexpr int kMaxProfiledThreads = 64;     // Rings allocated, at most.

struct CpuProfileOptions {
  /// Samples per second of CPU time, [1, 1000]. 99 (not 100) keeps the
  /// sampler out of lockstep with 10ms-periodic application timers.
  int hz = 99;
  /// Samples each thread's ring holds before the oldest is overwritten
  /// (rounded up to a power of two). At the default hz a ring covers
  /// ~40s of one saturated core.
  std::size_t ring_capacity = 4096;
};

/// One aggregated, symbolized stack with its sample count.
struct FoldedStack {
  std::string stack;  // "outer;inner;leaf" — root frame first.
  std::uint64_t weight = 0;
};

/// A finished CPU profile.
struct CpuProfile {
  std::uint64_t samples = 0;  // Captured into rings.
  std::uint64_t dropped = 0;  // Lost: ring wrap, pool exhaustion, walk
                              // failure. samples+dropped = timer ticks.
  double duration_seconds = 0.0;  // Wall time Start -> Stop.
  int hz = 0;
  std::vector<FoldedStack> folded;  // Sorted by descending weight.

  /// Folded-stack text: one "stack <weight>" line per entry, the exact
  /// shape `tools/trace_to_folded` emits and flamegraph.pl consumes.
  std::string ToFoldedText() const;
};

/// The process-wide sampling profiler. One profile at a time: Start
/// while running fails with FailedPrecondition (the serve endpoint maps
/// this to 503). Thread-safe; Start/Stop may be called from any thread.
class CpuProfiler {
 public:
  static CpuProfiler& Global();

  /// Validates options, arms the SIGPROF timer and begins sampling.
  /// FailedPrecondition when a profile is already running,
  /// InvalidArgument on out-of-range options, Unavailable when the
  /// platform lacks both stack walkers.
  util::Status Start(const CpuProfileOptions& options);

  bool running() const;

  /// Disarms the timer, merges every ring, symbolizes at dump time and
  /// returns the aggregated profile. Also publishes the final
  /// obs.profile.samples / obs.profile.dropped registry gauges.
  /// FailedPrecondition when no profile is running.
  util::Result<CpuProfile> Stop();

  /// Live loss accounting for the in-flight profile (both 0 when idle).
  std::uint64_t SamplesCaptured() const;
  std::uint64_t SamplesDropped() const;

 private:
  CpuProfiler() = default;
};

/// Sample rings threads hold plus the (at most 8) spares Start keeps
/// ready; never above kMaxProfiledThreads. Exposed for tests.
int RingsAllocated();

/// True when the signal handler walks frame pointers; false when it
/// uses the pre-warmed backtrace() unwinder. Decided once per Start by
/// probing whether this build carries usable frame pointers. Exposed
/// for tests and the runinfo line.
bool UsingFramePointerWalk();

}  // namespace profile
}  // namespace obs
}  // namespace p3gm

#endif  // P3GM_OBS_PROFILE_PROFILER_H_
