#include "obs/profile/profiler.h"

#include <signal.h>
#include <string.h>
#include <sys/time.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <map>
#include <mutex>
#include <vector>

#if __has_include(<execinfo.h>)
#include <execinfo.h>
#define P3GM_HAVE_EXECINFO 1
#else
#define P3GM_HAVE_EXECINFO 0
#endif

#include "obs/observability.h"
#include "obs/per_thread_slots.h"
#include "obs/profile/symbolize.h"
#include "obs/registry.h"

namespace p3gm {
namespace obs {
namespace profile {

namespace {

// ---------------------------------------------------------------------
// Sampling state. Everything the SIGPROF handler touches is a
// constant-initialized atomic or pre-allocated memory: the handler
// performs no allocation, takes no lock and makes no syscall.
// ---------------------------------------------------------------------

// One slot = kWordsPerSample words: [0] depth, [1..depth] pcs.
constexpr std::size_t kWordsPerSample = 1 + kMaxStackDepth;

struct Ring {
  std::size_t capacity = 0;            // Samples; power of two.
  std::atomic<std::uint64_t> head{0};  // Samples ever written.
  std::atomic<std::uint64_t>* words = nullptr;
};

// Rings are allocated by Start, never in the handler, and leaked so a
// handler can always walk them. A thread takes a spare on its first
// sample and keeps it for the life of the process.
constinit PerThreadSlots<Ring> g_rings;
std::atomic<Ring*> g_spares[8];

std::atomic<bool> g_collecting{false};
std::atomic<bool> g_use_frame_pointers{false};
std::atomic<std::uint64_t> g_samples{0};
std::atomic<std::uint64_t> g_dropped{0};

std::mutex g_lifecycle_mutex;  // Serializes Start/Stop (cold path).
bool g_handler_installed = false;
std::uint64_t g_start_ns = 0;
int g_hz = 0;

// Finding no spare costs loads only and moves no counter, so ring-less
// samples cannot inflate the next Start's refill.
Ring* TakeSpareRing() {
  for (std::atomic<Ring*>& spare : g_spares) {
    if (spare.load(std::memory_order_relaxed) == nullptr) continue;
    if (Ring* ring = spare.exchange(nullptr)) return ring;
  }
  return nullptr;
}

}  // namespace

// --- stack capture -----------------------------------------------------
// External linkage on purpose: CMAKE_ENABLE_EXPORTS puts these names in
// the dynamic table, so dladdr can recognize the handler's own frames at
// dump time and strip them off the leaf end of every sample (the
// "obs::profile::" test in StripHandlerFrames below). In an anonymous
// namespace they would symbolize as bare hex and pollute the flamegraph.

// Frame-pointer walk: follows the saved-rbp chain from this frame
// upward. Only yields useful stacks in -fno-omit-frame-pointer builds
// (the sanitizer presets); the Start-time probe decides whether to
// trust it. Bounds checks keep a garbage chain from faulting the
// handler: each frame must move strictly upward, stay 8-byte aligned
// and advance less than 1 MiB per hop.
#if defined(__GNUC__)
__attribute__((noinline))
#endif
int ProfilerFramePointerWalk(std::uintptr_t* pcs, int max_depth) {
  int depth = 0;
  std::uintptr_t fp =
      reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
  while (depth < max_depth) {
    if (fp == 0 || (fp & 0x7) != 0) break;
    const std::uintptr_t* frame =
        reinterpret_cast<const std::uintptr_t*>(fp);
    const std::uintptr_t next_fp = frame[0];
    const std::uintptr_t ret = frame[1];
    if (ret < 0x1000) break;
    pcs[depth++] = ret;
    if (next_fp <= fp || next_fp - fp > (1u << 20)) break;
    fp = next_fp;
  }
  return depth;
}

// Captures the current stack, leaf-first. In backtrace mode the
// unwinder crosses the kernel signal frame (its unwind info is marked),
// so samples see the interrupted application stack, not just the
// handler; glibc's lazy libgcc dlopen is taken once at Start, outside
// any handler, exactly like flight_recorder.cc pre-warms its dump path.
int ProfilerCaptureStack(std::uintptr_t* pcs, int max_depth) {
  if (g_use_frame_pointers.load(std::memory_order_relaxed)) {
    return ProfilerFramePointerWalk(pcs, max_depth);
  }
#if P3GM_HAVE_EXECINFO
  void* frames[kMaxStackDepth];
  const int depth = ::backtrace(frames, max_depth);
  for (int i = 0; i < depth; ++i) {
    pcs[i] = reinterpret_cast<std::uintptr_t>(frames[i]);
  }
  return depth;
#else
  return ProfilerFramePointerWalk(pcs, max_depth);
#endif
}

void ProfilerHandleSample() {
  // nullptr past the slot capacity or with no spare left: the sample is
  // dropped (counted), and the next Start refills the spares.
  Ring* ring = g_rings.Local(TakeSpareRing);
  if (ring == nullptr) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  std::uintptr_t pcs[kMaxStackDepth];
  const int depth =
      ProfilerCaptureStack(pcs, static_cast<int>(kMaxStackDepth));
  if (depth <= 0) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const std::uint64_t seq = ring->head.load(std::memory_order_relaxed);
  std::atomic<std::uint64_t>* slot =
      ring->words + (seq & (ring->capacity - 1)) * kWordsPerSample;
  slot[0].store(static_cast<std::uint64_t>(depth),
                std::memory_order_relaxed);
  for (int i = 0; i < depth; ++i) {
    slot[1 + i].store(pcs[i], std::memory_order_relaxed);
  }
  ring->head.store(seq + 1, std::memory_order_release);
  g_samples.fetch_add(1, std::memory_order_relaxed);
}

void ProfilerSignalHandler(int) {
  if (!g_collecting.load(std::memory_order_relaxed)) return;
  const int saved_errno = errno;
  ProfilerHandleSample();
  errno = saved_errno;
}

namespace {

// Pre-allocates spare rings so the handler never has to. Runs under the
// lifecycle mutex in normal context.
void RefillSpareRings(std::size_t capacity) {
  int allocated = RingsAllocated();
  for (std::atomic<Ring*>& spare : g_spares) {
    if (allocated >= kMaxProfiledThreads) break;
    if (spare.load(std::memory_order_relaxed) != nullptr) continue;
    auto* ring = new Ring();  // Leaked: handlers may walk rings forever.
    ring->capacity = capacity;
    ring->words = new std::atomic<std::uint64_t>[ring->capacity *
                                                 kWordsPerSample]();
    spare.store(ring, std::memory_order_release);
    ++allocated;
  }
}

// Start-time probe: trust the frame-pointer walk only when it can see
// through a small noinline call chain in this build.
#if defined(__GNUC__)
__attribute__((noinline))
#endif
int ProbeDepth2(std::uintptr_t* pcs) {
  return ProfilerFramePointerWalk(pcs, static_cast<int>(kMaxStackDepth));
}
#if defined(__GNUC__)
__attribute__((noinline))
#endif
int ProbeDepth1(std::uintptr_t* pcs) { return ProbeDepth2(pcs); }

bool ProbeFramePointers() {
  std::uintptr_t pcs[kMaxStackDepth];
  return ProbeDepth1(pcs) >= 3;
}

// Profiler-internal frames captured below the interrupted pc (the
// handler itself plus the signal trampoline) are stripped at fold time
// so flamegraphs show only application stacks.
bool IsProfilerInternalFrame(const std::string& name) {
  return name.find("obs::profile::") != std::string::npos ||
         name.find("__restore_rt") != std::string::npos ||
         name.find("killpg") != std::string::npos;
}

}  // namespace

int RingsAllocated() {
  int rings = 0;
  g_rings.ForEach([&rings](const Ring*) { ++rings; });
  for (const std::atomic<Ring*>& spare : g_spares) {
    rings += spare.load(std::memory_order_relaxed) != nullptr;
  }
  return rings;
}

bool UsingFramePointerWalk() {
  return g_use_frame_pointers.load(std::memory_order_relaxed);
}

CpuProfiler& CpuProfiler::Global() {
  static CpuProfiler* global = new CpuProfiler();
  return *global;
}

bool CpuProfiler::running() const {
  return g_collecting.load(std::memory_order_acquire);
}

std::uint64_t CpuProfiler::SamplesCaptured() const {
  return g_samples.load(std::memory_order_relaxed);
}

std::uint64_t CpuProfiler::SamplesDropped() const {
  return g_dropped.load(std::memory_order_relaxed);
}

util::Status CpuProfiler::Start(const CpuProfileOptions& options) {
  if (options.hz < 1 || options.hz > 1000) {
    return util::Status::InvalidArgument(
        "CpuProfiler: hz must be in [1, 1000]");
  }
  if (options.ring_capacity < 64 || options.ring_capacity > (1u << 20)) {
    return util::Status::InvalidArgument(
        "CpuProfiler: ring_capacity must be in [64, 1048576]");
  }
  std::lock_guard<std::mutex> lock(g_lifecycle_mutex);
  if (g_collecting.load(std::memory_order_acquire)) {
    return util::Status::FailedPrecondition(
        "CpuProfiler: a profile is already running");
  }

#if P3GM_HAVE_EXECINFO
  // backtrace() may lazily dlopen libgcc on first use, which is not
  // signal-safe — take that hit here, outside any handler.
  void* warmup[4];
  ::backtrace(warmup, 4);
  g_use_frame_pointers.store(ProbeFramePointers(),
                             std::memory_order_relaxed);
#else
  if (!ProbeFramePointers()) {
    return util::Status::Unimplemented(
        "CpuProfiler: no usable stack walker on this platform");
  }
  g_use_frame_pointers.store(true, std::memory_order_relaxed);
#endif

  RefillSpareRings(std::bit_ceil(options.ring_capacity));
  g_rings.ForEach([](Ring* ring) {
    ring->head.store(0, std::memory_order_relaxed);
  });
  g_samples.store(0, std::memory_order_relaxed);
  g_dropped.store(0, std::memory_order_relaxed);
  g_hz = options.hz;
  g_start_ns = NowNs();

  // Installed once, never restored: the handler gates on g_collecting,
  // so a straggler SIGPROF after Stop is a no-op instead of a crash.
  if (!g_handler_installed) {
    struct sigaction action;
    ::memset(&action, 0, sizeof action);
    action.sa_handler = ProfilerSignalHandler;
    ::sigemptyset(&action.sa_mask);
    action.sa_flags = SA_RESTART;
    if (::sigaction(SIGPROF, &action, nullptr) != 0) {
      return util::Status::IoError("CpuProfiler: sigaction failed");
    }
    g_handler_installed = true;
  }
  g_collecting.store(true, std::memory_order_release);

  struct itimerval interval;
  ::memset(&interval, 0, sizeof interval);
  const long usec = std::max(1000000L / options.hz, 1L);
  interval.it_interval.tv_sec = usec / 1000000;
  interval.it_interval.tv_usec = usec % 1000000;
  interval.it_value = interval.it_interval;
  if (::setitimer(ITIMER_PROF, &interval, nullptr) != 0) {
    g_collecting.store(false, std::memory_order_release);
    return util::Status::IoError("CpuProfiler: setitimer failed");
  }
  return util::Status::OK();
}

util::Result<CpuProfile> CpuProfiler::Stop() {
  std::lock_guard<std::mutex> lock(g_lifecycle_mutex);
  if (!g_collecting.load(std::memory_order_acquire)) {
    return util::Status::FailedPrecondition(
        "CpuProfiler: no profile is running");
  }
  struct itimerval disarm;
  ::memset(&disarm, 0, sizeof disarm);
  ::setitimer(ITIMER_PROF, &disarm, nullptr);
  g_collecting.store(false, std::memory_order_release);
  // A tick delivered just before the disarm may still be executing its
  // handler on another thread; give it a moment so the merge below sees
  // at most one torn sample per ring (which it tolerates anyway).
  struct timespec settle = {0, 2 * 1000 * 1000};
  ::nanosleep(&settle, nullptr);

  CpuProfile profile;
  profile.hz = g_hz;
  profile.duration_seconds =
      static_cast<double>(NowNs() - g_start_ns) * 1e-9;
  profile.samples = g_samples.load(std::memory_order_relaxed);
  profile.dropped = g_dropped.load(std::memory_order_relaxed);

  // Merge: aggregate identical raw stacks first so each unique stack is
  // symbolized exactly once.
  std::map<std::vector<std::uintptr_t>, std::uint64_t> raw;
  g_rings.ForEach([&profile, &raw](const Ring* ring) {
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    const std::uint64_t n = std::min<std::uint64_t>(head, ring->capacity);
    if (head > ring->capacity) {
      profile.dropped += head - ring->capacity;  // Ring-wrap loss.
    }
    for (std::uint64_t seq = head - n; seq != head; ++seq) {
      const std::atomic<std::uint64_t>* slot =
          ring->words + (seq & (ring->capacity - 1)) * kWordsPerSample;
      const std::uint64_t depth =
          slot[0].load(std::memory_order_relaxed);
      if (depth == 0 || depth > kMaxStackDepth) {
        profile.dropped += 1;  // Torn slot at the wrap point.
        continue;
      }
      std::vector<std::uintptr_t> pcs(depth);
      for (std::uint64_t d = 0; d < depth; ++d) {
        pcs[d] = static_cast<std::uintptr_t>(
            slot[1 + d].load(std::memory_order_relaxed));
      }
      raw[pcs] += 1;
    }
  });

  // Symbolize at dump time, strip the handler's own frames off the leaf
  // end, and fold equal stacks (two raw stacks can collapse to one
  // folded line once addresses resolve to the same symbols).
  std::map<std::string, std::uint64_t> folded;
  for (const auto& [pcs, count] : raw) {
    std::size_t begin = 0;
    while (begin < pcs.size() &&
           IsProfilerInternalFrame(SymbolizePc(
               begin == 0 ? pcs[0] : AdjustReturnAddress(pcs[begin])))) {
      ++begin;
    }
    // Directly outside the handler sits the kernel signal trampoline;
    // when it resolves (__restore_rt) the loop above ate it, when it
    // doesn't it is the single unresolvable frame left on the leaf end.
    if (begin > 0 && begin < pcs.size() &&
        SymbolizePc(AdjustReturnAddress(pcs[begin])).compare(0, 2, "0x") ==
            0) {
      ++begin;
    }
    if (begin >= pcs.size()) begin = 0;  // Keep rather than lose.
    folded[FoldStack(pcs.data() + begin, pcs.size() - begin)] += count;
  }
  profile.folded.reserve(folded.size());
  for (auto& [stack, weight] : folded) {
    profile.folded.push_back(FoldedStack{stack, weight});
  }
  std::sort(profile.folded.begin(), profile.folded.end(),
            [](const FoldedStack& a, const FoldedStack& b) {
              if (a.weight != b.weight) return a.weight > b.weight;
              return a.stack < b.stack;
            });

  Registry::Global().gauge("obs.profile.samples")
      ->Set(static_cast<double>(profile.samples));
  Registry::Global().gauge("obs.profile.dropped")
      ->Set(static_cast<double>(profile.dropped));
  return profile;
}

std::string CpuProfile::ToFoldedText() const {
  std::string out;
  for (const FoldedStack& fs : folded) {
    out += fs.stack;
    out += ' ';
    out += std::to_string(fs.weight);
    out += '\n';
  }
  return out;
}

}  // namespace profile
}  // namespace obs
}  // namespace p3gm
