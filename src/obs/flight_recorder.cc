#include "obs/flight_recorder.h"

#include <fcntl.h>
#include <signal.h>
#include <string.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstdlib>

#if __has_include(<execinfo.h>)
#include <execinfo.h>
#define P3GM_HAVE_EXECINFO 1
#else
#define P3GM_HAVE_EXECINFO 0
#endif

#include "obs/observability.h"

namespace p3gm {
namespace obs {

namespace {

// --- async-signal-safe formatting: write(2) + stack buffers only ---

void WriteRaw(int fd, const char* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::write(fd, data, len);
    if (n <= 0) return;  // Best effort; we may be mid-crash.
    data += n;
    len -= static_cast<std::size_t>(n);
  }
}

void WriteStr(int fd, const char* s) { WriteRaw(fd, s, ::strlen(s)); }

void WriteU64(int fd, std::uint64_t v) {
  char buf[24];
  char* p = buf + sizeof buf;
  do {
    *--p = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  WriteRaw(fd, p, static_cast<std::size_t>(buf + sizeof buf - p));
}

void WriteHex16(int fd, std::uint64_t v) {
  static const char* kHex = "0123456789abcdef";
  char buf[16];
  for (int i = 15; i >= 0; --i) {
    buf[i] = kHex[v & 0xf];
    v >>= 4;
  }
  WriteRaw(fd, buf, sizeof buf);
}

// Prints the 16 message-prefix bytes packed into (a, b), with
// non-printable bytes as '.'; stops at the first NUL.
void WritePackedText(int fd, std::uint64_t a, std::uint64_t b) {
  char buf[16];
  std::size_t len = 0;
  const std::uint64_t words[2] = {a, b};
  for (int w = 0; w < 2; ++w) {
    for (int i = 0; i < 8; ++i) {
      const char c = static_cast<char>((words[w] >> (8 * i)) & 0xff);
      if (c == '\0') {
        WriteRaw(fd, buf, len);
        return;
      }
      buf[len++] = (c >= 0x20 && c < 0x7f) ? c : '.';
    }
  }
  WriteRaw(fd, buf, len);
}

const char* KindName(std::uint32_t kind) {
  switch (static_cast<FlightRecorder::EventKind>(kind)) {
    case FlightRecorder::EventKind::kSpanEnd:
      return "span";
    case FlightRecorder::EventKind::kLog:
      return "log";
    case FlightRecorder::EventKind::kQueueDepth:
      return "queue";
    case FlightRecorder::EventKind::kRequest:
      return "request";
  }
  return "?";
}

// --- signal handlers ---

char g_dump_path[512] = {0};
std::atomic<bool> g_in_fatal_handler{false};

void DumpWithBacktrace(int fd, int signo) {
  FlightRecorder::Global().DumpToFd(fd);
  WriteStr(fd, "signal ");
  WriteU64(fd, static_cast<std::uint64_t>(signo));
  WriteStr(fd, "\nbacktrace:\n");
#if P3GM_HAVE_EXECINFO
  void* frames[64];
  const int depth = ::backtrace(frames, 64);
  ::backtrace_symbols_fd(frames, depth, fd);
#else
  WriteStr(fd, "  (unavailable on this platform)\n");
#endif
}

int OpenDumpFile() {
  if (g_dump_path[0] == '\0') return -1;
  return ::open(g_dump_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
}

void QuitHandler(int signo) {
  const int saved_errno = errno;
  const int fd = OpenDumpFile();
  if (fd >= 0) {
    DumpWithBacktrace(fd, signo);
    ::close(fd);
  }
  errno = saved_errno;  // Dump-and-continue: don't perturb the thread.
}

void FatalHandler(int signo) {
  // A crash inside the handler (or a second crashing thread) must not
  // recurse forever; the first one in wins and the rest die immediately.
  if (!g_in_fatal_handler.exchange(true)) {
    const int fd = OpenDumpFile();
    if (fd >= 0) {
      DumpWithBacktrace(fd, signo);
      ::close(fd);
    }
    DumpWithBacktrace(STDERR_FILENO, signo);
  }
  ::signal(signo, SIG_DFL);
  ::raise(signo);
}

}  // namespace

FlightRecorder::FlightRecorder() {
  const char* env = std::getenv("P3GM_FLIGHT_RECORDER");
  if (env != nullptr &&
      (::strcmp(env, "0") == 0 || ::strcmp(env, "off") == 0 ||
       ::strcmp(env, "false") == 0)) {
    enabled_.store(false, std::memory_order_relaxed);
  }
}

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* global = new FlightRecorder();
  return *global;
}

void FlightRecorder::Record(EventKind kind, const char* label,
                            std::uint64_t a, std::uint64_t b) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  Ring* ring = rings_.Local([this] {
    auto* fresh = new Ring();  // Leaked: crash handlers walk rings forever.
    fresh->tid = static_cast<std::uint32_t>(ThreadIndex());
    fresh->capacity = capacity_per_thread_.load(std::memory_order_relaxed);
    fresh->words = std::make_unique<std::atomic<std::uint64_t>[]>(
        fresh->capacity * kWordsPerEvent);
    return fresh;
  });
  if (ring == nullptr) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const std::uint64_t seq = ring->head.load(std::memory_order_relaxed);
  std::atomic<std::uint64_t>* w =
      ring->words.get() + (seq & (ring->capacity - 1)) * kWordsPerEvent;
  w[0].store(NowNs(), std::memory_order_relaxed);
  w[1].store(reinterpret_cast<std::uintptr_t>(label),
             std::memory_order_relaxed);
  w[2].store(a, std::memory_order_relaxed);
  w[3].store(b, std::memory_order_relaxed);
  w[4].store((static_cast<std::uint64_t>(kind) << 32) | ring->tid,
             std::memory_order_relaxed);
  ring->head.store(seq + 1, std::memory_order_release);
}

void FlightRecorder::RecordLog(const char* level_label, const char* message,
                               std::size_t message_len) {
  std::uint64_t packed[2] = {0, 0};
  if (message_len > 16) message_len = 16;
  ::memcpy(packed, message, message_len);
  Record(EventKind::kLog, level_label, packed[0], packed[1]);
}

std::uint64_t FlightRecorder::RecordedCount() const {
  std::uint64_t total = 0;
  rings_.ForEach([&total](const Ring* ring) {
    total += ring->head.load(std::memory_order_relaxed);
  });
  return total;
}

std::uint64_t FlightRecorder::OverwrittenCount() const {
  std::uint64_t total = 0;
  rings_.ForEach([&total](const Ring* ring) {
    const std::uint64_t head = ring->head.load(std::memory_order_relaxed);
    if (head > ring->capacity) total += head - ring->capacity;
  });
  return total;
}

void FlightRecorder::DumpToFd(int fd) const {
  WriteStr(fd, "=== p3gm flight recorder ===\nrecorded ");
  WriteU64(fd, RecordedCount());
  WriteStr(fd, " overwritten ");
  WriteU64(fd, OverwrittenCount());
  WriteStr(fd, " dropped ");
  WriteU64(fd, DroppedCount());
  WriteStr(fd, "\n");
  rings_.ForEach([fd](const Ring* ring) {
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    const std::uint64_t n = head < ring->capacity ? head : ring->capacity;
    WriteStr(fd, "-- thread ");
    WriteU64(fd, ring->tid);
    WriteStr(fd, " events ");
    WriteU64(fd, n);
    WriteStr(fd, "\n");
    for (std::uint64_t seq = head - n; seq != head; ++seq) {
      const std::atomic<std::uint64_t>* w =
          ring->words.get() +
          (seq & (ring->capacity - 1)) * kWordsPerEvent;
      const std::uint64_t t_ns = w[0].load(std::memory_order_relaxed);
      const auto* label = reinterpret_cast<const char*>(
          static_cast<std::uintptr_t>(
              w[1].load(std::memory_order_relaxed)));
      const std::uint64_t a = w[2].load(std::memory_order_relaxed);
      const std::uint64_t b = w[3].load(std::memory_order_relaxed);
      const std::uint64_t meta = w[4].load(std::memory_order_relaxed);
      const std::uint32_t kind = static_cast<std::uint32_t>(meta >> 32);
      WriteStr(fd, "[");
      WriteU64(fd, t_ns);
      WriteStr(fd, "] ");
      WriteStr(fd, KindName(kind));
      WriteStr(fd, " ");
      WriteStr(fd, label != nullptr ? label : "(null)");
      if (static_cast<EventKind>(kind) == EventKind::kLog) {
        WriteStr(fd, " \"");
        WritePackedText(fd, a, b);
        WriteStr(fd, "\"");
      } else {
        WriteStr(fd, " a=");
        if (static_cast<EventKind>(kind) == EventKind::kQueueDepth) {
          WriteU64(fd, a);
        } else {
          WriteHex16(fd, a);
        }
        WriteStr(fd, " b=");
        WriteHex16(fd, b);
      }
      WriteStr(fd, "\n");
    }
  });
  WriteStr(fd, "=== end flight recorder ===\n");
}

bool FlightRecorder::DumpToFile(const char* path) const {
  const int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  DumpToFd(fd);
  ::close(fd);
  return true;
}

void FlightRecorder::SetCapacityPerThread(std::size_t capacity) {
  if (capacity < 16) capacity = 16;
  capacity_per_thread_.store(std::bit_ceil(capacity),
                             std::memory_order_relaxed);
}

void InstallFlightDumpHandlers(const std::string& path) {
  ::strncpy(g_dump_path, path.c_str(), sizeof g_dump_path - 1);
  g_dump_path[sizeof g_dump_path - 1] = '\0';
#if P3GM_HAVE_EXECINFO
  // backtrace() may lazily dlopen libgcc on first use, which is not
  // signal-safe — take the first call here, outside any handler.
  void* warmup[4];
  ::backtrace(warmup, 4);
#endif
  struct sigaction quit_action;
  ::memset(&quit_action, 0, sizeof quit_action);
  quit_action.sa_handler = QuitHandler;
  ::sigemptyset(&quit_action.sa_mask);
  quit_action.sa_flags = SA_RESTART;
  ::sigaction(SIGQUIT, &quit_action, nullptr);

  struct sigaction fatal_action;
  ::memset(&fatal_action, 0, sizeof fatal_action);
  fatal_action.sa_handler = FatalHandler;
  ::sigemptyset(&fatal_action.sa_mask);
  fatal_action.sa_flags = 0;
  ::sigaction(SIGSEGV, &fatal_action, nullptr);
  ::sigaction(SIGABRT, &fatal_action, nullptr);
  ::sigaction(SIGBUS, &fatal_action, nullptr);
}

const char* FlightDumpPath() { return g_dump_path; }

}  // namespace obs
}  // namespace p3gm
