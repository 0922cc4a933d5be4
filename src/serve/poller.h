#ifndef P3GM_SERVE_POLLER_H_
#define P3GM_SERVE_POLLER_H_

#include <memory>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace p3gm {
namespace serve {

/// Readiness notification for the serve event loop: a thin owner of one
/// Linux epoll instance (the daemon is Linux-only anyway — SIGPROF,
/// /proc and perf_event_open).
class Poller {
 public:
  struct Event {
    int fd = -1;
    bool readable = false;
    bool writable = false;
    bool error = false;  // HUP / ERR — the connection should be torn down.
  };

  /// Opens the epoll instance; fails with the errno text if the kernel
  /// refuses one.
  static util::Result<std::unique_ptr<Poller>> Create();
  ~Poller();

  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  /// Registers `fd`; fails (and registers nothing) if epoll_ctl does,
  /// e.g. for a closed fd.
  util::Status Add(int fd, bool want_read, bool want_write);
  void Update(int fd, bool want_read, bool want_write);
  void Remove(int fd);

  /// Blocks up to timeout_ms (-1 = forever) and appends ready events to
  /// *out (cleared first). Returns the event count, 0 on timeout, -1 on
  /// a poller error other than EINTR.
  int Wait(std::vector<Event>* out, int timeout_ms);

 private:
  explicit Poller(int epoll_fd) : epoll_fd_(epoll_fd) {}

  const int epoll_fd_;
};

}  // namespace serve
}  // namespace p3gm

#endif  // P3GM_SERVE_POLLER_H_
