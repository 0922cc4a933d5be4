#include "serve/poller.h"

#include <cerrno>
#include <cstring>
#include <string>

#include <sys/epoll.h>
#include <unistd.h>

namespace p3gm {
namespace serve {

namespace {

struct epoll_event Interest(int fd, bool want_read, bool want_write) {
  struct epoll_event ev;
  std::memset(&ev, 0, sizeof ev);
  ev.data.fd = fd;
  if (want_read) ev.events |= EPOLLIN;
  if (want_write) ev.events |= EPOLLOUT;
  return ev;
}

}  // namespace

util::Result<std::unique_ptr<Poller>> Poller::Create() {
  const int fd = epoll_create1(EPOLL_CLOEXEC);
  if (fd < 0) {
    return util::Status::IoError(std::string("Poller: epoll_create1: ") +
                                 std::strerror(errno));
  }
  return std::unique_ptr<Poller>(new Poller(fd));
}

Poller::~Poller() { ::close(epoll_fd_); }

util::Status Poller::Add(int fd, bool want_read, bool want_write) {
  struct epoll_event ev = Interest(fd, want_read, want_write);
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    return util::Status::IoError("Poller: epoll_ctl(ADD, fd " +
                                 std::to_string(fd) +
                                 "): " + std::strerror(errno));
  }
  return util::Status::OK();
}

void Poller::Update(int fd, bool want_read, bool want_write) {
  struct epoll_event ev = Interest(fd, want_read, want_write);
  epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
}

void Poller::Remove(int fd) {
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
}

int Poller::Wait(std::vector<Event>* out, int timeout_ms) {
  out->clear();
  struct epoll_event events[64];
  const int n = epoll_wait(epoll_fd_, events, 64, timeout_ms);
  if (n < 0) return errno == EINTR ? 0 : -1;
  for (int i = 0; i < n; ++i) {
    Event ev;
    ev.fd = events[i].data.fd;
    ev.readable = (events[i].events & EPOLLIN) != 0;
    ev.writable = (events[i].events & EPOLLOUT) != 0;
    ev.error = (events[i].events & (EPOLLERR | EPOLLHUP)) != 0;
    out->push_back(ev);
  }
  return n;
}

}  // namespace serve
}  // namespace p3gm
