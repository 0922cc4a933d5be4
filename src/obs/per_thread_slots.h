#ifndef P3GM_OBS_PER_THREAD_SLOTS_H_
#define P3GM_OBS_PER_THREAD_SLOTS_H_

#include <atomic>
#include <cstddef>

namespace p3gm {
namespace obs {

/// The calling thread's process-wide number: 0, 1, 2, ... in order of
/// first call, taken with one relaxed fetch_add and never reused. Log
/// lines (`[tN]`), flight dumps (`-- thread N`) and chrome traces (`tid`)
/// print it. Async-signal-safe: counter and per-thread copy are
/// constant-initialized. (A signal landing inside a thread's first call
/// may number the thread twice; the first number then goes unused.)
inline std::size_t ThreadIndex() {
  constexpr std::size_t kUnnumbered = ~std::size_t{0};
  static std::atomic<std::size_t> next{0};
  thread_local std::size_t index = kUnnumbered;
  if (index == kUnnumbered) {
    index = next.fetch_add(1, std::memory_order_relaxed);
  }
  return index;
}

/// One `T*` per thread, indexed by ThreadIndex(). A slot is stored once,
/// by its own thread, with a release store; readers walk the fixed array
/// with acquire loads. No lock, no CAS, no allocation: Local and ForEach
/// are async-signal-safe when `make` is. The pointees are not owned.
///
/// Overflow policy: a thread numbered kCapacity or above gets nullptr
/// from every Local call, and the owner counts what it could not record
/// in its drop counter. The registry itself does no read-modify-write
/// for such a thread after the fetch_add that numbered it.
template <typename T>
class PerThreadSlots {
 public:
  static constexpr std::size_t kCapacity = 256;

  constexpr PerThreadSlots() = default;
  PerThreadSlots(const PerThreadSlots&) = delete;
  PerThreadSlots& operator=(const PerThreadSlots&) = delete;

  /// The calling thread's slot, built by `make()` on first use. A
  /// nullptr from `make` publishes nothing; the next call asks again.
  template <typename Make>
  T* Local(Make&& make) {
    const std::size_t index = ThreadIndex();
    if (index >= kCapacity) return nullptr;
    // Only this thread stores to its slot, so a relaxed load sees it.
    T* value = slots_[index].load(std::memory_order_relaxed);
    if (value == nullptr && (value = make()) != nullptr) {
      slots_[index].store(value, std::memory_order_release);
    }
    return value;
  }

  /// Calls fn(T*) for every published slot, in thread-number order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const std::atomic<T*>& slot : slots_) {
      if (T* value = slot.load(std::memory_order_acquire)) fn(value);
    }
  }

 private:
  std::atomic<T*> slots_[kCapacity];  // Value-initialized: all nullptr.
};

}  // namespace obs
}  // namespace p3gm

#endif  // P3GM_OBS_PER_THREAD_SLOTS_H_
