// Tests for obs::PerThreadSlots and obs::ThreadIndex
// (src/obs/per_thread_slots.h), the one per-thread registry under the
// flight recorder, the CPU profiler, the quality monitor and the trace
// recorder. Run under -DP3GM_SANITIZE=thread (ctest -L threads) the
// reader/writer test pins the registry as data-race free.
//
// Thread numbers are process-wide and never reused, so the tests that
// push the process past the slot capacity come last in this file.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/per_thread_slots.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace p3gm {
namespace obs {
namespace {

constexpr std::size_t kCapacity = PerThreadSlots<int>::kCapacity;

// Reads the shared claim counter: the number a fresh thread gets
// (which takes that number).
std::size_t NextThreadNumber() {
  std::size_t number = 0;
  std::thread([&number] { number = ThreadIndex(); }).join();
  return number;
}

// Numbers short-lived threads, one at a time, until the process has
// handed out at least `count` thread numbers.
void NumberThreadsUpTo(std::size_t count) {
  while (NextThreadNumber() + 1 < count) {
  }
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(PerThreadSlotsTest, ThreadIndexIsStableAndDistinctPerThread) {
  const std::size_t mine = ThreadIndex();
  EXPECT_EQ(ThreadIndex(), mine);
  const std::size_t other = NextThreadNumber();
  EXPECT_GT(other, mine);
  EXPECT_EQ(NextThreadNumber(), other + 1);  // Dense, never reused.
  EXPECT_EQ(ThreadIndex(), mine);
}

TEST(PerThreadSlotsTest, LocalMakesOncePerThreadAndRetriesAfterNull) {
  PerThreadSlots<int> slots;
  int value = 7;
  int makes = 0;
  EXPECT_EQ(slots.Local([&makes]() -> int* {
    ++makes;
    return nullptr;  // E.g. an exhausted pool: nothing is published.
  }),
            nullptr);
  auto make = [&makes, &value] {
    ++makes;
    return &value;
  };
  EXPECT_EQ(slots.Local(make), &value);
  EXPECT_EQ(slots.Local(make), &value);
  EXPECT_EQ(makes, 2);
  int walked = 0;
  slots.ForEach([&walked, &value](int* slot) {
    EXPECT_EQ(slot, &value);
    ++walked;
  });
  EXPECT_EQ(walked, 1);
}

// Writers claim their slots while a reader walks the array: the walk
// sees every slot either absent or fully built, never a torn one, and
// each writer keeps getting the slot it claimed.
TEST(PerThreadSlotsTest, ReadersWalkWhileWritersClaim) {
  constexpr int kWriters = 16;
  static constexpr std::uint64_t kUpdates = 2000;
  ASSERT_LT(NextThreadNumber() + kWriters + 2, kCapacity);
  struct Counter {
    std::uint64_t id = 0;
    std::atomic<std::uint64_t> value{0};
  };
  PerThreadSlots<Counter> slots;
  std::vector<std::unique_ptr<Counter>> owned(kCapacity);

  std::atomic<bool> done{false};
  std::atomic<int> max_seen{0};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      int seen = 0;
      slots.ForEach([&seen](const Counter* counter) {
        EXPECT_GE(counter->id, 1u);  // Built before it was published.
        EXPECT_LE(counter->value.load(std::memory_order_relaxed),
                  kUpdates);
        ++seen;
      });
      if (seen > max_seen.load()) max_seen.store(seen);
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&slots, &owned] {
      auto make = [&owned] {
        auto& mine = owned[ThreadIndex()];
        mine = std::make_unique<Counter>();
        mine->id = ThreadIndex() + 1;
        return mine.get();
      };
      Counter* first = slots.Local(make);
      ASSERT_NE(first, nullptr);
      for (std::uint64_t i = 1; i <= kUpdates; ++i) {
        Counter* counter = slots.Local(make);
        ASSERT_EQ(counter, first);
        counter->value.store(i, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& w : writers) w.join();
  done.store(true, std::memory_order_release);
  reader.join();

  int total = 0;
  slots.ForEach([&total](const Counter* counter) {
    EXPECT_EQ(counter->value.load(), kUpdates);
    ++total;
  });
  EXPECT_EQ(total, kWriters);
  EXPECT_LE(max_seen.load(), kWriters);
}

// One thread's log line `[tN]`, flight-recorder section `-- thread N`
// and chrome-trace `tid` all carry the same number.
TEST(PerThreadSlotsTest, LogFlightAndTraceNameTheSameThread) {
  ASSERT_LT(NextThreadNumber() + 1, kCapacity);
  std::string log_line;
  util::SetLogSinkForTest(
      [&log_line](util::LogLevel, const std::string& record) {
        if (record.find("thread-number agreement") != std::string::npos) {
          log_line = record;
        }
      });
  std::size_t number = 0;
  std::thread worker([&number] {
    number = ThreadIndex();
    util::LogMessage(util::LogLevel::kWarning, "thread-number agreement");
    FlightRecorder::Global().Record(FlightRecorder::EventKind::kRequest,
                                    "test.thread_number.flight");
    TraceRecorder::Global().Append("test.thread_number.trace", 1, 2);
  });
  worker.join();
  util::SetLogSinkForTest(nullptr);
  const std::string n = std::to_string(number);

  EXPECT_NE(log_line.find("[t" + n + "]"), std::string::npos) << log_line;

  const std::string path =
      ::testing::TempDir() + "p3gm_thread_number.dump";
  ASSERT_TRUE(FlightRecorder::Global().DumpToFile(path.c_str()));
  const std::string dump = ReadFile(path);
  std::remove(path.c_str());
  const std::size_t section = dump.find("-- thread " + n + " events");
  ASSERT_NE(section, std::string::npos) << dump;
  const std::size_t event = dump.find("test.thread_number.flight");
  ASSERT_NE(event, std::string::npos);
  EXPECT_GT(event, section);
  const std::size_t next_section = dump.find("-- thread ", section + 1);
  EXPECT_TRUE(next_section == std::string::npos || next_section > event)
      << "the event is in another thread's section";

  bool found = false;
  for (const TraceRecorder::Event& e : TraceRecorder::Global().Events()) {
    if (std::string(e.name) == "test.thread_number.trace") {
      EXPECT_EQ(e.tid, number);
      found = true;
    }
  }
  EXPECT_TRUE(found);
  EXPECT_NE(TraceRecorder::Global().ToChromeJson().find("\"tid\": " + n +
                                                        ","),
            std::string::npos);
}

// --- past the capacity: these tests use up the process's slots ---

// More threads than slots: every call from a thread past the capacity
// gets nullptr (the owner counts the loss), `make` never runs for it,
// and the shared claim counter moves once per thread, not once per call.
TEST(PerThreadSlotsTest, ThreadsPastCapacityGetNullAndClaimOnce) {
  ThreadIndex();  // Number this thread first: it must keep its slot.
  PerThreadSlots<int> slots;
  int mine = 0;
  ASSERT_EQ(slots.Local([&mine] { return &mine; }), &mine);

  NumberThreadsUpTo(kCapacity);
  const std::size_t before = NextThreadNumber();
  constexpr int kOverflowThreads = 8;
  constexpr std::uint64_t kCallsPerThread = 10000;
  std::atomic<std::uint64_t> dropped{0};  // The owner's drop counter.
  std::atomic<int> makes{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kOverflowThreads; ++t) {
    threads.emplace_back([&] {
      EXPECT_GE(ThreadIndex(), kCapacity);
      std::uint64_t lost = 0;
      for (std::uint64_t i = 0; i < kCallsPerThread; ++i) {
        int* slot = slots.Local([&makes] {
          makes.fetch_add(1);
          return static_cast<int*>(nullptr);
        });
        if (slot == nullptr) ++lost;
      }
      dropped.fetch_add(lost);
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(dropped.load(), kOverflowThreads * kCallsPerThread);
  EXPECT_EQ(makes.load(), 0);
  EXPECT_EQ(NextThreadNumber(), before + kOverflowThreads + 1);
  // Threads under the capacity are unaffected.
  EXPECT_EQ(slots.Local([] { return static_cast<int*>(nullptr); }), &mine);
}

// The flight recorder on the same policy: events of threads past the
// capacity count as dropped and move no claim counter. A claim counter
// that moved per event would wrap after ~2^31 events and index the ring
// array out of bounds.
TEST(PerThreadSlotsTest, FlightRecorderDropsEventsOfThreadsPastCapacity) {
  FlightRecorder& flight = FlightRecorder::Global();
  NumberThreadsUpTo(kCapacity);
  const std::size_t before = NextThreadNumber();
  const std::uint64_t recorded = flight.RecordedCount();
  const std::uint64_t dropped = flight.DroppedCount();
  constexpr int kThreads = 4;
  constexpr int kEventsPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&flight] {
      for (int i = 0; i < kEventsPerThread; ++i) {
        flight.Record(FlightRecorder::EventKind::kRequest, "test.overflow",
                      static_cast<std::uint64_t>(i));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(NextThreadNumber(), before + kThreads + 1);
  EXPECT_EQ(flight.RecordedCount(), recorded);
  EXPECT_EQ(flight.DroppedCount(),
            dropped + static_cast<std::uint64_t>(kThreads) *
                          kEventsPerThread);
}

}  // namespace
}  // namespace obs
}  // namespace p3gm
