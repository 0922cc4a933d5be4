// Measurement helpers and the per-layer self-time report built from the
// spans of a traced run: the program's own spans (pgm.*, linalg.*,
// dpsgd.*, serve.*) plus the benchmark's outer spans around calls into
// each layer.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <string_view>

#include "bench.h"

namespace p3gm {
namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t i = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(i, values.size() - 1)];
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

void ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB.
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::size_t Cores() {
  return static_cast<std::size_t>(
      std::max<long>(1, ::sysconf(_SC_NPROCESSORS_ONLN)));
}

void PinThread(int tid, std::size_t core) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(core, &set);
  sched_setaffinity(tid, sizeof(set), &set);
}

std::vector<int> ThreadIds() {
  std::vector<int> tids;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    tids.push_back(std::stoi(entry.path().filename().string()));
  }
  return tids;
}

namespace {

// Layer of a span by name prefix; the first match wins, so the more
// specific prefixes come first. Unlisted spans (probe.*) are skipped.
const char* LayerOf(std::string_view name) {
  static const std::pair<const char*, const char*> kPrefixes[] = {
      {"serve.batch.slice", nullptr},  // Link spans duplicating the decode.
      {"serve.batch.decode", "infer"},
      {"serve.", "serve"},
      {"dp_pca.", "pca"},
      {"pca.", "pca"},
      {"dp_em.", "stats"},
      {"gmm.", "stats"},
      {"dpsgd.", "nn"},
      {"linalg.", "linalg"},
      {"pgm.", "core"},
      {"core.", "core"},
      {"release.", "core"},
      {"data.", "data"},
      {"dp.", "dp"},
  };
  for (const auto& [prefix, layer] : kPrefixes) {
    if (name.starts_with(prefix)) return layer;
  }
  return nullptr;
}

// Self time per layer (ns) of the spans that start inside [start, end]:
// a span's duration minus the part its direct children on the same
// thread cover.
std::map<std::string, double> SelfTimes(
    std::vector<obs::TraceRecorder::Event> events, std::uint64_t start,
    std::uint64_t end) {
  std::erase_if(events, [&](const obs::TraceRecorder::Event& e) {
    return e.start_ns < start || e.start_ns > end || LayerOf(e.name) == nullptr;
  });
  std::sort(events.begin(), events.end(), [](const auto& a, const auto& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.end_ns > b.end_ns;  // Parents before equal-start children.
  });
  std::vector<double> child_ns(events.size(), 0.0);
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& e = events[i];
    while (!stack.empty() && (events[stack.back()].tid != e.tid ||
                              events[stack.back()].end_ns <= e.start_ns)) {
      stack.pop_back();
    }
    if (!stack.empty() && e.end_ns <= events[stack.back()].end_ns) {
      child_ns[stack.back()] += static_cast<double>(e.end_ns - e.start_ns);
    }
    stack.push_back(i);
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const double dur =
        static_cast<double>(events[i].end_ns - events[i].start_ns);
    self[LayerOf(events[i].name)] += std::max(0.0, dur - child_ns[i]);
  }
  return self;
}

}  // namespace

void ReportSelfTimes(const std::string& path, Result* result) {
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  const std::vector<obs::TraceRecorder::Event> events = recorder.Events();
  result->Set("trace.spans", static_cast<double>(events.size()), "count");
  if (!recorder.WriteChromeJson(path)) result->Fail("cannot write " + path);

  const PhaseWindow& train = result->train_window;
  const PhaseWindow& serve = result->serve_window;
  if (train.ops > 0) {
    auto self = SelfTimes(events, train.start_ns, train.end_ns);
    for (const char* layer : {"core", "pca", "stats", "nn", "linalg"}) {
      result->Set(std::string("self.train.") + layer + "_ms",
                  self[layer] * 1e-6 / train.ops, "ms");
    }
  }
  if (serve.ops > 0) {
    auto self = SelfTimes(events, serve.start_ns, serve.end_ns);
    for (const char* layer : {"serve", "infer"}) {
      result->Set(std::string("self.serve.") + layer + "_us",
                  self[layer] * 1e-3 / serve.ops, "us");
    }
  }
}

}  // namespace perfbench
}  // namespace p3gm
