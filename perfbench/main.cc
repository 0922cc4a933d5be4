// p3gm_perfbench: the repo benchmark's binary (see NOTES.md).
//
//   p3gm_perfbench --workload train_esr --seed 1 --seconds 10 --trace 0
//       --work-dir DIR --trace-dir DIR
//
// Runs one workload — a train phase and a serve phase through the
// library's public API — checks the outputs, and prints the result as the
// last stdout line: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones (tracing off); with
// --trace 1 the per-layer ones from a traced run, whose spans are written
// to DIR/<workload>-seed<seed>.trace.json. A run-info line goes to stderr.

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench.h"
#include "obs/json.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace p3gm {
namespace perfbench {
namespace {

// util::ThreadPool width, fixed so runs on hosts of any width compare.
constexpr std::size_t kPoolThreads = 2;

// Why each workload exists: NOTES.md.
const Workload kWorkloads[] = {
    {"train_esr", "esr", 7500, true},
    {"train_isolet", "isolet", 2000, true},
    {"serve_rows", "esr", 2500, false},
};

// Gives the pool's caller and each worker a core of its own, counting down
// from the last core. Left to the scheduler, the caller and the worker of
// a 2-thread pool shared one core for whole fits on the 4-vCPU
// development VM, so the run measured neither width (NOTES.md).
void PinPool() {
  const std::size_t width = util::NumThreads();
  if (width < 2 || width > Cores()) return;
  const std::vector<int> before = ThreadIds();
  // A parallel call creates the pool's workers.
  util::ParallelFor(0, width, 1, [](std::size_t, std::size_t) {});
  PinThread(0, Cores() - 1);
  std::size_t next = 2;
  for (int tid : ThreadIds()) {
    if (std::find(before.begin(), before.end(), tid) == before.end()) {
      PinThread(tid, Cores() - next++);
    }
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: p3gm_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR --trace-dir DIR\n");
  return 2;
}

std::string Number(double v) {
  if (std::isnan(v)) return "0";
  // A percentile that lands on a failed request is +infinity; JSON has no
  // infinity, so it prints as 1e300.
  if (std::isinf(v)) return v > 0 ? "1e300" : "-1e300";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(const Result& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    if (!first) out += ", ";
    first = false;
    out += '"';
    out += obs::json::Escape(name);
    out += "\": {\"value\": ";
    out += Number(m.value);
    out += ", \"unit\": \"";
    out += obs::json::Escape(m.unit);
    out += "\"}";
  }
  out += "}}\n";
  std::fputs(out.c_str(), stdout);
  std::fflush(stdout);
}

}  // namespace
}  // namespace perfbench
}  // namespace p3gm

int main(int argc, char** argv) {
  using namespace p3gm;
  using namespace p3gm::perfbench;
  RunConfig config;
  std::string workload;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value);
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else if (flag == "--trace-dir") {
      config.trace_dir = value;
    } else {
      return Usage();
    }
  }
  bool found = false;
  for (const Workload& w : kWorkloads) {
    if (w.name == workload) {
      config.workload = w;
      found = true;
    }
  }
  if (!found || config.seconds <= 0 || config.work_dir.empty() ||
      config.trace_dir.empty()) {
    return Usage();
  }

  util::SetLogLevel(util::LogLevel::kWarning);
  util::SetNumThreads(kPoolThreads);
  PinPool();
  std::fprintf(stderr,
               "runinfo: {\"workload\": \"%s\", \"seed\": %" PRIu64
               ", \"seconds\": %g, \"trace\": %d, \"pool_threads\": %zu, "
               "\"clients\": %zu, \"connections\": %zu, \"nproc\": %zu}\n",
               workload.c_str(), config.seed, config.seconds,
               config.trace ? 1 : 0, util::NumThreads(), kClients, kClients,
               Cores());

  Result result;
  const TrainOutput trained = RunTrainPhase(config, &result);
  if (result.correct) RunServePhase(config, trained, &result);
  if (result.correct && config.trace) {
    RunProbes(trained, &result);
    std::filesystem::create_directories(config.trace_dir);
    ReportSelfTimes(config.trace_dir + "/" + workload + "-seed" +
                        std::to_string(config.seed) + ".trace.json",
                    &result);
  }
  for (const std::string& why : result.problems) {
    std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  }
  PrintResult(result);
  return 0;
}
