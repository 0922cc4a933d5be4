// Regenerates the golden regression files: the fixed-seed P3GM training
// trace and the fixed-weight decode fixture (see src/audit/golden.h).
// Usage:
//
//   build/tools/regen_golden [trace_path [decode_path]]
//
// With no argument both fixtures are printed to stdout (trace first);
// with paths they are written there — normally (one command line):
//
//   build/tools/regen_golden tests/golden/pgm_small.golden
//                            tests/golden/decode_small.golden
//
// Run this after an *intentional* numeric change and commit the updated
// file(s) together with the change that caused it.

#include <cstdio>

#include "audit/golden.h"

int main(int argc, char** argv) {
  if (argc < 2) {
    for (const std::string& line : p3gm::audit::GoldenPgmTraceLines()) {
      std::printf("%s\n", line.c_str());
    }
    for (const std::string& line : p3gm::audit::GoldenDecodeLines()) {
      std::printf("%s\n", line.c_str());
    }
    return 0;
  }
  if (!p3gm::audit::WriteGoldenTrace(argv[1])) {
    std::fprintf(stderr, "regen_golden: cannot write %s\n", argv[1]);
    return 1;
  }
  std::printf("regen_golden: wrote %s\n", argv[1]);
  if (argc > 2) {
    if (!p3gm::audit::WriteGoldenDecode(argv[2])) {
      std::fprintf(stderr, "regen_golden: cannot write %s\n", argv[2]);
      return 1;
    }
    std::printf("regen_golden: wrote %s\n", argv[2]);
  }
  return 0;
}
