#ifndef P3GM_AUDIT_GOLDEN_H_
#define P3GM_AUDIT_GOLDEN_H_

#include <string>
#include <vector>

namespace p3gm {
namespace audit {

/// Golden-trace regression for the full P3GM pipeline: a fixed-seed,
/// fully differentially private Pgm run whose per-epoch losses and live
/// privacy accounting are serialized bit-exactly (%.17g round-trips an
/// IEEE double) and compared against a checked-in file. Any unintended
/// change to PCA, EM, the VAE, DP-SGD, the RNG streams or the accountant
/// shows up as the first differing line.
///
/// The trace is deterministic by construction (PR 1 guarantees
/// bit-identical training at any thread count), but it *is* pinned to the
/// libm of the build toolchain; regenerate with tools/regen_golden after
/// an intentional numeric change.

/// Runs the canonical small P3GM configuration and returns the trace:
///   # p3gm golden trace v1
///   epoch,<i>,<recon>,<kl>,<epsilon>       (one per epoch; live ledger)
///   final,<epsilon>,<best_order>
///   sample,<n>,<checksum>                  (fixed-seed synthesis digest)
std::vector<std::string> GoldenPgmTraceLines();

/// Writes the canonical trace to `path` (one line per entry, trailing
/// newline). Returns false if the file cannot be written.
bool WriteGoldenTrace(const std::string& path);

struct GoldenCompareResult {
  bool ok = false;
  /// Empty when ok; otherwise the first mismatch (or an I/O problem) and
  /// the regeneration hint.
  std::string message;
};

/// Regenerates the trace in-process and compares it line-by-line against
/// the checked-in file at `path`.
GoldenCompareResult CompareGoldenTrace(const std::string& path);

/// Golden-decode fixture for the synthesis path: a fixed ReleasePackage
/// assembled from explicit deterministic weights (no training pipeline),
/// exercised two ways:
///   decode,<i>,<v0>,...   deterministic latent grid -> decoder
///   sample,<i>,<v0>,...   fixed-seed Generate() feature rows
///   labels,<l0>,...       labels decoded from the one-hot block
/// Every double is %.17g, so the file pins the decoder forward pass
/// bit-for-bit. The decoder is the served one (DecodeLatentInto, the
/// compiled infer plan) unless `reference` selects the oracle
/// (ReferenceDecodeInto); both must reproduce this file exactly (the
/// planned-runtime equivalence contract, docs/inference.md).
std::vector<std::string> GoldenDecodeLines(bool reference = false);

/// Writes the decode fixture to `path`. Returns false on I/O failure.
bool WriteGoldenDecode(const std::string& path);

/// Regenerates the decode fixture in-process and compares it against the
/// checked-in file at `path` (normally tests/golden/decode_small.golden).
GoldenCompareResult CompareGoldenDecode(const std::string& path,
                                        bool reference = false);

}  // namespace audit
}  // namespace p3gm

#endif  // P3GM_AUDIT_GOLDEN_H_
