#include "src/testvec/fuzz.h"

#include <algorithm>
#include <string>

#include "src/core/plan_wire.h"
#include "src/testvec/testvec.h"
#include "src/util/rng.h"

namespace prospector {
namespace testvec {

using util::Json;

namespace {

using core::DecodeSubplan;
using core::EncodeSubplan;
using core::Subplan;
using core::SubplanQueryEntry;

/// A random subplan, occasionally pushed past the uint8 ceiling so every
/// wire version gets exercised.
Subplan RandomSubplan(Rng* rng) {
  auto field = [rng]() -> int {
    switch (rng->UniformInt(uint64_t{4})) {
      case 0: return static_cast<int>(rng->UniformInt(uint64_t{8}));
      case 1: return static_cast<int>(rng->UniformInt(uint64_t{256}));
      case 2: return 200 + static_cast<int>(rng->UniformInt(uint64_t{200}));
      default:
        return static_cast<int>(rng->UniformInt(uint64_t{1} << 20));
    }
  };
  Subplan sp;
  sp.proof_carrying = rng->Bernoulli(0.5);
  sp.node_selection = rng->Bernoulli(0.3);
  sp.chosen = sp.node_selection && rng->Bernoulli(0.5);
  sp.k = field();
  sp.outgoing_bandwidth = field();
  const int m = static_cast<int>(rng->UniformInt(uint64_t{9}));
  for (int i = 0; i < m; ++i) sp.child_bandwidth.emplace_back(field(), field());
  if (rng->Bernoulli(0.5)) {
    const int nq = 1 + static_cast<int>(rng->UniformInt(uint64_t{5}));
    for (int i = 0; i < nq; ++i) {
      sp.query_entries.push_back(SubplanQueryEntry{field(), field(), field()});
    }
  }
  return sp;
}

struct Runner {
  FuzzReport report;

  /// Runs the oracle once; returns false when the fuzz run must stop.
  bool Check(const std::vector<uint8_t>& input) {
    ++report.iterations;
    const Status st = CheckDecodeOneInput(input);
    if (!st.ok()) {
      report.ok = false;
      report.failing_input = input;
      report.message = st.ToString();
      return false;
    }
    if (DecodeSubplan(input).ok()) {
      ++report.accepted;
    } else {
      ++report.rejected;
    }
    return true;
  }
};

}  // namespace

Status CheckDecodeOneInput(const std::vector<uint8_t>& bytes) {
  auto decoded = DecodeSubplan(bytes);
  if (!decoded.ok()) return Status::OK();  // rejection is fine
  // Field ranges: the format only carries non-negative values.
  auto check_range = [](const char* what, int v) -> Status {
    if (v < 0 || v > core::kSubplanMaxFieldValue) {
      return Status::Internal(std::string("decoded ") + what +
                              " out of range: " + std::to_string(v));
    }
    return Status::OK();
  };
  PROSPECTOR_RETURN_IF_ERROR(check_range("k", decoded->k));
  PROSPECTOR_RETURN_IF_ERROR(
      check_range("outgoing bandwidth", decoded->outgoing_bandwidth));
  for (const auto& [child, bw] : decoded->child_bandwidth) {
    PROSPECTOR_RETURN_IF_ERROR(check_range("child id", child));
    PROSPECTOR_RETURN_IF_ERROR(check_range("child bandwidth", bw));
  }
  for (const SubplanQueryEntry& e : decoded->query_entries) {
    PROSPECTOR_RETURN_IF_ERROR(check_range("query id", e.query_id));
    PROSPECTOR_RETURN_IF_ERROR(check_range("query k", e.k));
    PROSPECTOR_RETURN_IF_ERROR(check_range("query bandwidth", e.bandwidth));
  }
  // Canonical-form bijection: an accepted blob re-encodes byte-exactly.
  auto reencoded = EncodeSubplan(*decoded);
  if (!reencoded.ok()) {
    return Status::Internal("accepted input does not re-encode: " +
                            reencoded.status().ToString());
  }
  if (*reencoded != bytes) {
    return Status::Internal(
        "accepted input is non-canonical: re-encoded " +
        BytesToHex(*reencoded) + " != input " + BytesToHex(bytes));
  }
  return Status::OK();
}

Status CheckEncodeRoundTrip(const std::vector<uint8_t>& encoded) {
  auto decoded = DecodeSubplan(encoded);
  if (!decoded.ok()) {
    return Status::Internal("encoder output rejected by decoder: " +
                            decoded.status().ToString());
  }
  auto reencoded = EncodeSubplan(*decoded);
  if (!reencoded.ok() || *reencoded != encoded) {
    return Status::Internal("encoder output does not round-trip");
  }
  return Status::OK();
}

FuzzReport FuzzDecodeSubplan(const std::vector<std::vector<uint8_t>>& corpus,
                             const FuzzOptions& options) {
  Runner runner;
  Rng rng(options.seed);

  // --- Deterministic exhaustive sweep over the corpus -------------------
  for (const std::vector<uint8_t>& entry : corpus) {
    // Truncation at every byte offset (the empty prefix included).
    for (size_t cut = 0; cut <= entry.size(); ++cut) {
      if (!runner.Check({entry.begin(), entry.begin() + cut})) {
        return runner.report;
      }
    }
    // Every single-bit flip.
    for (size_t i = 0; i < entry.size(); ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        std::vector<uint8_t> mutated = entry;
        mutated[i] ^= static_cast<uint8_t>(1u << bit);
        if (!runner.Check(mutated)) return runner.report;
      }
    }
    // Version skew: force every tag value (0xC0..0xC7) and a plain flag
    // byte onto the front of the body.
    for (int v = 0; v < 8; ++v) {
      std::vector<uint8_t> tagged = entry;
      const uint8_t tag = static_cast<uint8_t>(0xC0 | v);
      if (!tagged.empty() && (tagged[0] & 0xC0) == 0xC0) {
        tagged[0] = tag;  // retag a versioned blob
      } else {
        tagged.insert(tagged.begin(), tag);  // promote a v0 blob
      }
      if (!runner.Check(tagged)) return runner.report;
    }
    // Hostile counts: saturate every byte in turn (covers the count
    // positions without needing to parse where they are).
    for (size_t i = 0; i < entry.size(); ++i) {
      std::vector<uint8_t> hostile = entry;
      hostile[i] = 0xFF;
      if (!runner.Check(hostile)) return runner.report;
    }
    // Trailing bytes after a complete body.
    for (const uint8_t tail : {0x00, 0x01, 0x80, 0xFF}) {
      std::vector<uint8_t> extended = entry;
      extended.push_back(tail);
      if (!runner.Check(extended)) return runner.report;
    }
  }

  // --- Seeded random mutations until the budget is spent ----------------
  for (uint64_t i = 0; i < options.iterations; ++i) {
    std::vector<uint8_t> input;
    const uint64_t strategy = rng.UniformInt(uint64_t{6});
    if (strategy == 0 || corpus.empty()) {
      // Fresh random bytes, short lengths favored.
      const size_t len = static_cast<size_t>(rng.UniformInt(
          rng.Bernoulli(0.8) ? uint64_t{24}
                             : static_cast<uint64_t>(options.max_input_bytes)));
      input.resize(len);
      for (uint8_t& b : input) {
        b = static_cast<uint8_t>(rng.UniformInt(uint64_t{256}));
      }
    } else if (strategy == 1) {
      // Valid subplan round trip (also refreshes coverage of v0/v1/v2).
      auto encoded = EncodeSubplan(RandomSubplan(&rng));
      if (!encoded.ok()) continue;
      const Status st = CheckEncodeRoundTrip(*encoded);
      ++runner.report.iterations;
      ++runner.report.accepted;
      if (!st.ok()) {
        runner.report.ok = false;
        runner.report.failing_input = *encoded;
        runner.report.message = st.ToString();
        return runner.report;
      }
      continue;
    } else {
      input = corpus[rng.UniformInt(static_cast<uint64_t>(corpus.size()))];
      const int edits = 1 + static_cast<int>(rng.UniformInt(uint64_t{4}));
      for (int e = 0; e < edits; ++e) {
        const uint64_t op = rng.UniformInt(uint64_t{4});
        if (input.empty() || op == 0) {
          // Insert a random byte (overlong-varint shapes included).
          const size_t at = static_cast<size_t>(
              rng.UniformInt(static_cast<uint64_t>(input.size() + 1)));
          input.insert(input.begin() + at, static_cast<uint8_t>(rng.UniformInt(
                                               uint64_t{256})));
        } else if (op == 1) {
          input.erase(input.begin() +
                      rng.UniformInt(static_cast<uint64_t>(input.size())));
        } else if (op == 2) {
          input[rng.UniformInt(static_cast<uint64_t>(input.size()))] =
              static_cast<uint8_t>(rng.UniformInt(uint64_t{256}));
        } else {
          // Splice the tail of another corpus entry on.
          const std::vector<uint8_t>& other =
              corpus[rng.UniformInt(static_cast<uint64_t>(corpus.size()))];
          const size_t keep = static_cast<size_t>(
              rng.UniformInt(static_cast<uint64_t>(input.size() + 1)));
          const size_t from = other.empty()
                                  ? 0
                                  : static_cast<size_t>(rng.UniformInt(
                                        static_cast<uint64_t>(other.size())));
          input.resize(keep);
          input.insert(input.end(), other.begin() + from, other.end());
        }
      }
    }
    if (!runner.Check(input)) return runner.report;
  }
  return runner.report;
}

Result<std::vector<std::vector<uint8_t>>> LoadWireCorpus(
    const std::string& spec_dir) {
  auto files = ListVectorFiles(spec_dir);
  if (!files.ok()) return files.status();
  std::vector<std::vector<uint8_t>> corpus;
  for (const std::string& path : *files) {
    auto doc = LoadVectorFile(path);
    if (!doc.ok()) return doc.status();
    const std::string& module = doc->at("module").str();
    if (module != "plan_wire" && module != "superplan") continue;
    const Json& cases = doc->at("cases");
    for (size_t i = 0; i < cases.size(); ++i) {
      const Json& c = cases[i];
      auto add_hex = [&corpus](const Json& hex) -> Status {
        if (!hex.is_string()) return Status::OK();
        auto bytes = HexToBytes(hex.str());
        if (!bytes.ok()) return bytes.status();
        corpus.push_back(std::move(*bytes));
        return Status::OK();
      };
      PROSPECTOR_RETURN_IF_ERROR(add_hex(c.at("wire_hex")));
      const Json& subplans = c.at("subplans");
      for (size_t s = 0; subplans.is_array() && s < subplans.size(); ++s) {
        PROSPECTOR_RETURN_IF_ERROR(add_hex(subplans[s].at("wire_hex")));
      }
    }
  }
  if (corpus.empty()) {
    return Status::NotFound("no wire blobs found in " + spec_dir);
  }
  // Dedup (several error vectors share prefixes) to keep the
  // deterministic sweep tight.
  std::sort(corpus.begin(), corpus.end());
  corpus.erase(std::unique(corpus.begin(), corpus.end()), corpus.end());
  return corpus;
}

}  // namespace testvec
}  // namespace prospector
