#ifndef PROSPECTOR_TESTVEC_TESTVEC_H_
#define PROSPECTOR_TESTVEC_TESTVEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/json.h"
#include "src/util/status.h"

namespace prospector {
namespace testvec {

/// Helpers shared by the golden-vector corpus (spec/test-vectors/): hex
/// spelling for wire blobs, vector-file loading, and corpus discovery. The
/// corpus follows the EK-KOR2 pattern: checked-in JSON vectors are the
/// single source of truth — when an implementation and a vector disagree,
/// the vector wins until the format is deliberately revised (regenerate
/// with testvec_gen and review the diff).

/// Lower-case hex, two digits per byte, no separators ("0107ff").
std::string BytesToHex(const std::vector<uint8_t>& bytes);

/// Inverse of BytesToHex; rejects odd lengths and non-hex digits.
Result<std::vector<uint8_t>> HexToBytes(const std::string& hex);

/// Sorted absolute paths of every *.json under `dir` (non-recursive).
/// NotFound when the directory does not exist or holds no vectors — a
/// missing corpus must fail loudly, not replay zero cases "successfully".
Result<std::vector<std::string>> ListVectorFiles(const std::string& dir);

/// Loads and parses one vector file; checks the envelope: an object with
/// a string "module" and an array "cases" of objects that each carry a
/// string "name" and "kind".
Result<util::Json> LoadVectorFile(const std::string& path);

/// The directory the replay harness should use: the PROSPECTOR_SPEC_DIR
/// environment variable when set, otherwise `compiled_default` (tests
/// pass their build-time spec path).
std::string SpecDirOrDefault(const std::string& compiled_default);

}  // namespace testvec
}  // namespace prospector

#endif  // PROSPECTOR_TESTVEC_TESTVEC_H_
