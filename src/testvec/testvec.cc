#include "src/testvec/testvec.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>

namespace prospector {
namespace testvec {

using util::Json;

std::string BytesToHex(const std::vector<uint8_t>& bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0x0f]);
  }
  return out;
}

Result<std::vector<uint8_t>> HexToBytes(const std::string& hex) {
  if (hex.size() % 2 != 0) {
    return Status::InvalidArgument("hex string has odd length");
  }
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  std::vector<uint8_t> out;
  out.reserve(hex.size() / 2);
  for (size_t i = 0; i < hex.size(); i += 2) {
    const int hi = nibble(hex[i]);
    const int lo = nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      return Status::InvalidArgument("non-hex digit in wire string");
    }
    out.push_back(static_cast<uint8_t>((hi << 4) | lo));
  }
  return out;
}

Result<std::vector<std::string>> ListVectorFiles(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    return Status::NotFound("test-vector directory missing: " + dir);
  }
  std::vector<std::string> paths;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".json") {
      paths.push_back(entry.path().string());
    }
  }
  if (ec) return Status::Internal("cannot list " + dir + ": " + ec.message());
  if (paths.empty()) {
    return Status::NotFound("no *.json vectors in " + dir);
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

Result<Json> LoadVectorFile(const std::string& path) {
  auto text = util::ReadFile(path);
  if (!text.ok()) return text.status();
  auto doc = Json::Parse(*text);
  if (!doc.ok()) {
    return Status::InvalidArgument(path + ": " + doc.status().message());
  }
  if (!doc->is_object() || !doc->at("module").is_string() ||
      !doc->at("cases").is_array()) {
    return Status::InvalidArgument(
        path + ": vector file needs {module: string, cases: []}");
  }
  const Json& cases = doc->at("cases");
  for (size_t i = 0; i < cases.size(); ++i) {
    if (!cases[i].is_object() || !cases[i].at("name").is_string() ||
        !cases[i].at("kind").is_string()) {
      return Status::InvalidArgument(
          path + ": case " + std::to_string(i) +
          " needs string \"name\" and \"kind\" fields");
    }
  }
  return doc;
}

std::string SpecDirOrDefault(const std::string& compiled_default) {
  const char* env = std::getenv("PROSPECTOR_SPEC_DIR");
  if (env != nullptr && env[0] != '\0') return env;
  return compiled_default;
}

}  // namespace testvec
}  // namespace prospector
