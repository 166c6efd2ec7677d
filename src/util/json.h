#ifndef PROSPECTOR_UTIL_JSON_H_
#define PROSPECTOR_UTIL_JSON_H_

#include <concepts>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/util/status.h"

namespace prospector {
namespace util {

/// Minimal JSON document model: the one writer behind every JSON artifact
/// (health, fleet status, metrics, flight timelines, chrome traces, bench
/// tables) and the parser for the golden test-vector corpus
/// (spec/test-vectors/*.json). Self-contained on purpose — the build
/// links no JSON library, and the artifacts only need a faithful, fully
/// deterministic subset:
///   - object keys keep insertion order (so generated output is
///     byte-stable across runs and diffs stay readable);
///   - numbers round-trip exactly: integers in the double-exact range
///     print without an exponent or fraction, other doubles print via the
///     shortest form that parses back to the same bits;
///   - NaN and +/-infinity dump as `null` (JSON has no literal for them);
///     the LP vector schema spells infinite bounds as strings instead.
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : type_(Type::kNull) {}
  Json(bool b) : type_(Type::kBool), bool_(b) {}            // NOLINT
  Json(double d) : type_(Type::kNumber), number_(d) {}      // NOLINT
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  Json(T i)                                                 // NOLINT
      : type_(Type::kNumber), number_(static_cast<double>(i)) {}
  Json(std::string s) : type_(Type::kString), str_(std::move(s)) {}  // NOLINT
  Json(const char* s) : type_(Type::kString), str_(s) {}    // NOLINT

  static Json Object() {
    Json j;
    j.type_ = Type::kObject;
    return j;
  }
  static Json Array() {
    Json j;
    j.type_ = Type::kArray;
    return j;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool boolean() const { return bool_; }
  double number() const { return number_; }
  int AsInt() const { return static_cast<int>(number_); }
  const std::string& str() const { return str_; }

  // --- arrays ---
  size_t size() const {
    return is_object() ? members_.size() : items_.size();
  }
  const Json& operator[](size_t i) const { return items_[i]; }
  Json& operator[](size_t i) { return items_[i]; }
  Json& Append(Json v) {
    items_.push_back(std::move(v));
    return items_.back();
  }

  // --- objects (insertion-ordered) ---
  /// Returns the member or nullptr.
  const Json* Find(const std::string& key) const {
    for (const auto& [k, v] : members_) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  Json* Find(const std::string& key) {
    return const_cast<Json*>(static_cast<const Json*>(this)->Find(key));
  }
  bool contains(const std::string& key) const { return Find(key) != nullptr; }
  /// Returns the member or a shared null value when absent.
  const Json& at(const std::string& key) const {
    static const Json kNull;
    const Json* found = Find(key);
    return found != nullptr ? *found : kNull;
  }
  /// Inserts or replaces; keeps first-insertion order.
  Json& Set(const std::string& key, Json v) {
    for (auto& [k, existing] : members_) {
      if (k == key) {
        existing = std::move(v);
        return existing;
      }
    }
    members_.emplace_back(key, std::move(v));
    return members_.back().second;
  }
  const std::vector<std::pair<std::string, Json>>& members() const {
    return members_;
  }

  /// Parses a complete JSON document (rejects trailing garbage).
  static Result<Json> Parse(const std::string& text);

  /// Serializes. indent < 0 emits the compact one-line form; indent >= 0
  /// pretty-prints with that many spaces per level (2 is the corpus
  /// convention), ending without a trailing newline.
  std::string Dump(int indent = 2) const;

 private:
  void DumpTo(std::string* out, int indent, int depth) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string str_;
  std::vector<Json> items_;
  std::vector<std::pair<std::string, Json>> members_;
};

/// Whole-file IO (binary-faithful) for the artifacts above.
Result<std::string> ReadFile(const std::string& path);
Status WriteFile(const std::string& path, const std::string& content);

}  // namespace util
}  // namespace prospector

#endif  // PROSPECTOR_UTIL_JSON_H_
