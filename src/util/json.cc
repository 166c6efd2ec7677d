#include "src/util/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace prospector {
namespace util {
namespace {

/// Recursive-descent parser over a raw character range. Depth-limited so a
/// hostile vector file cannot blow the stack.
class Parser {
 public:
  Parser(const char* p, const char* end) : p_(p), end_(end) {}

  Result<Json> ParseDocument() {
    Json v;
    PROSPECTOR_RETURN_IF_ERROR(ParseValue(&v, 0));
    SkipWhitespace();
    if (p_ != end_) return Err("trailing characters after JSON document");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Err(const std::string& msg) const {
    return Status::InvalidArgument("json: " + msg + " at offset " +
                                   std::to_string(offset_));
  }

  void SkipWhitespace() {
    while (p_ != end_ &&
           (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')) {
      Advance();
    }
  }

  void Advance() {
    ++p_;
    ++offset_;
  }

  bool Consume(char c) {
    if (p_ != end_ && *p_ == c) {
      Advance();
      return true;
    }
    return false;
  }

  Status Expect(char c) {
    if (!Consume(c)) {
      return Err(std::string("expected '") + c + "'");
    }
    return Status::OK();
  }

  bool ConsumeLiteral(const char* lit) {
    const char* q = p_;
    size_t n = 0;
    while (lit[n] != '\0') {
      if (q == end_ || *q != lit[n]) return false;
      ++q;
      ++n;
    }
    p_ = q;
    offset_ += n;
    return true;
  }

  Status ParseValue(Json* out, int depth) {
    if (depth > kMaxDepth) return Err("nesting too deep");
    SkipWhitespace();
    if (p_ == end_) return Err("unexpected end of input");
    switch (*p_) {
      case '{': return ParseObject(out, depth);
      case '[': return ParseArray(out, depth);
      case '"': {
        std::string s;
        PROSPECTOR_RETURN_IF_ERROR(ParseString(&s));
        *out = Json(std::move(s));
        return Status::OK();
      }
      case 't':
        if (ConsumeLiteral("true")) {
          *out = Json(true);
          return Status::OK();
        }
        return Err("bad literal");
      case 'f':
        if (ConsumeLiteral("false")) {
          *out = Json(false);
          return Status::OK();
        }
        return Err("bad literal");
      case 'n':
        if (ConsumeLiteral("null")) {
          *out = Json();
          return Status::OK();
        }
        return Err("bad literal");
      default: return ParseNumber(out);
    }
  }

  Status ParseObject(Json* out, int depth) {
    PROSPECTOR_RETURN_IF_ERROR(Expect('{'));
    *out = Json::Object();
    SkipWhitespace();
    if (Consume('}')) return Status::OK();
    for (;;) {
      SkipWhitespace();
      std::string key;
      PROSPECTOR_RETURN_IF_ERROR(ParseString(&key));
      SkipWhitespace();
      PROSPECTOR_RETURN_IF_ERROR(Expect(':'));
      Json value;
      PROSPECTOR_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      out->Set(key, std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      return Expect('}');
    }
  }

  Status ParseArray(Json* out, int depth) {
    PROSPECTOR_RETURN_IF_ERROR(Expect('['));
    *out = Json::Array();
    SkipWhitespace();
    if (Consume(']')) return Status::OK();
    for (;;) {
      Json value;
      PROSPECTOR_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      out->Append(std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      return Expect(']');
    }
  }

  Status ParseString(std::string* out) {
    PROSPECTOR_RETURN_IF_ERROR(Expect('"'));
    out->clear();
    while (p_ != end_) {
      const unsigned char c = static_cast<unsigned char>(*p_);
      if (c == '"') {
        Advance();
        return Status::OK();
      }
      if (c == '\\') {
        Advance();
        if (p_ == end_) break;
        const char esc = *p_;
        Advance();
        switch (esc) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'u': {
            unsigned cp = 0;
            for (int i = 0; i < 4; ++i) {
              if (p_ == end_) return Err("truncated \\u escape");
              const char h = *p_;
              Advance();
              cp <<= 4;
              if (h >= '0' && h <= '9') cp |= h - '0';
              else if (h >= 'a' && h <= 'f') cp |= h - 'a' + 10;
              else if (h >= 'A' && h <= 'F') cp |= h - 'A' + 10;
              else return Err("bad \\u escape");
            }
            // UTF-8 encode the BMP code point (surrogate pairs are not
            // needed by the corpus; reject rather than mis-encode).
            if (cp >= 0xD800 && cp <= 0xDFFF) {
              return Err("surrogate \\u escapes unsupported");
            }
            if (cp < 0x80) {
              out->push_back(static_cast<char>(cp));
            } else if (cp < 0x800) {
              out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
              out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
            } else {
              out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
              out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
              out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
            }
            break;
          }
          default: return Err("unknown escape");
        }
        continue;
      }
      if (c < 0x20) return Err("unescaped control character in string");
      out->push_back(static_cast<char>(c));
      Advance();
    }
    return Err("unterminated string");
  }

  Status ParseNumber(Json* out) {
    const char* start = p_;
    if (p_ != end_ && (*p_ == '-' || *p_ == '+')) Advance();
    // Strict JSON: no leading zeros ("01") — the corpus generator never
    // emits them, so accepting them would break dump/parse fixpointing.
    if (p_ + 1 < end_ && p_[0] == '0' && p_[1] >= '0' && p_[1] <= '9') {
      return Err("leading zero in number");
    }
    bool digits = false;
    auto eat_digits = [&] {
      while (p_ != end_ && *p_ >= '0' && *p_ <= '9') {
        Advance();
        digits = true;
      }
    };
    eat_digits();
    if (p_ != end_ && *p_ == '.') {
      Advance();
      digits = false;  // strict JSON: the fraction needs its own digits
      eat_digits();
    }
    if (p_ != end_ && (*p_ == 'e' || *p_ == 'E')) {
      Advance();
      if (p_ != end_ && (*p_ == '-' || *p_ == '+')) Advance();
      eat_digits();
    }
    if (!digits) return Err("bad number");
    double value = 0.0;
    const auto [ptr, ec] = std::from_chars(start, p_, value);
    if (ec != std::errc() || ptr != p_) return Err("unparseable number");
    *out = Json(value);
    return Status::OK();
  }

  const char* p_;
  const char* end_;
  size_t offset_ = 0;
};

void AppendEscaped(std::string* out, const std::string& s) {
  out->push_back('"');
  for (const char raw : s) {
    const unsigned char c = static_cast<unsigned char>(raw);
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\b': *out += "\\b"; break;
      case '\f': *out += "\\f"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(raw);
        }
    }
  }
  out->push_back('"');
}

void AppendNumber(std::string* out, double v) {
  // JSON has no NaN or infinity literal.
  if (!std::isfinite(v)) {
    *out += "null";
    return;
  }
  // Integers in the double-exact range print without a fraction — the
  // common case for the corpus (ids, counts, byte values).
  if (v == std::floor(v) && std::abs(v) < 9.0e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    *out += buf;
    return;
  }
  // Shortest round-trip form for everything else.
  char buf[64];
  const auto [ptr, ec] =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general);
  if (ec == std::errc()) {
    out->append(buf, ptr);
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    *out += buf;
  }
}

}  // namespace

Result<Json> Json::Parse(const std::string& text) {
  Parser parser(text.data(), text.data() + text.size());
  return parser.ParseDocument();
}

void Json::DumpTo(std::string* out, int indent, int depth) const {
  const bool pretty = indent >= 0;
  const std::string pad =
      pretty ? std::string(static_cast<size_t>(indent) * (depth + 1), ' ')
             : std::string();
  const std::string close_pad =
      pretty ? std::string(static_cast<size_t>(indent) * depth, ' ')
             : std::string();
  switch (type_) {
    case Type::kNull: *out += "null"; break;
    case Type::kBool: *out += bool_ ? "true" : "false"; break;
    case Type::kNumber: AppendNumber(out, number_); break;
    case Type::kString: AppendEscaped(out, str_); break;
    case Type::kArray: {
      if (items_.empty()) {
        *out += "[]";
        break;
      }
      out->push_back('[');
      for (size_t i = 0; i < items_.size(); ++i) {
        if (i > 0) out->push_back(',');
        if (pretty) {
          out->push_back('\n');
          *out += pad;
        }
        items_[i].DumpTo(out, indent, depth + 1);
      }
      if (pretty) {
        out->push_back('\n');
        *out += close_pad;
      }
      out->push_back(']');
      break;
    }
    case Type::kObject: {
      if (members_.empty()) {
        *out += "{}";
        break;
      }
      out->push_back('{');
      for (size_t i = 0; i < members_.size(); ++i) {
        if (i > 0) out->push_back(',');
        if (pretty) {
          out->push_back('\n');
          *out += pad;
        }
        AppendEscaped(out, members_[i].first);
        *out += pretty ? ": " : ":";
        members_[i].second.DumpTo(out, indent, depth + 1);
      }
      if (pretty) {
        out->push_back('\n');
        *out += close_pad;
      }
      out->push_back('}');
      break;
    }
  }
}

std::string Json::Dump(int indent) const {
  std::string out;
  DumpTo(&out, indent, 0);
  return out;
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) return Status::Internal("read error on " + path);
  return buf.str();
}

Status WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::Internal("cannot open " + path + " for writing");
  out << content;
  out.close();
  if (!out) return Status::Internal("write error on " + path);
  return Status::OK();
}

}  // namespace util
}  // namespace prospector
