// Strict JSON syntax check for JSONL exports: every line must be exactly
// one JSON object (RFC 8259 grammar, no raw control characters inside
// strings, nothing after the closing brace).
#pragma once

#include <cctype>
#include <cstring>
#include <string>

namespace vodx::testing {

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  /// True when the whole text is one JSON object.
  bool one_object() {
    skip_ws();
    if (peek() != '{' || !value()) return false;
    skip_ws();
    return i_ == s_.size();
  }

 private:
  char peek() const { return i_ < s_.size() ? s_[i_] : '\0'; }
  void skip_ws() {
    while (i_ < s_.size() && std::strchr(" \t\r\n", s_[i_]) != nullptr) ++i_;
  }
  bool literal(const char* word) {
    const std::size_t n = std::strlen(word);
    if (s_.compare(i_, n, word) != 0) return false;
    i_ += n;
    return true;
  }

  bool string() {
    if (peek() != '"') return false;
    ++i_;
    while (i_ < s_.size()) {
      const unsigned char c = static_cast<unsigned char>(s_[i_++]);
      if (c == '"') return true;
      if (c < 0x20) return false;  // raw control character
      if (c != '\\') continue;
      const char e = peek();
      ++i_;
      if (e == 'u') {
        for (int k = 0; k < 4; ++k, ++i_) {
          if (!std::isxdigit(static_cast<unsigned char>(peek()))) return false;
        }
      } else if (e == '\0' || std::strchr("\"\\/bfnrt", e) == nullptr) {
        return false;
      }
    }
    return false;
  }

  bool number() {
    const std::size_t start = i_;
    if (peek() == '-') ++i_;
    if (!std::isdigit(static_cast<unsigned char>(peek()))) return false;
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++i_;
    if (peek() == '.') {
      ++i_;
      if (!std::isdigit(static_cast<unsigned char>(peek()))) return false;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++i_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++i_;
      if (peek() == '+' || peek() == '-') ++i_;
      if (!std::isdigit(static_cast<unsigned char>(peek()))) return false;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++i_;
    }
    return i_ > start;
  }

  template <class Item>
  bool sequence(char close, Item item) {
    ++i_;
    skip_ws();
    if (peek() == close) {
      ++i_;
      return true;
    }
    for (;;) {
      if (!item()) return false;
      skip_ws();
      if (peek() == close) {
        ++i_;
        return true;
      }
      if (peek() != ',') return false;
      ++i_;
    }
  }

  bool value() {
    skip_ws();
    switch (peek()) {
      case '{':
        return sequence('}', [this] {
          skip_ws();
          if (!string()) return false;
          skip_ws();
          if (peek() != ':') return false;
          ++i_;
          return value();
        });
      case '[':
        return sequence(']', [this] { return value(); });
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

/// Every '\n'-terminated line of `jsonl` is one JSON object; returns the
/// first offending line, or "" when all are valid.
inline std::string first_bad_jsonl_line(const std::string& jsonl) {
  std::size_t start = 0;
  while (start < jsonl.size()) {
    const std::size_t end = jsonl.find('\n', start);
    const std::string line = jsonl.substr(
        start, end == std::string::npos ? std::string::npos : end - start);
    if (end == std::string::npos || !JsonChecker(line).one_object()) {
      return line.empty() ? "<unterminated>" : line;
    }
    start = end + 1;
  }
  return "";
}

}  // namespace vodx::testing
