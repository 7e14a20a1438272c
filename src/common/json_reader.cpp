#include "common/json_reader.h"

#include <charconv>
#include <cmath>
#include <system_error>

namespace zdc::common {

bool JsonValue::is_count() const {
  return type == Type::kNumber && number >= 0 && number == std::floor(number);
}

const JsonValue* JsonValue::find(std::string_view key) const {
  for (const auto& [name, value] : members) {
    if (name == key) return &value;
  }
  return nullptr;
}

namespace {

/// Deeper documents are rejected instead of recursing without bound.
constexpr int kMaxDepth = 64;

bool is_digit(char c) { return c >= '0' && c <= '9'; }

bool is_ws(char c) { return c == ' ' || c == '\n' || c == '\t' || c == '\r'; }

/// Characters that may follow a scalar.
bool ends_token(char c) {
  return is_ws(c) || c == ',' || c == ']' || c == '}' || c == ':';
}

class Reader {
 public:
  explicit Reader(std::string_view text) : s_(text) {}

  std::string document(JsonValue* out) {
    std::string err = value(out, 0);
    if (!err.empty()) return err;
    skip_ws();
    return pos_ == s_.size() ? std::string() : "trailing garbage";
  }

 private:
  [[nodiscard]] bool at_end() const { return pos_ >= s_.size(); }

  void skip_ws() {
    while (!at_end() && is_ws(s_[pos_])) ++pos_;
  }

  bool eat(char c) {
    skip_ws();
    if (at_end() || s_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool eat_word(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    const std::size_t after = pos_ + word.size();
    if (after < s_.size() && !ends_token(s_[after])) return false;
    pos_ = after;
    return true;
  }

  [[nodiscard]] std::string expected(const char* what) const {
    if (at_end()) return "truncated document";
    return std::string("expected ") + what + " at offset " +
           std::to_string(pos_);
  }

  /// Diagnostic for a token that starts no JSON value.
  [[nodiscard]] std::string bad_value() const {
    std::size_t end = pos_;
    while (end < s_.size() && !ends_token(s_[end]) && end - pos_ < 24) ++end;
    if (end == pos_) return std::string("unexpected '") + s_[pos_] + "'";
    return "bad value '" + std::string(s_.substr(pos_, end - pos_)) + "'";
  }

  std::string value(JsonValue* out, int depth) {
    skip_ws();
    if (at_end()) return "truncated document";
    if (depth > kMaxDepth) return "nesting deeper than 64";
    switch (s_[pos_]) {
      case '{':
        return object(out, depth);
      case '[':
        return array(out, depth);
      case '"':
        out->type = JsonValue::Type::kString;
        return string(&out->text);
      default:
        break;
    }
    for (const bool b : {true, false}) {
      if (eat_word(b ? "true" : "false")) {
        out->type = JsonValue::Type::kBool;
        out->boolean = b;
        return {};
      }
    }
    return number(out);
  }

  std::string object(JsonValue* out, int depth) {
    out->type = JsonValue::Type::kObject;
    ++pos_;
    if (eat('}')) return {};
    for (;;) {
      skip_ws();
      if (at_end() || s_[pos_] != '"') return expected("a key");
      std::string key;
      std::string err = string(&key);
      if (!err.empty()) return err;
      if (out->find(key) != nullptr) return "duplicate key '" + key + "'";
      if (!eat(':')) return expected("':'");
      out->members.emplace_back(std::move(key), JsonValue{});
      err = value(&out->members.back().second, depth + 1);
      if (!err.empty()) return err;
      if (eat(',')) continue;
      if (eat('}')) return {};
      return expected("',' or '}'");
    }
  }

  std::string array(JsonValue* out, int depth) {
    out->type = JsonValue::Type::kArray;
    ++pos_;
    if (eat(']')) return {};
    for (;;) {
      out->items.emplace_back();
      std::string err = value(&out->items.back(), depth + 1);
      if (!err.empty()) return err;
      if (eat(',')) continue;
      if (eat(']')) return {};
      return expected("',' or ']'");
    }
  }

  std::string string(std::string* out) {
    const std::size_t start = ++pos_;  // past the opening quote
    while (!at_end() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') return "string escapes are not supported";
      if (static_cast<unsigned char>(s_[pos_]) < 0x20) {
        return "control character in string";
      }
      ++pos_;
    }
    if (at_end()) return "truncated document";
    out->assign(s_.substr(start, pos_ - start));
    ++pos_;
    return {};
  }

  /// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, then a delimiter.
  std::string number(JsonValue* out) {
    std::size_t p = pos_;
    auto digit_at = [&](std::size_t i) {
      return i < s_.size() && is_digit(s_[i]);
    };
    auto skip_digits = [&] {
      while (digit_at(p)) ++p;
    };
    if (p < s_.size() && s_[p] == '-') ++p;
    if (!digit_at(p)) return bad_value();
    if (s_[p] == '0') {
      ++p;
    } else {
      skip_digits();
    }
    if (p < s_.size() && s_[p] == '.') {
      if (!digit_at(++p)) return bad_value();
      skip_digits();
    }
    if (p < s_.size() && (s_[p] == 'e' || s_[p] == 'E')) {
      ++p;
      if (p < s_.size() && (s_[p] == '+' || s_[p] == '-')) ++p;
      if (!digit_at(p)) return bad_value();
      skip_digits();
    }
    if (p < s_.size() && !ends_token(s_[p])) return bad_value();
    const auto [ptr, ec] =
        std::from_chars(s_.data() + pos_, s_.data() + p, out->number);
    if (ec != std::errc() || ptr != s_.data() + p ||
        !std::isfinite(out->number)) {
      return "number out of range '" + std::string(s_.substr(pos_, p - pos_)) +
             "'";
    }
    out->type = JsonValue::Type::kNumber;
    pos_ = p;
    return {};
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string parse_json(std::string_view text, JsonValue* out) {
  *out = JsonValue{};
  return Reader(text).document(out);
}

}  // namespace zdc::common
