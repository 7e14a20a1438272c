// Strict reader for the JSON subset the repo's artifacts use: the
// "zdc-metrics-v1" exports and the BENCH_*.json bench artifacts.
//
// The result is a small DOM that validators walk. The grammar is the JSON
// grammar with three deliberate restrictions, because nothing the repo
// emits needs more and every extra form is a way for a broken artifact to
// slip through:
//   - strings have no escapes (a backslash is an error);
//   - there is no `null`;
//   - a key may appear only once per object.
// Numbers follow the JSON grammar exactly, so `nan`, `inf`, `0x10`, `+1`,
// `.5` and `1.` are all rejected, as is any number that overflows a double.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace zdc::common {

struct JsonValue {
  enum class Type { kObject, kArray, kString, kNumber, kBool };

  Type type = Type::kNumber;
  double number = 0;      ///< kNumber
  bool boolean = false;   ///< kBool
  std::string text;       ///< kString
  std::vector<JsonValue> items;  ///< kArray
  /// kObject members in document order (keys are unique).
  std::vector<std::pair<std::string, JsonValue>> members;

  [[nodiscard]] bool is(Type t) const { return type == t; }
  /// A number that is a non-negative integer.
  [[nodiscard]] bool is_count() const;
  /// The member named `key`, or nullptr (also when this is no object).
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
};

/// Parses `text` as one JSON document into `*out`. Returns an empty string
/// on success, else a one-line diagnostic ("trailing garbage", "bad value
/// 'nan'", "duplicate key 'value'", ...).
std::string parse_json(std::string_view text, JsonValue* out);

}  // namespace zdc::common
