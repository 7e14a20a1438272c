// Append-only replicated log: the second state machine shipped with the
// library (the KV store shows last-writer-wins maps; the log shows
// result-bearing commands whose outcome depends on the total order —
// append returns the index the entry landed at, identical on every replica).
//
// Commands (reply grammar pinned by replicated_log_test):
//   APPEND data          -> "idx:<n>"
//   READ   index         -> "data:<bytes>" or "out_of_range"
//   LEN                  -> "len:<n>"
//   TRIM   up_to_index   -> "ok" (drops entries below; indices stay stable)
//
// Index contract: entries occupy the half-open window
// [first_index(), end_index()). APPEND assigns end_index() and advances it;
// TRIM advances first_index() without renumbering anything. READ replies
// "data:..." exactly for indices inside the window — first_index() is the
// oldest readable entry, end_index() (and anything trimmed away) is
// "out_of_range". LEN reports end_index(), the *logical* length: the total
// number of entries ever appended, deliberately unchanged by TRIM so that
// "idx:<n>" results stay meaningful against it. size() is the *live* count,
// end_index() - first_index(), i.e. how many entries READ can still serve.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>

#include "core/rsm.h"

namespace zdc::core {

enum class LogOp : std::uint8_t { kAppend = 1, kRead = 2, kLen = 3, kTrim = 4 };

std::string log_append(const std::string& data);
std::string log_read(std::uint64_t index);
std::string log_len();
std::string log_trim(std::uint64_t up_to_index);

class ReplicatedLogStateMachine final : public StateMachine {
 public:
  std::string apply(const std::string& command) override;
  /// READ and LEN, the read-only commands, for read-index serving.
  [[nodiscard]] std::string apply_read(const std::string& query) const override;
  [[nodiscard]] std::string snapshot() const override;
  [[nodiscard]] std::string serialize() const override;
  [[nodiscard]] bool restore(const std::string& image) override;

  /// Local (not linearizable) accessors.
  /// Live entry count: end_index() - first_index() (shrinks on TRIM).
  [[nodiscard]] std::uint64_t size() const {
    return next_index_ - first_index_;
  }
  [[nodiscard]] std::uint64_t first_index() const { return first_index_; }
  /// Index the next APPEND receives; also the logical length LEN reports.
  [[nodiscard]] std::uint64_t end_index() const { return next_index_; }
  [[nodiscard]] std::optional<std::string> entry(std::uint64_t index) const;

 private:
  /// The reply of a read-only op (READ or LEN).
  [[nodiscard]] std::string read_only(LogOp op, std::uint64_t num) const;

  std::deque<std::string> entries_;
  std::uint64_t first_index_ = 0;  ///< index of entries_.front()
  std::uint64_t next_index_ = 0;   ///< index the next append receives
};

}  // namespace zdc::core
