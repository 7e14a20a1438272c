#include "core/replicated_log.h"

#include "common/codec.h"

namespace zdc::core {

namespace {

std::string make_command(LogOp op, const std::string& data, std::uint64_t num) {
  common::Encoder enc;
  enc.put_u8(static_cast<std::uint8_t>(op));
  enc.put_string(data);
  enc.put_u64(num);
  return enc.take();
}

}  // namespace

std::string log_append(const std::string& data) {
  return make_command(LogOp::kAppend, data, 0);
}
std::string log_read(std::uint64_t index) {
  return make_command(LogOp::kRead, "", index);
}
std::string log_len() { return make_command(LogOp::kLen, "", 0); }
std::string log_trim(std::uint64_t up_to_index) {
  return make_command(LogOp::kTrim, "", up_to_index);
}

std::string ReplicatedLogStateMachine::apply(const std::string& command) {
  common::Decoder dec(command);
  const auto op = static_cast<LogOp>(dec.get_u8());
  const std::string data = dec.get_string();
  const std::uint64_t num = dec.get_u64();
  if (!dec.done()) return "error:malformed";

  switch (op) {
    case LogOp::kAppend:
      entries_.push_back(data);
      return "idx:" + std::to_string(next_index_++);
    case LogOp::kRead:
    case LogOp::kLen:
      return read_only(op, num);
    case LogOp::kTrim: {
      while (first_index_ < num && !entries_.empty()) {
        entries_.pop_front();
        ++first_index_;
      }
      return "ok";
    }
  }
  return "error:unknown_op";
}

std::string ReplicatedLogStateMachine::apply_read(
    const std::string& query) const {
  common::Decoder dec(query);
  const auto op = static_cast<LogOp>(dec.get_u8());
  static_cast<void>(dec.get_string());
  const std::uint64_t num = dec.get_u64();
  if (!dec.done()) return "error:malformed";
  if (op != LogOp::kRead && op != LogOp::kLen) return "error:unsupported_read";
  return read_only(op, num);
}

std::string ReplicatedLogStateMachine::read_only(LogOp op,
                                                 std::uint64_t num) const {
  if (op == LogOp::kLen) return "len:" + std::to_string(next_index_);
  if (num < first_index_ || num >= next_index_) return "out_of_range";
  return "data:" + entries_[num - first_index_];
}

std::string ReplicatedLogStateMachine::snapshot() const {
  // Digest over live entries plus the index frame.
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<std::uint8_t>(c);
      h *= 1099511628211ULL;
    }
    h ^= 0xff;
    h *= 1099511628211ULL;
  };
  for (const auto& entry : entries_) mix(entry);
  common::Encoder enc;
  enc.put_u64(h);
  enc.put_u64(first_index_);
  enc.put_u64(next_index_);
  return enc.take();
}

std::string ReplicatedLogStateMachine::serialize() const {
  // Canonical: the index window followed by the live entries in order.
  common::Encoder enc;
  enc.put_u64(first_index_);
  enc.put_u64(next_index_);
  for (const auto& entry : entries_) enc.put_string(entry);
  return enc.take();
}

bool ReplicatedLogStateMachine::restore(const std::string& image) {
  common::Decoder dec(image);
  const std::uint64_t first = dec.get_u64();
  const std::uint64_t next = dec.get_u64();
  if (!dec.ok() || next < first) return false;
  std::deque<std::string> entries;
  for (std::uint64_t i = first; i < next && dec.ok(); ++i) {
    entries.push_back(dec.get_string());
  }
  if (!dec.done() || entries.size() != next - first) return false;
  entries_ = std::move(entries);
  first_index_ = first;
  next_index_ = next;
  return true;
}

std::optional<std::string> ReplicatedLogStateMachine::entry(
    std::uint64_t index) const {
  if (index < first_index_ || index >= next_index_) return std::nullopt;
  return entries_[index - first_index_];
}

}  // namespace zdc::core
