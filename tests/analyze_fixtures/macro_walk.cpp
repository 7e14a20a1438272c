// A walk in a #define body is a walk: the macro's range-for over an
// unordered container fires at the line that spells it, over a global
// (line 20) and over a member (line 24) alike. The same walk over an
// ordered container does not (line 22), nor does a lookup.
#include <map>
#include <unordered_map>

namespace zdc {

std::unordered_map<int, int> table;
std::map<int, int> ordered;

class Ledger {
 public:
  int sum() const;
  std::unordered_map<int, int> entries_;
};

#define WALK(sum) \
  for (auto& kv : table) (sum) += kv.second;
#define WALK_ORDERED(sum) \
  for (auto& kv : ordered) (sum) += kv.second;
#define WALK_ENTRIES(sum)      \
  for (const auto& kv : entries_) { \
    (sum) += kv.second;        \
  }
#define LOOKUP(k) table.count(k)

int Ledger::sum() const {
  int sum = 0;
  WALK(sum);
  WALK_ORDERED(sum);
  WALK_ENTRIES(sum);
  return sum + static_cast<int>(LOOKUP(3));
}

}  // namespace zdc
