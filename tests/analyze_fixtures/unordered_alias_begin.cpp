// begin()/cbegin()/rbegin() walks over an unordered container fire
// unordered-iter when its type hides behind an alias, exactly as range-for
// does (first, Index::oldest, head). Lookups through the same alias and walks
// over an ordered alias stay silent (has, ordered_first).
namespace zdc {

using Table = std::unordered_map<int, int>;
using Sorted = std::map<int, int>;

int first(Table& t) { return t.begin()->first; }

bool has(const Table& t) { return t.find(1) != t.end(); }

class Index {
 public:
  int oldest() const { return table_.cbegin()->second; }

 private:
  Table table_;
};

int ordered_first(Sorted& s) { return s.begin()->first; }

int head() {
  Table local;
  for (auto it = local.begin(); it != local.end(); ++it) return it->first;
  return 0;
}

}  // namespace zdc
