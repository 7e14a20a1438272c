// Unordered-container flow. In a deterministic file every walk over an
// unordered container fires unordered-iter, whether its type is spelled
// directly (walk_direct) or hides behind an alias (walk_alias). Feeding an
// Encoder or a fingerprint from inside the loop also fires
// unordered-encode-flow in every file, deterministic or not
// (encode_unordered, fingerprint_unordered); an ordered map feeding the same
// Encoder stays silent (encode_ordered), and so does an unordered walk
// feeding a plain counter outside deterministic files (count_unordered).
namespace zdc {

using Table = std::unordered_map<int, int>;

class Encoder {
 public:
  void put_u32(unsigned v);
};

void walk_alias(Table& t) {
  long n = 0;
  for (auto& kv : t) n += kv.second;
}

void walk_direct(std::unordered_map<int, int>& m) {
  long n = 0;
  for (auto& kv : m) n += kv.second;
}

void encode_unordered(std::unordered_map<int, int>& m, Encoder& enc) {
  for (auto& kv : m) {
    enc.put_u32(static_cast<unsigned>(kv.second));
  }
}

void encode_ordered(std::map<int, int>& m, Encoder& enc) {
  for (auto& kv : m) {
    enc.put_u32(static_cast<unsigned>(kv.second));
  }
}

void update_fingerprint(int v);

void fingerprint_unordered(std::unordered_set<int>& s) {
  for (int v : s) update_fingerprint(v);
}

void count_unordered(std::unordered_set<int>& s) {
  long n = 0;
  for (int v : s) n += v;
}

}  // namespace zdc
