// Preprocessor directive bodies are code to the determinism rules: a macro
// that reads a wall clock (line 6), or raw randomness on a continuation line
// (line 9), fires at the line that spells it. An #include naming a banned
// header does not.
#include <ctime>
#define NOW_NS() std::chrono::steady_clock::now().time_since_epoch().count()
#define JITTER(x) \
  ((x) +          \
   rand() % 3)

namespace zdc {

long stamp() { return NOW_NS() + JITTER(1); }

}  // namespace zdc
