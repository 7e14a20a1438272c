// Determinism family, alias resolution. In a deterministic file the alias
// *uses* fire, and so does every literal banned spelling, including the ones
// on alias declarations (lines 7 and 9). A chained alias declaration
// (`using Ticker = Clock;`) spells nothing banned and stays silent.
namespace zdc {

using Clock = std::chrono::steady_clock;
using Ticker = Clock;
typedef std::mt19937 LegacyRng;

class Sampler {
 public:
  long stamp() { return Clock::now().time_since_epoch().count(); }
  long stamp_twice() {
    // Two banned uses on one line dedupe to a single finding.
    return Ticker::now().count() + Ticker::now().count();
  }
  unsigned draw() {
    LegacyRng rng(seed_);
    return static_cast<unsigned>(rng());
  }
  unsigned draw_direct() {
    std::mt19937 rng(seed_);
    return static_cast<unsigned>(rng());
  }

 private:
  unsigned seed_ = 42;
};

}  // namespace zdc
