// Allow markers are read from comments only. The marker quoted in a string
// literal on line 7 suppresses nothing, so the clock read on line 8 fires;
// the block-comment marker on line 10 does suppress line 11.
namespace zdc {

using Clock = std::chrono::steady_clock;  // zdc-analyze: allow(wall-clock): fixture alias
const char* kHelp = "// zdc-analyze: allow(wall-clock): not a comment";
long stamp() { return Clock::now().time_since_epoch().count(); }

/* zdc-analyze: allow(wall-clock): a block comment is a comment */
long quiet() { return Clock::now().time_since_epoch().count(); }

}  // namespace zdc
