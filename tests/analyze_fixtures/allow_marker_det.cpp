// Fixture: allow-marker behavior.
#include <cstdlib>
#include <ctime>

// Same-line suppression with justification: no violation.
long seeded_from_wall() {
  return ::time(nullptr);  // zdc-analyze: allow(wall-time): CLI default seed only
}

// Line-above suppression: no violation.
// zdc-analyze: allow(raw-random): fixture exercises previous-line form
int previous_line() { return rand(); }

// Missing justification: allow-needs-reason AND the underlying violation
// still fires (the marker is void).
long bad_marker() {
  return ::time(nullptr);  // zdc-analyze: allow(wall-time)
}

// Unknown rule name: unknown-allow, and the suppression is void.
int bad_rule() {
  return rand();  // zdc-analyze: allow(walltime): typo in the rule name
}

// A marker only suppresses its own rule, not others on the same line.
long wrong_rule() {
  return ::time(nullptr);  // zdc-analyze: allow(raw-random): suppresses nothing
}
