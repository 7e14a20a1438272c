// Real-time order checking for replicated-state-machine histories.
//
// State-machine replication makes every command atomic at its position in
// the broadcast total order; the client-visible guarantee (linearizability)
// additionally requires that this order respect *real time*: if operation A
// completed (its submitter observed the result) before operation B was even
// invoked, A must precede B in the committed order. Semantic correctness of
// the outcomes is then just the deterministic state machine applied in that
// order — which replicas already cross-check via snapshot equality.
//
// The checker takes per-operation real-time intervals and the committed
// order, and reports the first violating pair (if any). Used by the runtime
// integration tests to validate the client-facing story end to end.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace zdc::core {

struct ClientOp {
  std::string id;           ///< unique operation id
  double invoke_ms = 0.0;   ///< client submitted at this time
  double response_ms = 0.0; ///< client observed the result at this time
};

struct RealTimeViolation {
  std::string earlier_in_order;  ///< committed earlier...
  std::string later_in_order;    ///< ...than this op, which finished first
};

/// True iff the committed `order` respects the real-time precedence of
/// `ops`: no operation is ordered after one that was invoked only after it
/// had already completed. Operations appearing in `order` without timing
/// info are ignored; `violation` (optional) receives the first offending
/// pair. O(len(order)^2) — intended for test-scale histories.
bool order_respects_real_time(const std::vector<ClientOp>& ops,
                              const std::vector<std::string>& order,
                              RealTimeViolation* violation = nullptr);

}  // namespace zdc::core
