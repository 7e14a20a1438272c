#include "core/linearizability.h"

namespace zdc::core {

bool order_respects_real_time(const std::vector<ClientOp>& ops,
                              const std::vector<std::string>& order,
                              RealTimeViolation* violation) {
  std::map<std::string, const ClientOp*> by_id;
  for (const ClientOp& op : ops) by_id.emplace(op.id, &op);

  // Collect the timed operations in committed order.
  std::vector<const ClientOp*> timed;
  timed.reserve(order.size());
  for (const std::string& id : order) {
    const auto it = by_id.find(id);
    if (it != by_id.end()) timed.push_back(it->second);
  }

  // order[i] before order[j] is illegal iff order[j] completed before
  // order[i] was invoked.
  for (std::size_t i = 0; i < timed.size(); ++i) {
    for (std::size_t j = i + 1; j < timed.size(); ++j) {
      if (timed[j]->response_ms < timed[i]->invoke_ms) {
        if (violation != nullptr) {
          violation->earlier_in_order = timed[i]->id;
          violation->later_in_order = timed[j]->id;
        }
        return false;
      }
    }
  }
  return true;
}

}  // namespace zdc::core
