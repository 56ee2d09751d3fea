#include "fl/event_engine.h"

#include <algorithm>

namespace fedvr::fl {

std::vector<ParticipantOutcome>& RoundSchedule::reset(std::size_t slots) {
  outcomes_.clear();
  outcomes_.resize(slots);
  arrivals_.clear();
  survivors_.clear();
  realized_round_time_ = 0.0;
  return outcomes_;
}

void RoundSchedule::build(std::optional<double> deadline) {
  // reserve() ahead of the loop: the push_backs below are amortization-free
  // once round capacity is warm (no-alloc-in-hot-loop).
  arrivals_.reserve(outcomes_.size());
  survivors_.reserve(outcomes_.size());
  for (std::size_t k = 0; k < outcomes_.size(); ++k) {
    ParticipantOutcome& oc = outcomes_[k];
    if (oc.crashed) {
      oc.missed_deadline = false;
      continue;
    }
    oc.missed_deadline = deadline && oc.completion_time > *deadline;
    // The server stops waiting at the deadline, however late the device
    // would have been.
    const double waited =
        oc.missed_deadline ? *deadline : oc.completion_time;
    realized_round_time_ = std::max(realized_round_time_, waited);
    arrivals_.push_back(ArrivalEvent{oc.completion_time, k});
    if (oc.delivered()) survivors_.push_back(k);
  }
  // (time, slot) key: slots are ascending device order, so ties resolve by
  // device id and the queue order is pool-size-independent.
  std::sort(arrivals_.begin(), arrivals_.end(),
            [](const ArrivalEvent& a, const ArrivalEvent& b) {
              if (a.time != b.time) return a.time < b.time;
              return a.slot < b.slot;
            });
}

}  // namespace fedvr::fl
