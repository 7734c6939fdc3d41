#pragma once

// Availability history and churn prediction (the paper's §VI future work:
// "methods that capture past and predict future churn, based on history
// ... to better select appropriate resources in response to user
// queries").
//
// A ReliabilityTracker records a node's up/down session transitions and
// predicts future availability as EWMA(uptime) / (EWMA(uptime) +
// EWMA(downtime)).  RBAY publishes the prediction as an ordinary
// `reliability` attribute, so customers rank candidates with plain SQL:
// `... GROUPBY reliability DESC`.

#include "util/contract.hpp"
#include "util/sim_time.hpp"

namespace rbay::monitor {

class ReliabilityTracker {
 public:
  /// `alpha` is the EWMA weight of the newest session; `prior` is the
  /// availability assumed for nodes with no recorded history.
  explicit ReliabilityTracker(double alpha = 0.3, double prior = 1.0)
      : alpha_(alpha), prior_(prior) {
    RBAY_REQUIRE(alpha > 0.0 && alpha <= 1.0, "EWMA weight must be in (0, 1]");
    RBAY_REQUIRE(prior >= 0.0 && prior <= 1.0, "prior availability must be in [0, 1]");
  }

  /// The node came up at `now` (also marks the start of observation).
  void record_up(util::SimTime now);

  /// The node went down at `now`.
  void record_down(util::SimTime now);

  /// Predicted fraction of future time the node will be available.
  /// The current (unfinished) session is folded in once it exceeds the
  /// EWMA so long-running survivors keep improving.
  [[nodiscard]] double predicted_availability(util::SimTime now) const;

  [[nodiscard]] int completed_sessions() const { return sessions_; }

 private:
  void fold(double& ewma, double sample_s) const;

  double alpha_;
  double prior_;
  bool up_ = true;
  bool observed_ = false;
  util::SimTime last_transition_ = util::SimTime::zero();
  double ewma_up_s_ = 0.0;
  double ewma_down_s_ = 0.0;
  int up_sessions_ = 0;
  int down_sessions_ = 0;
  int sessions_ = 0;
};

}  // namespace rbay::monitor
