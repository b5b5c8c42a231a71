// Online metrics: per-application response/wait/slowdown statistics plus
// time-weighted platform utilization and fairness, aggregated with the
// support/stats accumulators.
//
// Slowdown uses the home cluster's solo service time load / s_k as its
// reference: the time the application would need computing purely
// locally with its whole cluster. Values below 1 mean the network won
// the application remote help; values above 1 measure queueing plus
// contention. Fairness is Jain's index over the active applications'
// payoff-weighted rates, averaged over time (each inter-event interval
// contributes with weight = its duration).
#pragma once

#include <span>
#include <vector>

#include "support/stats.hpp"

namespace dls::online {

/// Jain's fairness index (Σx)² / (n·Σx²) for non-negative shares; 1 is
/// perfectly even, 1/n maximally skewed. Defined as 1 for an empty or
/// all-zero span (nobody is being treated unequally).
[[nodiscard]] double jain_index(std::span<const double> xs);

/// Weighted streaming mean, used for the time-weighted series (weights
/// are interval durations).
class TimeWeighted {
public:
  void add(double value, double weight);
  [[nodiscard]] double mean() const;  ///< 0 when no weight accumulated
  [[nodiscard]] double total_weight() const { return weight_; }

private:
  double sum_ = 0.0;
  double weight_ = 0.0;
};

/// How an application's lifecycle ended. Everything but Completed only
/// occurs under platform dynamics (src/dynamics/ cluster churn) or an
/// explicit client request against the serving daemon (src/serve/).
enum class AppOutcome : unsigned char {
  Pending,       ///< still in flight (never in a final report)
  Completed,     ///< load fully drained
  AbortedChurn,  ///< active or queued when its home cluster churned out
  RejectedChurn, ///< arrived while its home cluster was churned out
  Cancelled,     ///< withdrawn by a client `depart` request (serve only)
  RejectedAdmission,  ///< turned away by the serve load budget or a drain
};

/// Lifecycle record of one application, filled in by the engine as the
/// application moves arrive -> admit -> depart.
struct AppRecord {
  int id = -1;
  int cluster = -1;
  double payoff = 0.0;
  double load = 0.0;
  double arrival = 0.0;
  double admit = 0.0;    ///< left the queue, became the cluster's active app
  double depart = 0.0;   ///< load fully drained (abort time for AbortedChurn)
  double slowdown = 0.0; ///< response / (load / home cluster speed)
  AppOutcome outcome = AppOutcome::Pending;

  /// Meaningful for outcome == Completed only.
  [[nodiscard]] double response() const { return depart - arrival; }
  [[nodiscard]] double wait() const { return admit - arrival; }
};

/// Aggregated online metrics. The engine calls record_interval once per
/// inter-event segment (with the rates that held over it) and
/// record_completion once per departing application.
struct OnlineMetrics {
  Accumulator response;   ///< per-app: depart - arrival
  Accumulator wait;       ///< per-app: admit - arrival (queueing delay)
  Accumulator slowdown;   ///< per-app: response / solo service time
  TimeWeighted utilization;  ///< Σ active rates / Σ cluster speeds
  TimeWeighted fairness;     ///< Jain over active payoff*rate
  TimeWeighted active_apps;  ///< number of running applications

  void record_completion(const AppRecord& app);
  /// `weighted_rates` holds payoff_k * rate_k for each currently active
  /// application; `work_rate` is the plain rate sum.
  void record_interval(double duration, double work_rate, double total_speed,
                       std::span<const double> weighted_rates);
};

}  // namespace dls::online
