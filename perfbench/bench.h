// Shared plumbing of the end-to-end benchmark: clocks, quantiles, the
// per-run report and the decorators that time the consensus layers from
// outside the program (the program itself gets no new instrumentation).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/consensus.h"
#include "core/mapreduce_adapter.h"

namespace perfbench {

namespace linalg = ppml::linalg;
using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

/// q-quantile with linear interpolation between order statistics (the
/// "inclusive" definition). 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}
inline double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch = ".bench_build";  ///< spill files go below this
};

/// What one run reports: correctness, operation counts and every metric it
/// measured (end-to-end and per-layer; main() prints the set --trace asks
/// for).
struct RunReport {
  std::uint64_t attempted = 0;
  std::vector<std::string> failures;  ///< failed correctness checks
  std::map<std::string, double> values;

  void set(const std::string& name, double value) { values[name] = value; }
  /// Record a failed check (empty `error` = the check passed).
  void check(const std::string& error) {
    if (!error.empty()) failures.push_back(error);
  }
};

/// Process start, latched at the top of main(): setup_s runs from here to
/// the first timed operation.
Clock::time_point process_start();

RunReport run_agg(const Options& options);
RunReport run_train(const Options& options, bool paper_scale);
RunReport run_serve(const Options& options);

// --- layer decorators ----------------------------------------------------

/// One learner's record of a training pass. Written only by the mapper task
/// that owns the learner; read after the job has joined.
struct LearnerLog {
  double build_s = 0.0;                 ///< factory call (deserialize + setup)
  std::vector<double> step_s;           ///< local_step wall per round
  std::vector<linalg::Vector> outputs;  ///< local_step result per round
};

/// ConsensusLearner decorator: times local_step and keeps its outputs so
/// the secure average can be checked against their plain mean.
class TimedLearner final : public ppml::core::ConsensusLearner {
 public:
  TimedLearner(std::shared_ptr<ppml::core::ConsensusLearner> inner,
               LearnerLog& log)
      : inner_(std::move(inner)), log_(log) {}

  std::size_t contribution_dim() const override {
    return inner_->contribution_dim();
  }
  linalg::Vector local_step(const linalg::Vector& broadcast) override {
    const auto t0 = Clock::now();
    linalg::Vector out = inner_->local_step(broadcast);
    log_.step_s.push_back(seconds_since(t0));
    log_.outputs.push_back(out);
    return out;
  }
  void on_cohort_resize(std::size_t live) override {
    inner_->on_cohort_resize(live);
  }
  double last_local_objective() const override {
    return inner_->last_local_objective();
  }

 private:
  std::shared_ptr<ppml::core::ConsensusLearner> inner_;
  LearnerLog& log_;
};

/// ConsensusCoordinator decorator: times combine and keeps the averages the
/// secure sum delivered.
class TimedCoordinator final : public ppml::core::ConsensusCoordinator {
 public:
  explicit TimedCoordinator(ppml::core::ConsensusCoordinator& inner)
      : inner_(inner) {}

  linalg::Vector combine(const linalg::Vector& average) override {
    averages.push_back(average);
    const auto t0 = Clock::now();
    linalg::Vector next = inner_.combine(average);
    combine_s.push_back(seconds_since(t0));
    return next;
  }
  double last_delta_sq() const override { return inner_.last_delta_sq(); }

  std::vector<linalg::Vector> averages;
  std::vector<double> combine_s;

 private:
  ppml::core::ConsensusCoordinator& inner_;
};

/// LearnerFactory decorator: times the wrapped factory and hands the engine
/// a TimedLearner writing to logs[index]. `logs` must be sized to the
/// learner count and outlive the job.
inline ppml::core::LearnerFactory timed_factory(
    ppml::core::LearnerFactory inner, std::vector<LearnerLog>& logs) {
  return [inner = std::move(inner), &logs](ppml::mapreduce::BytesView payload,
                                           std::size_t index) {
    const auto t0 = Clock::now();
    std::shared_ptr<ppml::core::ConsensusLearner> learner =
        inner(payload, index);
    logs.at(index).build_s = seconds_since(t0);
    return std::make_shared<TimedLearner>(std::move(learner), logs[index]);
  };
}

}  // namespace perfbench
