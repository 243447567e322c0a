// Correctness checks of the end-to-end benchmark. Each compares a program
// output with a value the benchmark computed apart from the program, or
// with a property the method must have, and returns an empty string when
// the output passes or a one-line reason when it does not.
// checks_selftest.cpp feeds every check a corrupted output.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

// Thresholds of the workloads' checks (README.md gives their grounds).
/// make_higgs_like / make_higgs_scale_rows are built to be ~70% separable;
/// a working linear SVM lands near 70%.
constexpr double kHiggsAccuracyFloor = 0.66;
/// ADMM consensus after train-paper-m4's 100 rounds: ||dz||^2 reads
/// 5e-6..2e-5 and ||w_m - z|| 0.17..0.21 (with ||z|| ~ 1) on working code.
constexpr double kConsensusDeltaSqTol = 1e-4;
constexpr double kConsensusGapTol = 0.5;

/// Largest |a_j - b_j|, or +inf when the lengths differ.
inline double max_abs_diff(std::span<const double> a,
                           std::span<const double> b) {
  if (a.size() != b.size()) return INFINITY;
  double worst = 0.0;
  for (std::size_t j = 0; j < a.size(); ++j) {
    const double d = std::abs(a[j] - b[j]);
    if (!(d <= worst)) worst = d;  // also catches NaN
  }
  return worst;
}

inline std::string describe(const char* what, std::size_t index, double got,
                            double bound) {
  char buf[200];
  std::snprintf(buf, sizeof buf, "%s %zu: error %.3e exceeds bound %.3e",
                what, index, got, bound);
  return buf;
}

/// agg-*: the decoded sum over the survivors of round `round` is within
/// survivors * 2^-bits of the plaintext double sum of their values.
inline std::string check_round_sum(std::size_t round,
                                   std::span<const double> decoded,
                                   std::span<const double> plain_sum,
                                   std::size_t survivors, unsigned bits) {
  const double bound = static_cast<double>(survivors) * std::ldexp(1.0, -int(bits));
  const double err = max_abs_diff(decoded, plain_sum);
  return err <= bound ? std::string() : describe("round", round, err, bound);
}

/// train-*: the average the coordinator received in round `round` is
/// within M * 2^-bits of the plain mean of the learners' local_step outputs
/// of that round.
inline std::string check_round_average(
    std::size_t round, std::span<const double> received,
    const std::vector<std::span<const double>>& outputs, unsigned bits) {
  if (outputs.empty()) return "round " + std::to_string(round) + ": no outputs";
  std::vector<double> mean(outputs[0].size(), 0.0);
  for (const auto& out : outputs) {
    if (out.size() != mean.size())
      return "round " + std::to_string(round) + ": output dims differ";
    for (std::size_t j = 0; j < mean.size(); ++j) mean[j] += out[j];
  }
  for (double& v : mean) v /= static_cast<double>(outputs.size());
  const double bound =
      static_cast<double>(outputs.size()) * std::ldexp(1.0, -int(bits));
  const double err = max_abs_diff(received, mean);
  return err <= bound ? std::string()
                      : describe("round average", round, err, bound);
}

/// Accuracy at or above the floor the generator's separability allows.
inline std::string check_accuracy(double accuracy, double floor) {
  if (accuracy >= floor) return {};
  char buf[120];
  std::snprintf(buf, sizeof buf, "accuracy %.4f below floor %.4f", accuracy,
                floor);
  return buf;
}

/// ||w - z||, or +inf when the lengths differ.
inline double consensus_gap(std::span<const double> w,
                            std::span<const double> z) {
  if (w.size() != z.size()) return INFINITY;
  double sq = 0.0;
  for (std::size_t j = 0; j < z.size(); ++j) sq += (w[j] - z[j]) * (w[j] - z[j]);
  return std::sqrt(sq);
}

/// ADMM consensus: the final ||dz||^2 is below `delta_tol` and every
/// learner's ||w_m - z|| is below `gap_tol`.
inline std::string check_consensus(double final_delta_sq, double delta_tol,
                                   std::span<const double> z,
                                   const std::vector<std::span<const double>>& ws,
                                   double gap_tol) {
  if (!(final_delta_sq <= delta_tol)) {
    char buf[120];
    std::snprintf(buf, sizeof buf, "final ||dz||^2 %.3e above %.3e",
                  final_delta_sq, delta_tol);
    return buf;
  }
  for (std::size_t m = 0; m < ws.size(); ++m) {
    const double gap = consensus_gap(ws[m], z);
    if (!(gap <= gap_tol)) return describe("learner ||w - z||", m, gap, gap_tol);
  }
  return {};
}

/// serve-*: every served decision value is within M * 2^-bits of the
/// plaintext decision value of the same point.
inline std::string check_decisions(std::span<const double> served,
                                   std::span<const double> plain,
                                   std::size_t learners, unsigned bits) {
  if (served.size() != plain.size()) return "decision count mismatch";
  const double bound =
      static_cast<double>(learners) * std::ldexp(1.0, -int(bits));
  for (std::size_t i = 0; i < served.size(); ++i) {
    const double err = std::abs(served[i] - plain[i]);
    if (!(err <= bound)) return describe("query", i, err, bound);
  }
  return {};
}

/// serve-*: tickets 1..n each appear exactly once among the served ids.
inline std::string check_served_once(std::span<const std::uint64_t> ids,
                                     std::size_t n) {
  std::vector<std::uint8_t> seen(n + 1, 0);
  for (std::uint64_t id : ids) {
    if (id == 0 || id > n) return "served unknown ticket " + std::to_string(id);
    if (seen[id]++) return "ticket " + std::to_string(id) + " served twice";
  }
  for (std::size_t id = 1; id <= n; ++id)
    if (!seen[id]) return "ticket " + std::to_string(id) + " never served";
  return {};
}

/// Repeated passes over the same inputs must reproduce the first pass bit
/// for bit (the program is deterministic for fixed inputs).
inline std::string check_identical(const char* what, std::span<const double> a,
                                   std::span<const double> b) {
  if (a.size() != b.size()) return std::string(what) + ": length differs";
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i] != b[i] && !(std::isnan(a[i]) && std::isnan(b[i])))
      return std::string(what) + ": element " + std::to_string(i) +
             " differs between passes";
  return {};
}

}  // namespace perfbench
