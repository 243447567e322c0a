// Self-test of the benchmark's correctness checks: each check must accept a
// correct output and reject the same output once it is corrupted.
// Run: python3 perfbench/run.py --self-test
#include <cstdio>
#include <string>
#include <vector>

#include "checks.h"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++g_failures;
}
void expect_pass(const std::string& error, const char* what) {
  expect(error.empty(), what);
}
void expect_fail(const std::string& error, const char* what) {
  expect(!error.empty(), what);
}

}  // namespace

int main() {
  using namespace perfbench;
  constexpr unsigned kBits = 20;
  const double ulp = std::ldexp(1.0, -int(kBits));

  {  // agg: decoded sum vs plaintext sum
    const std::vector<double> plain = {1.5, -2.25, 0.125};
    std::vector<double> decoded = plain;
    decoded[1] += 100 * ulp;  // within 200 survivors * 2^-20
    expect_pass(check_round_sum(0, decoded, plain, 200, kBits),
                "round sum within its bound passes");
    decoded[2] += 300 * ulp;
    expect_fail(check_round_sum(0, decoded, plain, 200, kBits),
                "round sum off by more than |survivors| 2^-bits fails");
    expect_fail(check_round_sum(0, {decoded.data(), 2}, plain, 200, kBits),
                "round sum of the wrong length fails");
  }
  {  // train: received average vs plain mean of local steps
    const std::vector<double> a = {1.0, 2.0}, b = {3.0, -2.0};
    const std::vector<std::span<const double>> outputs = {a, b};
    std::vector<double> received = {2.0 + ulp, 0.0};
    expect_pass(check_round_average(3, received, outputs, kBits),
                "secure average near the plain mean passes");
    received[1] = 1e-3;
    expect_fail(check_round_average(3, received, outputs, kBits),
                "secure average moved off the plain mean fails");
  }
  {  // accuracy floor
    expect_pass(check_accuracy(0.70, kHiggsAccuracyFloor),
                "accuracy above floor passes");
    expect_fail(check_accuracy(0.5298, kHiggsAccuracyFloor),
                "accuracy below floor fails");
  }
  {  // ADMM consensus, at the train-paper-m4 tolerances
    const std::vector<double> z = {0.9, -0.45};
    std::vector<double> w0 = {1.0, -0.3}, w1 = {0.8, -0.5};
    std::vector<std::span<const double>> ws = {w0, w1};
    expect_pass(check_consensus(2e-5, kConsensusDeltaSqTol, z, ws,
                                kConsensusGapTol),
                "learners at consensus pass");
    expect_fail(check_consensus(1e-3, kConsensusDeltaSqTol, z, ws,
                                kConsensusGapTol),
                "large final ||dz||^2 fails");
    w1[0] = 1.5;  // a learner's w moved away from z
    expect_fail(check_consensus(2e-5, kConsensusDeltaSqTol, z, ws,
                                kConsensusGapTol),
                "a learner's w away from z fails");
  }
  {  // serve: decision values and exactly-once delivery
    const std::vector<double> plain = {0.3, -1.2, 2.0};
    std::vector<double> served = {0.3 + ulp, -1.2, 2.0 - ulp};
    expect_pass(check_decisions(served, plain, 4, kBits),
                "served decisions within M 2^-bits pass");
    served[1] = -1.2 + 1e-4;
    expect_fail(check_decisions(served, plain, 4, kBits),
                "a changed decision value fails");
    served[1] = NAN;
    expect_fail(check_decisions(served, plain, 4, kBits),
                "a missing (NaN) decision value fails");

    const std::vector<std::uint64_t> once = {2, 1, 3};
    expect_pass(check_served_once(once, 3), "every ticket once passes");
    const std::vector<std::uint64_t> twice = {1, 2, 2};
    expect_fail(check_served_once(twice, 3), "a ticket served twice fails");
    const std::vector<std::uint64_t> missing = {1, 3};
    expect_fail(check_served_once(missing, 3), "a ticket never served fails");
    const std::vector<std::uint64_t> unknown = {1, 2, 3, 4};
    expect_fail(check_served_once(unknown, 3), "an unknown ticket fails");
  }
  {  // determinism across passes
    const std::vector<double> a = {1.0, 2.0};
    std::vector<double> b = a;
    expect_pass(check_identical("z", a, b), "identical passes pass");
    b[1] = std::nextafter(2.0, 3.0);
    expect_fail(check_identical("z", a, b), "a one-ulp difference fails");
  }

  std::printf("%d check self-test failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
