// The four workloads of the end-to-end benchmark (README.md describes their
// inputs and what each one stresses). Every workload
//   1. builds its inputs from --seed and times its cold set-up from the
//      start of the process (setup_s),
//   2. runs whole passes of fixed work through the program's public API,
//   3. checks the outputs against values computed here, apart from the
//      program, and
//   4. fills both the end-to-end and the per-layer metrics.
// Layers are timed from outside, at public seams: the decorators in bench.h,
// the RoundObserver, and timers around SecureSumSession and
// PredictionServer calls. Traced passes additionally install an
// obs::Session and read the counters and spans the program already emits.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <optional>
#include <thread>

#include "bench.h"
#include "checks.h"
#include "core/consensus_engine.h"
#include "core/linear_horizontal.h"
#include "core/prediction_server.h"
#include "core/vertical.h"
#include "crypto/secure_sum_session.h"
#include "data/generators.h"
#include "data/partition.h"
#include "data/standardize.h"
#include "mapreduce/cluster.h"
#include "obs/obs.h"
#include "obs/report.h"
#include "svm/metrics.h"

namespace perfbench {

namespace core = ppml::core;
namespace crypto = ppml::crypto;
namespace data = ppml::data;
namespace mapreduce = ppml::mapreduce;
namespace obs = ppml::obs;

namespace {

constexpr unsigned kBits = 20;  // AdmmParams / SecureSumConfig default

double peak_rss_mb() {
  return static_cast<double>(obs::process_peak_rss_bytes()) / (1024.0 * 1024.0);
}

/// splitmix64: the benchmark's own input generator for values the library
/// generators do not cover.
struct SplitMix {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
  std::size_t below(std::size_t n) { return next() % n; }
};

/// An obs::Session with its own tracer and registry, installed for one
/// traced pass or round.
struct TraceScope {
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  obs::Session session{&tracer, &metrics};

  double span_total(const std::string& name) const {
    const auto spans = obs::aggregate_spans(tracer);
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.total_s;
  }
};

std::vector<std::size_t> without(const std::vector<std::size_t>& set,
                                 std::size_t drop) {
  std::vector<std::size_t> out;
  for (std::size_t p : set)
    if (p != drop) out.push_back(p);
  return out;
}

}  // namespace

// --- agg-m256-dropout ------------------------------------------------------
//
// One SecureSumSession over M=256 parties on the grouped-ring topology with
// Shamir recovery armed. Each round every live party contributes a fixed
// 64-element vector, one party (a different one each round) drops after
// masking, and the reducer recovers the sum over the survivors. A dropped
// party's seeds are revealed by the recovery, so it never rejoins: the
// round phase is one pass of kRounds rounds and does not follow --seconds.
RunReport run_agg(const Options& options) {
  constexpr std::size_t kParties = 256;
  constexpr std::size_t kDim = 64;
  constexpr std::size_t kRounds = 40;
  RunReport report;

  const auto t_gen = Clock::now();
  SplitMix rng{options.seed * 0x2545F4914F6CDD1DULL + 11};
  std::vector<std::vector<std::vector<double>>> values(kRounds);
  for (auto& round : values) {
    round.assign(kParties, std::vector<double>(kDim));
    for (auto& party : round)
      for (double& v : party) v = rng.uniform(-1.0, 1.0);
  }
  std::vector<std::size_t> drop_order(kParties);
  for (std::size_t i = 0; i < kParties; ++i) drop_order[i] = i;
  for (std::size_t i = kParties - 1; i > 0; --i)
    std::swap(drop_order[i], drop_order[rng.below(i + 1)]);
  const double generate_s = seconds_since(t_gen);

  crypto::SecureSumConfig config;
  config.num_parties = kParties;
  config.fixed_point_bits = kBits;
  config.variant = crypto::MaskVariant::kSeededMasks;
  config.protocol_seed = 0xC0FFEE ^ options.seed;
  config.topology = crypto::AggregationTopology::kGroupedRing;
  config.group_size = 0;  // auto: ceil(sqrt(M)) = 16

  const auto t_dh = Clock::now();
  crypto::SecureSumSession session(config);
  const double key_agreement_s = seconds_since(t_dh);
  const auto t_deal = Clock::now();
  session.arm_recovery(/*threshold=*/0, /*sharing_seed=*/0xD509 ^ options.seed);
  const double dealing_s = seconds_since(t_deal);
  const double setup_s = seconds_since(process_start());

  std::vector<std::size_t> live(kParties);
  for (std::size_t i = 0; i < kParties; ++i) live[i] = i;
  std::vector<double> round_s, contribute_ms, reduce_ms, traced_round_s,
      plain_round_s, contribute_call_s;
  std::vector<std::vector<double>> decoded(kRounds);
  std::vector<std::vector<std::size_t>> survivors(kRounds);
  std::int64_t masks = 0, reconstructions = 0;
  std::size_t contributions = 0;
  contribute_call_s.reserve(kRounds * kParties);

  const auto t_phase = Clock::now();
  for (std::size_t r = 0; r < kRounds; ++r) {
    // Traced runs alternate plain and traced rounds; the difference is the
    // tracing overhead.
    std::optional<TraceScope> trace;
    if (options.trace && r % 2 == 1) trace.emplace();
    std::vector<std::vector<std::uint64_t>> wire(kParties);
    const auto t_round = Clock::now();
    for (std::size_t p : live) {
      const crypto::SecureSumSession::Tensor tensor(values[r][p]);
      const auto t_call = Clock::now();
      wire[p] = session.contribute(p, std::span(&tensor, 1), r, live);
      contribute_call_s.push_back(seconds_since(t_call));
    }
    contribute_ms.push_back(1e3 * seconds_since(t_round));
    contributions += live.size();
    const std::vector<std::size_t> present = without(live, drop_order[r]);
    crypto::SecureSumSession::ReduceAudit audit;
    const auto t_reduce = Clock::now();
    session.reduce_average(r, live, present, wire, &audit);
    reduce_ms.push_back(1e3 * seconds_since(t_reduce));
    round_s.push_back(seconds_since(t_round));
    if (trace) {
      masks += trace->metrics.counter("crypto.masks_generated");
      reconstructions += trace->metrics.counter("crypto.shamir_reconstructions");
      traced_round_s.push_back(round_s.back());
    } else {
      plain_round_s.push_back(round_s.back());
    }
    decoded[r] = std::move(audit.decoded_sum);
    survivors[r] = present;
    live = present;
  }
  const double phase_s = seconds_since(t_phase);

  std::size_t good_rounds = 0;
  for (std::size_t r = 0; r < kRounds; ++r) {
    std::vector<double> plain(kDim, 0.0);
    for (std::size_t p : survivors[r])
      for (std::size_t j = 0; j < kDim; ++j) plain[j] += values[r][p][j];
    const std::string error =
        check_round_sum(r, decoded[r], plain, survivors[r].size(), kBits);
    report.check(error);
    good_rounds += error.empty();
  }
  report.attempted = kRounds;

  report.set("setup_s", setup_s);
  report.set("rounds_s", phase_s);
  report.set("round_ms_p50", 1e3 * median(round_s));
  // A batch here is one party's batched masked contribution.
  report.set("batch_ms_p50", 1e3 * quantile(contribute_call_s, 0.50));
  report.set("batch_ms_p99", 1e3 * quantile(contribute_call_s, 0.99));
  report.set("serve_qps", static_cast<double>(contributions) / phase_s);
  report.set("test_accuracy", static_cast<double>(good_rounds) / kRounds);
  report.set("peak_rss_mb", peak_rss_mb());

  report.set("data.generate_s", generate_s);
  report.set("crypto.key_agreement_s", key_agreement_s);
  report.set("crypto.share_dealing_s", dealing_s);
  report.set("crypto.contribute_ms_p50", median(contribute_ms));
  report.set("crypto.reduce_ms_p50", median(reduce_ms));
  if (!traced_round_s.empty()) {
    const double n = static_cast<double>(traced_round_s.size());
    report.set("crypto.masks_generated", static_cast<double>(masks) / n);
    report.set("crypto.shamir_reconstructions",
               static_cast<double>(reconstructions) / n);
    report.set("trace_overhead_s", kRounds * (sum(traced_round_s) / n -
                                              sum(plain_round_s) /
                                                  static_cast<double>(
                                                      plain_round_s.size())));
  }
  report.set("unattributed_s",
             phase_s - 1e-3 * (sum(contribute_ms) + sum(reduce_ms)));
  return report;
}

// --- train-paper-m4 / train-higgs-1m ---------------------------------------

namespace {

constexpr std::size_t kLearners = 4;
constexpr std::size_t kFeatures = 28;

struct TrainInputs {
  std::vector<mapreduce::Bytes> shards;
  data::Dataset test;
  std::size_t train_rows = 0;
  double generate_s = 0.0;
  double prepare_s = 0.0;
  double serialize_s = 0.0;
};

/// Paper Fig. 4 setting: standardized make_higgs_like(11 000), 50/50 split,
/// rows assigned to learners at random.
TrainInputs paper_inputs(std::uint64_t seed) {
  TrainInputs in;
  auto t = Clock::now();
  const data::Dataset raw = data::make_higgs_like(seed, 11000);
  in.generate_s = seconds_since(t);
  t = Clock::now();
  data::SplitDataset split = data::train_test_split(raw, 0.5, seed);
  data::StandardScaler scaler;
  scaler.fit_transform(split);
  const data::HorizontalPartition partition =
      data::partition_horizontally(split.train, kLearners, seed);
  in.prepare_s = seconds_since(t);
  t = Clock::now();
  for (const data::Dataset& shard : partition.shards)
    in.shards.push_back(core::serialize_horizontal_shard(shard));
  in.serialize_s = seconds_since(t);
  in.train_rows = split.train.size();
  in.test = std::move(split.test);
  return in;
}

/// HIGGS scale: 10^6 counter-seeded rows, each learner's slice generated
/// and serialized on its own (the full set never sits in memory at once),
/// plus 20 000 held-out rows past the training range.
TrainInputs higgs_inputs(std::uint64_t seed) {
  constexpr std::size_t kRows = 1'000'000;
  TrainInputs in;
  const std::size_t per = kRows / kLearners;
  for (std::size_t m = 0; m < kLearners; ++m) {
    auto t = Clock::now();
    const data::Dataset shard =
        data::make_higgs_scale_rows(seed, m * per, (m + 1) * per);
    in.generate_s += seconds_since(t);
    t = Clock::now();
    in.shards.push_back(core::serialize_horizontal_shard(shard));
    in.serialize_s += seconds_since(t);
  }
  const auto t = Clock::now();
  in.test = data::make_higgs_scale_rows(seed, kRows, kRows + 20000);
  in.generate_s += seconds_since(t);
  in.train_rows = kRows;
  return in;
}

struct TrainPass {
  double engine_build_s = 0.0;
  double wall_s = 0.0;
  std::vector<double> round_s;
  std::vector<LearnerLog> logs;
  std::vector<linalg::Vector> averages;
  std::vector<double> combine_s;
  std::vector<linalg::Vector> ws;  ///< each learner's final w
  linalg::Vector z;
  double s = 0.0;
  double final_delta_sq = 0.0;
  std::size_t net_bytes = 0, net_messages = 0, spill_bytes = 0;
  // Traced passes only.
  std::int64_t box_sweeps = 0, factored_sweeps = 0;
  double secure_sum_span_s = 0.0, transport_span_s = 0.0;
};

/// One whole training: a fresh cluster, engine and FabricTransport over the
/// same serialized shards. `before_run` fires just before the round phase.
TrainPass train_pass(const TrainInputs& in, const core::AdmmParams& params,
                     const mapreduce::ClusterConfig& cluster_config,
                     bool traced, const std::function<void()>& before_run) {
  TrainPass pass;
  mapreduce::Cluster cluster(cluster_config);
  core::AveragingCoordinator averaging(kFeatures + 1);
  TimedCoordinator coordinator(averaging);
  pass.logs.resize(kLearners);
  std::vector<std::shared_ptr<core::LinearHorizontalLearner>> typed(kLearners);
  const core::LearnerFactory factory = timed_factory(
      [&typed, params](mapreduce::BytesView payload, std::size_t index) {
        auto learner = std::make_shared<core::LinearHorizontalLearner>(
            core::deserialize_horizontal_shard(payload), kLearners, params);
        typed.at(index) = learner;
        return std::shared_ptr<core::ConsensusLearner>(learner);
      },
      pass.logs);

  core::FullParticipation policy;
  const auto t_engine = Clock::now();
  core::ConsensusEngine engine(kLearners, coordinator, params, policy);
  pass.engine_build_s = seconds_since(t_engine);
  core::FabricTransport transport(cluster, in.shards, factory,
                                  /*reducer_node=*/kLearners);

  std::optional<TraceScope> trace;
  if (traced) trace.emplace();
  before_run();
  const auto t0 = Clock::now();
  auto t_last = t0;
  engine.run(transport, [&](std::size_t) {
    const auto now = Clock::now();
    pass.round_s.push_back(seconds_between(t_last, now));
    t_last = now;
  });
  pass.wall_s = seconds_since(t0);
  if (trace) {
    pass.box_sweeps = trace->metrics.counter("qp.box.sweeps");
    pass.factored_sweeps = trace->metrics.counter("qp.factored.sweeps");
    pass.secure_sum_span_s = trace->span_total("secure_sum");
    pass.transport_span_s = trace->span_total("broadcast") +
                            trace->span_total("shuffle") +
                            trace->span_total("contribute");
    trace.reset();
  }

  pass.averages = std::move(coordinator.averages);
  pass.combine_s = std::move(coordinator.combine_s);
  pass.z = averaging.z();
  pass.s = averaging.s();
  pass.final_delta_sq = averaging.last_delta_sq();
  for (const auto& learner : typed)
    pass.ws.push_back(learner ? learner->w() : linalg::Vector{});
  const mapreduce::ChannelStats net = cluster.network().totals();
  pass.net_bytes = net.bytes;
  pass.net_messages = net.messages;
  pass.spill_bytes = cluster.storage().spill_stats().spilled_bytes;
  return pass;
}

/// Slowest learner's local step in each round.
std::vector<double> critical_steps(const TrainPass& pass) {
  std::vector<double> crit(pass.round_s.size(), 0.0);
  for (const LearnerLog& log : pass.logs)
    for (std::size_t r = 0; r < crit.size() && r < log.step_s.size(); ++r)
      crit[r] = std::max(crit[r], log.step_s[r]);
  return crit;
}

double slowest_build(const TrainPass& pass) {
  double worst = 0.0;
  for (const LearnerLog& log : pass.logs) worst = std::max(worst, log.build_s);
  return worst;
}

}  // namespace

RunReport run_train(const Options& options, bool paper_scale) {
  RunReport report;
  const TrainInputs in =
      paper_scale ? paper_inputs(options.seed) : higgs_inputs(options.seed);

  core::AdmmParams params;  // paper §VI: C = 50, rho = 100
  params.c = 50.0;
  params.rho = 100.0;
  if (paper_scale) {
    params.max_iterations = 100;
  } else {
    params.max_iterations = 5;
    params.qp_max_sweeps = 30;  // fixed compute budget per round
  }

  const std::string spill_dir = options.scratch + "/spill-" +
                                std::to_string(static_cast<long>(::getpid()));
  mapreduce::ClusterConfig cluster_config;
  cluster_config.num_nodes = kLearners + 1;  // + the reducer's node
  cluster_config.task_slots = kLearners;
  cluster_config.blockstore_budget_bytes = paper_scale ? 0 : 64ull << 20;
  cluster_config.blockstore_spill_dir = spill_dir;

  double setup_s = 0.0, key_agreement_s = 0.0;
  std::vector<TrainPass> passes;
  std::vector<double> plain_walls, traced_walls;
  const auto t_phase = Clock::now();
  do {
    const std::size_t p = passes.size();
    const bool traced = options.trace && p % 2 == 1;
    passes.push_back(train_pass(in, params, cluster_config, traced, [&] {
      if (p == 0) setup_s = seconds_since(process_start());
    }));
    (traced ? traced_walls : plain_walls).push_back(passes.back().wall_s);
    std::fprintf(stderr, "pass %zu%s: %.3f s\n", p, traced ? " (traced)" : "",
                 passes.back().wall_s);
  } while (seconds_since(t_phase) < options.seconds ||
           (options.trace && traced_walls.empty()));
  std::filesystem::remove_all(spill_dir);

  if (options.trace) {
    // The engine's key agreement is not separately visible; time the same
    // session construction once on its own.
    crypto::SecureSumConfig config;
    config.num_parties = kLearners;
    config.fixed_point_bits = params.fixed_point_bits;
    config.protocol_seed = params.protocol_seed;
    const auto t = Clock::now();
    crypto::SecureSumSession probe(config);
    key_agreement_s = seconds_since(t);
  }

  // Checks: every round's secure average against the plain mean of that
  // round's local steps, accuracy, determinism across passes, and (paper
  // setting) ADMM consensus.
  const TrainPass& first = passes.front();
  const double accuracy = ppml::svm::accuracy(
      ppml::svm::LinearModel{first.z, first.s}.predict_all(in.test.x),
      in.test.y);
  for (const TrainPass& pass : passes) {
    report.attempted += params.max_iterations;
    if (pass.averages.size() != params.max_iterations) {
      report.check("pass ran " + std::to_string(pass.averages.size()) +
                   " rounds, expected " +
                   std::to_string(params.max_iterations));
      continue;
    }
    for (std::size_t r = 0; r < pass.averages.size(); ++r) {
      std::vector<std::span<const double>> outputs;
      for (const LearnerLog& log : pass.logs)
        if (r < log.outputs.size()) outputs.emplace_back(log.outputs[r]);
      if (outputs.size() != kLearners) {
        report.check("round " + std::to_string(r) + ": missing local steps");
        continue;
      }
      report.check(check_round_average(r, pass.averages[r], outputs,
                                       params.fixed_point_bits));
    }
    report.check(check_identical("final z", pass.z, first.z));
  }
  report.check(check_accuracy(accuracy, kHiggsAccuracyFloor));
  if (paper_scale) {
    std::vector<std::span<const double>> ws(first.ws.begin(), first.ws.end());
    double gap = 0.0;
    for (const auto& w : ws) gap = std::max(gap, consensus_gap(w, first.z));
    std::fprintf(stderr, "consensus: final ||dz||^2 %.3e, max ||w_m - z|| %.3e\n",
                 first.final_delta_sq, gap);
    report.check(check_consensus(first.final_delta_sq, kConsensusDeltaSqTol,
                                 first.z, ws, kConsensusGapTol));
  }

  // Round 0 also builds the learners from their shards; the per-round
  // figures describe the steady rounds after it.
  std::vector<double> all_rounds, all_steps;
  for (const TrainPass& pass : passes) {
    if (!pass.round_s.empty())
      all_rounds.insert(all_rounds.end(), pass.round_s.begin() + 1,
                        pass.round_s.end());
    for (const LearnerLog& log : pass.logs)
      if (!log.step_s.empty())
        all_steps.insert(all_steps.end(), log.step_s.begin() + 1,
                         log.step_s.end());
  }
  const double rounds_s = median(plain_walls);
  report.set("setup_s", setup_s);
  report.set("rounds_s", rounds_s);
  report.set("round_ms_p50", 1e3 * median(all_rounds));
  // A batch here is one learner's local step over its whole shard.
  report.set("batch_ms_p50", 1e3 * quantile(all_steps, 0.50));
  report.set("batch_ms_p99", 1e3 * quantile(all_steps, 0.99));
  report.set("serve_qps", static_cast<double>(in.train_rows) *
                              static_cast<double>(params.max_iterations) /
                              rounds_s);
  report.set("test_accuracy", accuracy);
  report.set("peak_rss_mb", peak_rss_mb());

  report.set("data.generate_s", in.generate_s);
  report.set("data.prepare_s", in.prepare_s);
  report.set("mapreduce.serialize_s", in.serialize_s);
  report.set("core.engine_build_s", first.engine_build_s);
  report.set("crypto.key_agreement_s", key_agreement_s);
  if (options.trace) {
    const TrainPass& t = passes[1];
    const std::vector<double> crit = critical_steps(t);
    double build_sum = 0.0, step_sum = 0.0;
    for (const LearnerLog& log : t.logs) {
      build_sum += log.build_s;
      step_sum += sum(log.step_s);
    }
    std::vector<double> rest(t.round_s.size());
    for (std::size_t r = 0; r < rest.size(); ++r)
      rest[r] = t.round_s[r] - crit[r] -
                (r < t.combine_s.size() ? t.combine_s[r] : 0.0) -
                (r == 0 ? slowest_build(t) : 0.0);
    report.set("net.bytes", static_cast<double>(t.net_bytes));
    report.set("net.messages", static_cast<double>(t.net_messages));
    report.set("blockstore.spill.bytes", static_cast<double>(t.spill_bytes));
    report.set("core.learner_build_s", build_sum);
    report.set("core.local_step_s", step_sum);
    report.set("core.local_step_crit_ms_p50", 1e3 * median(crit));
    report.set("qp.box.sweeps", static_cast<double>(t.box_sweeps));
    report.set("qp.factored.sweeps", static_cast<double>(t.factored_sweeps));
    report.set("core.combine_s", sum(t.combine_s));
    report.set("core.round_rest_ms_p50", 1e3 * median(rest));
    // Critical path of a pass: the slowest learner's build and local steps,
    // the coordinator combine, the reducer's secure sum and the fabric's
    // broadcast/contribution phases.
    report.set("unattributed_s", t.wall_s - slowest_build(t) - sum(crit) -
                                     sum(t.combine_s) - t.secure_sum_span_s -
                                     t.transport_span_s);
    report.set("trace_overhead_s", median(traced_walls) - median(plain_walls));
  }
  return report;
}

// --- serve-kernel-mixed ----------------------------------------------------
//
// PredictionServer over an RBF kernel-vertical model (4 learners, 1 000
// training rows). 2x10^5 queries from 4 clients arrive open-loop at a fixed
// virtual rate: the first 256 are the hot set (which claims every cache
// slot), then hot repeats and never-repeated fresh points, half each, in a
// seeded order. Each pass serves the whole stream on a fresh server.
RunReport run_serve(const Options& options) {
  constexpr std::size_t kTrain = 1000;
  constexpr std::size_t kHot = 256;
  constexpr std::size_t kQueries = 200'000;
  constexpr std::size_t kFresh = kQueries / 2;
  constexpr std::size_t kClients = 4;
  constexpr double kRate = 50'000.0;  // virtual queries/s: batches fill first
  RunReport report;

  auto t = Clock::now();
  data::Dataset train = data::make_higgs_scale_rows(options.seed, 0, kTrain);
  data::Dataset queries = data::make_higgs_scale_rows(
      options.seed, kTrain, kTrain + kHot + kFresh);
  const double generate_s = seconds_since(t);

  t = Clock::now();
  data::StandardScaler scaler;
  scaler.fit(train.x);
  scaler.transform(train.x);
  scaler.transform(queries.x);
  const data::VerticalPartition partition =
      data::partition_vertically(train, kLearners, options.seed);
  // Query k reads queries row stream[k]: rows [0, kHot) are the hot set,
  // rows [kHot, kHot + kFresh) are fresh and each used once.
  std::vector<std::size_t> stream;
  stream.reserve(kQueries);
  for (std::size_t i = 0; i < kHot; ++i) stream.push_back(i);
  SplitMix rng{options.seed * 0x9E3779B97F4A7C15ULL + 5};
  std::vector<std::size_t> tail;
  for (std::size_t i = kHot; i < kQueries / 2; ++i) tail.push_back(rng.below(kHot));
  for (std::size_t i = 0; i < kFresh; ++i) tail.push_back(kHot + i);
  for (std::size_t i = tail.size() - 1; i > 0; --i)
    std::swap(tail[i], tail[rng.below(i + 1)]);
  stream.insert(stream.end(), tail.begin(), tail.end());
  const double prepare_s = seconds_since(t);

  core::AdmmParams params;
  params.c = 50.0;
  params.rho = 100.0;
  params.max_iterations = 100;
  t = Clock::now();
  const core::KernelVerticalResult trained = core::train_kernel_vertical(
      partition, ppml::svm::Kernel::rbf(4.0 / kFeatures), params, nullptr);
  const double model_train_s = seconds_since(t);

  core::ServingConfig serving;
  serving.max_batch = 64;
  serving.max_linger = 0.005;
  serving.cache_slots = kHot;

  struct ServePass {
    bool traced = false;
    double wall_s = 0.0, submit_s = 0.0, drive_s = 0.0;
    std::vector<double> batch_s;
    std::vector<std::uint64_t> ids;
    std::vector<double> decisions;  ///< indexed by query (ticket - 1)
    std::size_t bypass = 0;
    double hit_ratio = 0.0, secure_sum_span_s = 0.0;
  };
  double setup_s = 0.0;
  std::vector<ServePass> passes;
  std::vector<double> plain_walls, traced_walls;
  const auto t_phase = Clock::now();
  do {
    const bool traced = options.trace && passes.size() % 2 == 1;
    ServePass pass;
    pass.traced = traced;
    core::PredictionServer server(trained.model, params, serving);
    std::optional<TraceScope> trace;
    if (traced) trace.emplace();
    if (passes.empty()) setup_s = seconds_since(process_start());
    const auto t0 = Clock::now();
    std::size_t batches = 0;
    const auto drive = [&](auto&& call) {
      const auto tc = Clock::now();
      call();
      const double dt = seconds_since(tc);
      pass.drive_s += dt;
      if (server.stats().batches != batches) pass.batch_s.push_back(dt);
      batches = server.stats().batches;
    };
    for (std::size_t k = 0; k < kQueries; ++k) {
      const double now = static_cast<double>(k) / kRate;
      drive([&] { server.advance(now); });
      const std::span<const double> x = queries.x.row(stream[k]);
      if (traced) {
        const auto ts = Clock::now();
        server.submit(k % kClients, x, now);
        pass.submit_s += seconds_since(ts);
      } else {
        server.submit(k % kClients, x, now);
      }
    }
    drive([&] { server.drain(static_cast<double>(kQueries) / kRate); });
    const std::vector<core::ServeResult> results = server.take_results();
    pass.wall_s = seconds_since(t0);
    pass.decisions.assign(kQueries, NAN);
    for (const core::ServeResult& r : results) {
      pass.ids.push_back(r.query_id);
      if (r.query_id >= 1 && r.query_id <= kQueries)
        pass.decisions[r.query_id - 1] = r.decision_value;
    }
    pass.bypass = server.stats().cache_bypass;
    pass.hit_ratio = server.cache_hit_rate();
    if (trace) pass.secure_sum_span_s = trace->span_total("serve.secure_sum");
    (traced ? traced_walls : plain_walls).push_back(pass.wall_s);
    std::fprintf(stderr, "pass %zu%s: %.3f s\n", passes.size(),
                 traced ? " (traced)" : "", pass.wall_s);
    passes.push_back(std::move(pass));
  } while (seconds_since(t_phase) < options.seconds ||
           (options.trace && traced_walls.empty()));

  // Plaintext decision value of every distinct query point, computed with
  // the model view directly (no secure sum), on up to 4 threads.
  std::vector<double> plain_by_row(kHot + kFresh);
  {
    const std::size_t workers =
        std::min<std::size_t>(4, std::max(1u, std::thread::hardware_concurrency()));
    std::vector<std::thread> pool;
    for (std::size_t w = 0; w < workers; ++w)
      pool.emplace_back([&, w] {
        for (std::size_t i = w; i < plain_by_row.size(); i += workers)
          plain_by_row[i] = trained.model.decision_value(queries.x.row(i));
      });
    for (std::thread& th : pool) th.join();
  }
  // Accuracy counts each distinct query point once, so the 256 hot points
  // do not stand in for half of the stream.
  std::vector<double> plain(kQueries);
  std::vector<double> served_by_row(kHot + kFresh, NAN);
  const ServePass& first = passes.front();
  for (std::size_t k = 0; k < kQueries; ++k) {
    plain[k] = plain_by_row[stream[k]];
    served_by_row[stream[k]] = first.decisions[k];
  }
  std::size_t correct = 0;
  for (std::size_t i = 0; i < served_by_row.size(); ++i)
    correct += (served_by_row[i] >= 0.0 ? 1.0 : -1.0) == queries.y[i];
  for (const ServePass& pass : passes) {
    report.attempted += kQueries;
    report.check(check_served_once(pass.ids, kQueries));
    if (&pass == &first)
      report.check(check_decisions(pass.decisions, plain, kLearners, kBits));
    else
      report.check(check_identical("served decisions", pass.decisions,
                                   first.decisions));
  }

  std::vector<double> batch_s, qps;
  for (const ServePass& pass : passes) {
    batch_s.insert(batch_s.end(), pass.batch_s.begin(), pass.batch_s.end());
    if (!pass.traced)
      qps.push_back(static_cast<double>(kQueries) / pass.wall_s);
  }
  report.set("setup_s", setup_s);
  report.set("rounds_s", median(plain_walls));
  report.set("round_ms_p50", 1e3 * median(batch_s));
  report.set("batch_ms_p50", 1e3 * quantile(batch_s, 0.50));
  report.set("batch_ms_p99", 1e3 * quantile(batch_s, 0.99));
  report.set("serve_qps", median(qps));
  report.set("test_accuracy", static_cast<double>(correct) /
                                  static_cast<double>(served_by_row.size()));
  report.set("peak_rss_mb", peak_rss_mb());

  report.set("data.generate_s", generate_s);
  report.set("data.prepare_s", prepare_s);
  report.set("serve.model_train_s", model_train_s);
  if (options.trace) {
    const ServePass& tp = passes[1];
    report.set("serve.submit_s", tp.submit_s);
    report.set("serve.secure_sum_s", tp.secure_sum_span_s);
    report.set("serve.cache_hit_ratio", tp.hit_ratio);
    report.set("serve.cache.bypass", static_cast<double>(tp.bypass));
    report.set("unattributed_s", tp.wall_s - tp.submit_s - tp.drive_s);
    report.set("trace_overhead_s", median(traced_walls) - median(plain_walls));
  }
  return report;
}

}  // namespace perfbench
