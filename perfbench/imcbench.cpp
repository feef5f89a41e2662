// imcbench — single-process end-to-end benchmark of the imc library.
//
//   imcbench --workload NAME --seed N --seconds S --threads T
//            --mode e2e|trace|serial --work-dir DIR [--trace-out FILE]
//
// Runs one workload (see README.md) through the public ImcEngine API with
// the library defaults and checks every op's output. Modes:
//   e2e    untraced timed loop; end-to-end metrics.
//   trace  the untraced loop, then the same ops again with spans, a timing
//          MaxrSolver decorator, a MetricsSink and per-layer replays;
//          per-layer metrics plus the tracing overhead.
//   serial one traced op with every parallel flag off (run with
//          --threads 1); the single-threaded reference layer seconds.
// The last line of stdout is one JSON object:
//   {"attempted":N,"failed":F,"metrics":{...},"op_solve_s":[...],
//    "host":{...},"notes":[...]}
// run.py builds this program and turns that line into the benchmark result.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/gain_kernels.h"
#include "imc/imc.h"
#include "trace.h"

namespace {

using namespace imc;
using imcbench::ScopedSpan;
using imcbench::TimedSolver;
using imcbench::Tracer;

// ---------------------------------------------------------------- options

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  unsigned threads = 1;
  std::string mode = "e2e";
  std::string work_dir = ".";
  std::string trace_out;
};

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::stoull(value);
    } else if (key == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (key == "--threads") {
      opt.threads = static_cast<unsigned>(std::stoul(value));
    } else if (key == "--mode") {
      opt.mode = value;
    } else if (key == "--work-dir") {
      opt.work_dir = value;
    } else if (key == "--trace-out") {
      opt.trace_out = value;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (argc % 2 != 1) throw std::invalid_argument("options come in pairs");
  if (opt.mode != "e2e" && opt.mode != "trace" && opt.mode != "serial") {
    throw std::invalid_argument("--mode must be e2e, trace or serial");
  }
  if (opt.threads == 0 || !(opt.seconds > 0.0)) {
    throw std::invalid_argument("--threads and --seconds must be positive");
  }
  return opt;
}

// -------------------------------------------------------------- workloads

/// Every workload asks for k = 20 seeds and caps the pool at 400k samples.
constexpr std::uint32_t kSeedSetSize = 20;
constexpr std::uint64_t kMaxSamples = 400'000;

struct Workload {
  std::string name;
  DatasetId dataset;
  double scale;
  ThresholdRegime regime;  // fraction 0.5 of population, or constant h = 2
  MaxrAlgorithm algorithm;
  bool delta_stream;  // one long-lived engine fed GraphDelta batches
  std::uint32_t setups;  // timed set-ups per block, about 1-2 s a block
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"accept-small", DatasetId::kFacebook, 1.0,
       ThresholdRegime::kFractionOfPopulation, MaxrAlgorithm::kUbg, false,
       25},
      {"cap-large", DatasetId::kEpinions, 1.0,
       ThresholdRegime::kFractionOfPopulation, MaxrAlgorithm::kUbg, false, 2},
      {"bounded-bt", DatasetId::kFacebook, 0.5,
       ThresholdRegime::kConstantBounded, MaxrAlgorithm::kBt, false, 50},
      {"delta-stream", DatasetId::kFacebook, 1.0,
       ThresholdRegime::kFractionOfPopulation, MaxrAlgorithm::kUbg, true, 1},
  };
  return all;
}

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return w;
  }
  throw std::invalid_argument("unknown workload " + name);
}

// Every input the program receives derives from the workload seed through
// these streams, so one seed fixes the whole run.
enum Stream : std::uint64_t {
  kCommunityStream = 100,    // + set-up index
  kDeltaEngineStream = 200,  // + set-up index
  kDeltaBatchStream = 300,   // + episode index
  kQueryStream = 1000,       // + op index
};

/// delta-stream replays its batches in episodes of this many, each from
/// the set-up state (see OpRunner::start_episode).
constexpr std::uint64_t kBatchesPerEpisode = 10;

std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t state = seed ^ (0x9e3779b97f4a7c15ULL * (stream + 1));
  return splitmix64(state);
}

/// The library defaults, except the sample cap and (serial mode) the
/// parallel flags.
ImcafConfig engine_config(bool parallel, std::uint64_t seed) {
  ImcafConfig config;
  config.seed = seed;
  config.max_samples = kMaxSamples;
  config.parallel_sampling = parallel;
  config.pipeline = parallel;
  return config;
}

// ------------------------------------------------------------ host facts

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

/// Resets the process's peak RSS (VmHWM) to its current RSS, so the next
/// read gives the peak of one op. False where /proc/self/clear_refs cannot
/// be written: the peak then keeps growing over the run.
bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5" << std::flush;
  return static_cast<bool>(out);
}

/// VmHWM in MiB: the peak RSS since the last reset_peak_rss().
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::uint64_t l3_bytes() {
  namespace fs = std::filesystem;
  const fs::path cache = "/sys/devices/system/cpu/cpu0/cache";
  for (int index = 0; index < 8; ++index) {
    const fs::path dir = cache / ("index" + std::to_string(index));
    std::ifstream level_in(dir / "level");
    int level = 0;
    if (!(level_in >> level) || level != 3) continue;
    std::ifstream size_in(dir / "size");
    std::uint64_t size = 0;
    std::string suffix;
    if (!(size_in >> size)) continue;
    size_in >> suffix;
    if (suffix == "K") size <<= 10;
    if (suffix == "M") size <<= 20;
    return size;
  }
  const long size = sysconf(_SC_LEVEL3_CACHE_SIZE);
  return size > 0 ? static_cast<std::uint64_t>(size) : 0;
}

/// Host CPU time stolen by the hypervisor and total CPU time, in ticks
/// summed over all CPUs (the first line of /proc/stat).
struct HostTicks {
  double steal = 0.0;
  double total = 0.0;
};

HostTicks host_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  HostTicks ticks;
  double value = 0.0;
  for (int field = 0; field < 8 && in >> value; ++field) {
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

// ------------------------------------------------------------------ JSON

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// ------------------------------------------------------------- statistics

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------- fixture

/// Wall times (and the snapshot size) of one set-up.
struct SetupTimes {
  double total_s = 0.0;
  double graph_s = 0.0;
  double community_s = 0.0;
  double save_s = 0.0;
  double attach_s = 0.0;
  double snapshot_bytes = 0.0;
};

/// Inputs of one run. Not copyable or movable: the engine borrows the
/// graph and community set.
struct Fixture {
  Fixture() = default;
  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;
  ~Fixture() {
    std::error_code ignored;
    if (!snapshot_path.empty()) std::filesystem::remove(snapshot_path, ignored);
  }

  Graph graph;
  CommunitySet communities;
  RecordingMetricsSink sink;          // delta-stream, traced: engine rows
  std::unique_ptr<ImcEngine> engine;  // delta-stream: the long-lived engine
  // delta-stream: the set-up state every episode of batches starts from.
  Graph initial_graph;
  CommunitySet initial_communities;
  std::string snapshot_path;  // removed with the fixture
  SetupTimes times;
};

/// Builds set-up number `index`: graph and communities; for delta-stream
/// also the engine, its first solve, the snapshot save and the verified
/// attach. Each index has its own community (and engine) seed.
std::unique_ptr<Fixture> build_fixture(const Workload& w, const Options& opt,
                                       std::uint64_t index, bool parallel,
                                       Tracer* tracer,
                                       const MaxrSolver& solver) {
  auto fx = std::make_unique<Fixture>();
  const Stopwatch total;
  const ScopedSpan setup_span(tracer, "bench.setup");
  {
    const ScopedSpan span(tracer, "graph.make_dataset");
    const Stopwatch watch;
    fx->graph = make_dataset(w.dataset, w.scale);
    fx->times.graph_s = watch.elapsed_seconds();
  }
  {
    const ScopedSpan span(tracer, "community.build_communities");
    const Stopwatch watch;
    CommunityBuildConfig config;
    config.regime = w.regime;
    config.seed = derive(opt.seed, kCommunityStream + index);
    fx->communities = build_communities(fx->graph, config);
    fx->times.community_s = watch.elapsed_seconds();
  }
  if (w.delta_stream) {
    ExecutionContext context;
    if (tracer != nullptr) context.metrics = &fx->sink;
    {
      const ScopedSpan span(tracer, "engine.ctor");
      fx->engine = std::make_unique<ImcEngine>(
          fx->graph, fx->communities,
          engine_config(parallel,
                        derive(opt.seed, kDeltaEngineStream + index)),
          context);
    }
    {
      const ScopedSpan span(tracer, "engine.solve");
      (void)fx->engine->solve(kSeedSetSize, solver);
    }
    static std::uint64_t snapshots = 0;  // one file per live fixture
    fx->snapshot_path = (std::filesystem::path(opt.work_dir) /
                         ("delta-" + std::to_string(getpid()) + "-" +
                          std::to_string(snapshots++) + ".snap"))
                            .string();
    const std::string& path = fx->snapshot_path;
    {
      const ScopedSpan span(tracer, "sampling.snapshot_save");
      const Stopwatch watch;
      save_ric_pool_snapshot(path, fx->engine->pool());
      fx->times.save_s = watch.elapsed_seconds();
    }
    fx->times.snapshot_bytes =
        static_cast<double>(std::filesystem::file_size(path));
    {
      const ScopedSpan span(tracer, "engine.attach_pool");
      const Stopwatch watch;
      fx->engine->attach_pool(path);
      fx->times.attach_s = watch.elapsed_seconds();
    }
    fx->initial_graph = fx->graph;
    fx->initial_communities = fx->communities;
  }
  fx->times.total_s = total.elapsed_seconds();
  return fx;
}

// ------------------------------------------------------------ delta input

/// One batch: two new edges, two removals, one reweight and one member
/// move, all valid against the current graph and communities.
GraphDelta make_delta(Rng& rng, const Graph& graph,
                      const CommunitySet& communities) {
  GraphDelta delta;
  const NodeId n = graph.node_count();
  const auto random_node = [&] { return static_cast<NodeId>(rng.below(n)); };
  const auto existing_edge = [&](NodeId& u, NodeId& v) {
    for (int tries = 0; tries < 256; ++tries) {
      u = random_node();
      const auto out = graph.out_neighbors(u);
      if (out.empty()) continue;
      v = out[rng.below(out.size())].node;
      return true;
    }
    return false;
  };
  for (int added = 0, tries = 0; added < 2 && tries < 256; ++tries) {
    const NodeId u = random_node();
    const NodeId v = random_node();
    if (u == v || graph.has_edge(u, v)) continue;
    delta.upsert_edge(u, v, 1.0 / (graph.in_degree(v) + 1.0));
    ++added;
  }
  NodeId u = 0;
  NodeId v = 0;
  for (int i = 0; i < 2; ++i) {
    if (existing_edge(u, v)) delta.remove_edge(u, v);
  }
  if (existing_edge(u, v)) delta.upsert_edge(u, v, rng.uniform(0.05, 0.5));
  for (int tries = 0; tries < 256; ++tries) {
    const NodeId node = random_node();
    const CommunityId from = communities.community_of(node);
    if (from == kInvalidCommunity) continue;
    const NodeId population = communities.population(from);
    if (population < 2 || communities.threshold(from) > population - 1) {
      continue;
    }
    const auto to = static_cast<CommunityId>(rng.below(communities.size()));
    if (to == from || communities.population(to) >= 8) continue;
    delta.move_member(node, to);
    break;
  }
  return delta;
}

// ------------------------------------------------------------------- ops

struct OpRecord {
  bool ok = true;
  std::string failure;
  double op_s = 0.0;     // first engine call to the op's result
  double solve_s = 0.0;  // ImcEngine::solve
  double apply_s = 0.0;  // ImcEngine::apply_delta (delta-stream)
  double cpu_s = 0.0;    // process user+sys over the op
  double rss_mb = 0.0;   // process peak RSS during the op
  bool rss_reset = true;  // the peak was reset before the op
  ImcafResult result;
  double pool_bytes = 0.0;
  double mc = 0.0;
  double mc_se = 0.0;
  double mc_s = 0.0;
  // Traced ops only.
  std::vector<StageMetrics> stages;
  TimedSolver::Stats core;
  double grow_replay_s = 0.0;
  std::uint64_t grow_replay_samples = 0;
  double dagum_replay_s = 0.0;
  std::uint64_t dagum_replay_draws = 0;
  double graph_delta_s = 0.0;
  RicPool::RepairStats repair;
  // Why a per-layer figure of this op does not time the engine's work.
  std::vector<std::string> notes;

  void fail(const std::string& why) {
    if (ok) failure = why;
    ok = false;
  }
};

double pool_bytes(const RicPool& pool) {
  const RicPool::SnapshotView view = pool.snapshot_view();
  return static_cast<double>(
      view.thresholds.size_bytes() + view.source_community.size_bytes() +
      view.community_frequency.size_bytes() +
      view.sample_offsets.size_bytes() + view.sample_arena.size_bytes() +
      view.touch_offsets.size_bytes() + view.touches.size_bytes());
}

/// |S| = k, seeds distinct and in range, and ĉ matches the engine's pool.
void check_output(OpRecord& rec, const RicPool& pool, std::uint32_t k,
                  NodeId n) {
  const std::vector<NodeId>& seeds = rec.result.seeds;
  if (seeds.size() != k) rec.fail("|S| != k");
  std::unordered_set<NodeId> seen;
  for (const NodeId s : seeds) {
    if (s >= n) rec.fail("seed out of range");
    if (!seen.insert(s).second) rec.fail("duplicate seed");
  }
  const double pool_c_hat = pool.c_hat(seeds);
  if (std::abs(rec.result.c_hat - pool_c_hat) >
      1e-9 * std::max(std::abs(pool_c_hat), 1e-300)) {
    rec.fail("c_hat differs from pool().c_hat(S)");
  }
}

/// Forward Monte-Carlo benefit of the seeds: fixed simulation count and
/// seed, in batches so the standard error comes from the batch means.
void check_benefit(OpRecord& rec, const Graph& graph,
                   const CommunitySet& communities, Tracer* tracer) {
  constexpr int kBatches = 10;
  constexpr std::uint32_t kSimulations = 200;
  const ScopedSpan span(tracer, "diffusion.mc");
  const Stopwatch watch;
  std::vector<double> means;
  for (int b = 0; b < kBatches; ++b) {
    MonteCarloOptions mc;
    mc.seed = 0x4d43'0000ULL + static_cast<std::uint64_t>(b);
    mc.simulations = kSimulations;
    means.push_back(
        mc_expected_benefit(graph, communities, rec.result.seeds, mc));
  }
  double mean = 0.0;
  for (const double m : means) mean += m;
  mean /= kBatches;
  double var = 0.0;
  for (const double m : means) var += (m - mean) * (m - mean);
  var /= kBatches - 1;
  rec.mc = mean;
  rec.mc_se = std::sqrt(var / kBatches);
  rec.mc_s = watch.elapsed_seconds();
  if (std::abs(rec.result.estimated_benefit - rec.mc) >
      0.2 * rec.mc + 3.0 * rec.mc_se) {
    rec.fail("estimated benefit disagrees with Monte-Carlo");
  }
}

/// Re-runs, on a fresh RicPool, the grow() calls the engine's stage rows
/// report, then the Dagum estimate the engine ran last (options rebuilt
/// from ImcafResult the way core/engine.cpp derives them today). A replay
/// that reproduces the engine's output timed the same work. One that does
/// not is no error of the program, since the engine's seed and budget
/// policy may change; the op gets a note that the per-layer figure is not
/// comparable.
void replay_layers(OpRecord& rec, const Workload& w, const Fixture& fx,
                   const ImcafConfig& config, std::uint64_t op,
                   Tracer* tracer) {
  const ImcafResult& result = rec.result;
  RicPool replay(fx.graph, fx.communities, config.model, config.pool_backend);
  for (const StageMetrics& row : rec.stages) {
    if (row.samples_added == 0) continue;
    const ScopedSpan span(tracer, "sampling.grow", op);
    const Stopwatch watch;
    replay.grow(row.samples_added, config.seed, config.parallel_sampling);
    rec.grow_replay_s += watch.elapsed_seconds();
    rec.grow_replay_samples += row.samples_added;
  }
  // Delta ops grow an already-repaired pool, so only fresh engines compare.
  if (!w.delta_stream && (replay.size() != result.samples_used ||
                          replay.c_hat(result.seeds) != result.c_hat)) {
    rec.notes.push_back(
        "sampling replay built another pool than the engine: "
        "sampling.grow_s and sampling.samples_per_s are not comparable");
  }

  const ApproxParams& params = config.params;
  const double stages_bound = std::max(
      1.0, std::log2(std::max(2.0, result.psi / result.lambda)));
  DagumOptions dagum;
  dagum.eps_prime = params.ssa_eps2();
  dagum.delta_prime = params.delta / (3.0 * stages_bound);
  dagum.model = config.model;
  if (!result.reached_cap && !result.reached_deadline) {
    const double e2 = params.ssa_eps2();
    const double e3 = params.ssa_eps3();
    dagum.seed = config.seed ^ (0xABCD1234ULL * result.stop_stages);
    dagum.max_samples = std::max<std::uint64_t>(
        static_cast<std::uint64_t>(
            std::ceil(static_cast<double>(result.samples_used) * (1.0 + e2) /
                      (1.0 - e2) * (e3 * e3) / (e2 * e2))),
        1000);
  } else {
    dagum.seed = config.seed ^ 0xFEEDFACEULL;
    dagum.max_samples = std::max<std::uint64_t>(result.samples_used, 10'000);
  }
  const ScopedSpan span(tracer, "estimation.dagum", op);
  const Stopwatch watch;
  const DagumEstimate estimate = dagum_estimate_benefit(
      fx.graph, fx.communities, result.seeds, dagum);
  rec.dagum_replay_s = watch.elapsed_seconds();
  rec.dagum_replay_draws = estimate.samples;
  if (estimate.value != result.estimated_benefit) {
    rec.notes.push_back(
        "Dagum replay gave another estimate than the engine: "
        "estimation.dagum_s and estimation.draws_per_s are not comparable");
  }
}

/// Runs the ops of one closed loop: one client, the next op after the
/// previous completes. Fresh engine per query, except delta-stream, whose
/// ops are an apply_delta batch followed by a re-solve on the fixture's
/// engine. A traced runner adds spans, the TimedSolver decorator, the
/// engine's MetricsSink rows and the per-layer replays.
class OpRunner {
 public:
  OpRunner(const Workload& w, const Options& opt, Fixture& fx, bool parallel,
           Tracer* tracer)
      : w_(w),
        opt_(opt),
        fx_(fx),
        parallel_(parallel),
        tracer_(tracer),
        inner_(make_solver(w, parallel)),
        timed_(*inner_, tracer),
        rows_seen_(fx.sink.stages().size()) {}

  OpRecord step(std::uint64_t op) {
    OpRecord rec;
    timed_.set_op(op);
    const Stopwatch op_watch;
    try {
      if (w_.delta_stream) {
        delta_op(rec, op);
      } else {
        query_op(rec, op);
      }
      check_benefit(rec, fx_.graph, fx_.communities, tracer_);
    } catch (const std::exception& error) {
      rec.fail(std::string("threw: ") + error.what());
      if (rec.op_s == 0.0) rec.op_s = op_watch.elapsed_seconds();
      broken_ = w_.delta_stream;  // the engine must not be used further
    }
    return rec;
  }

  /// False once a delta op threw and left the engine unusable.
  [[nodiscard]] bool usable() const { return !broken_; }

  /// Repaired ≡ rebuilt: a pool grown from scratch on the mutated inputs
  /// with the same seed and size must score the last seed set identically.
  void check_rebuild(std::vector<OpRecord>& ops) const {
    if (!w_.delta_stream || ops.empty() || !ops.back().ok) return;
    const ScopedSpan span(tracer_, "bench.rebuild_check");
    const RicPool& repaired = fx_.engine->pool();
    const ImcafConfig& config = fx_.engine->config();
    RicPool rebuilt(fx_.graph, fx_.communities, config.model,
                    config.pool_backend);
    rebuilt.grow(repaired.size(), config.seed, parallel_);
    const std::vector<NodeId>& seeds = ops.back().result.seeds;
    if (rebuilt.c_hat(seeds) != repaired.c_hat(seeds)) {
      ops.back().fail("repaired pool differs from a rebuilt pool");
    }
  }

 private:
  static std::unique_ptr<MaxrSolver> make_solver(const Workload& w,
                                                 bool parallel) {
    MaxrSolverOptions options;
    options.parallel = parallel;
    return make_maxr_solver(w.algorithm, options);
  }

  [[nodiscard]] bool traced() const { return tracer_ != nullptr; }
  [[nodiscard]] const MaxrSolver& solver() const {
    return traced() ? static_cast<const MaxrSolver&>(timed_) : *inner_;
  }

  void query_op(OpRecord& rec, std::uint64_t op) {
    const ImcafConfig config =
        engine_config(parallel_, derive(opt_.seed, kQueryStream + op));
    RecordingMetricsSink sink;
    ExecutionContext context;
    context.seed = config.seed;
    if (traced()) context.metrics = &sink;
    std::optional<ImcEngine> engine;
    rec.rss_reset = reset_peak_rss();
    const double cpu0 = cpu_seconds();
    {
      const ScopedSpan op_span(tracer_, "bench.op", op);
      const Stopwatch watch;
      {
        const ScopedSpan span(tracer_, "engine.ctor", op);
        engine.emplace(fx_.graph, fx_.communities, config, context);
      }
      const Stopwatch solve_watch;
      {
        const ScopedSpan span(tracer_, "engine.solve", op);
        rec.result = engine->solve(kSeedSetSize, solver());
      }
      rec.solve_s = solve_watch.elapsed_seconds();
      rec.op_s = watch.elapsed_seconds();
    }
    rec.cpu_s = cpu_seconds() - cpu0;
    rec.rss_mb = peak_rss_mb();
    check_output(rec, engine->pool(), kSeedSetSize, fx_.graph.node_count());
    rec.pool_bytes = pool_bytes(engine->pool());
    engine.reset();  // free the pool before the replay grows another
    if (traced()) {
      rec.stages = sink.stages();
      rec.core = timed_.take_stats();
      replay_layers(rec, w_, fx_, config, op, tracer_);
    }
  }

  /// Episode e applies its own batch stream to the set-up state: before it
  /// the graph and communities are reset and the snapshot re-attached,
  /// untimed. About one re-solve in 70 fails the stop rule and doubles the
  /// pool, which then makes every later op slower; episodes confine that
  /// to the rest of one episode instead of the rest of the run.
  void start_episode(std::uint64_t episode) {
    delta_rng_ = Rng(derive(opt_.seed, kDeltaBatchStream + episode));
    if (episode == 0) return;  // the fixture is still in its set-up state
    const ScopedSpan span(tracer_, "bench.restore");
    fx_.graph = fx_.initial_graph;
    fx_.communities = fx_.initial_communities;
    fx_.engine->attach_pool(fx_.snapshot_path);
  }

  void delta_op(OpRecord& rec, std::uint64_t op) {
    ImcEngine& engine = *fx_.engine;
    if (op % kBatchesPerEpisode == 0) start_episode(op / kBatchesPerEpisode);
    const GraphDelta delta =
        make_delta(delta_rng_, fx_.graph, fx_.communities);
    std::optional<Graph> graph_copy;
    std::optional<CommunitySet> communities_copy;
    if (traced()) {
      graph_copy.emplace(fx_.graph);
      communities_copy.emplace(fx_.communities);
    }
    rec.rss_reset = reset_peak_rss();
    const double cpu0 = cpu_seconds();
    {
      const ScopedSpan op_span(tracer_, "bench.op", op);
      const Stopwatch watch;
      {
        const ScopedSpan span(tracer_, "engine.apply_delta", op);
        rec.repair = engine.apply_delta(fx_.graph, fx_.communities, delta);
      }
      rec.apply_s = watch.elapsed_seconds();
      const Stopwatch solve_watch;
      {
        const ScopedSpan span(tracer_, "engine.solve", op);
        rec.result = engine.solve(kSeedSetSize, solver());
      }
      rec.solve_s = solve_watch.elapsed_seconds();
      rec.op_s = watch.elapsed_seconds();
    }
    rec.cpu_s = cpu_seconds() - cpu0;
    rec.rss_mb = peak_rss_mb();
    check_output(rec, engine.pool(), kSeedSetSize, fx_.graph.node_count());
    rec.pool_bytes = pool_bytes(engine.pool());
    if (traced()) {
      const std::vector<StageMetrics> rows = fx_.sink.stages();
      rec.stages.assign(rows.begin() + static_cast<long>(rows_seen_),
                        rows.end());
      rows_seen_ = rows.size();
      rec.core = timed_.take_stats();
      replay_layers(rec, w_, fx_, engine.config(), op, tracer_);
      const ScopedSpan span(tracer_, "graph.apply_delta", op);
      const Stopwatch watch;
      (void)apply_delta(*graph_copy, *communities_copy, delta);
      rec.graph_delta_s = watch.elapsed_seconds();
    }
  }

  const Workload& w_;
  const Options& opt_;
  Fixture& fx_;
  bool parallel_;
  Tracer* tracer_;
  std::unique_ptr<MaxrSolver> inner_;
  TimedSolver timed_;
  Rng delta_rng_;
  std::size_t rows_seen_;
  bool broken_ = false;
};

/// True once another op, at the mean length of the `ops` so far, would end
/// more than half an op past `budget_s`: the loop then stops as close to
/// the budget as it can. At least one op always runs.
bool budget_spent(double spent, std::size_t ops, double budget_s) {
  return ops > 0 && spent + 0.5 * spent / static_cast<double>(ops) > budget_s;
}

/// Steps the runner until the op-time budget is spent.
std::vector<OpRecord> run_for(OpRunner& runner, double budget_s,
                              std::size_t max_ops) {
  std::vector<OpRecord> ops;
  double spent = 0.0;
  while (ops.size() < max_ops && runner.usable()) {
    if (budget_spent(spent, ops.size(), budget_s)) break;
    ops.push_back(runner.step(ops.size()));
    spent += ops.back().op_s;
  }
  runner.check_rebuild(ops);
  return ops;
}

// --------------------------------------------------------------- metrics

using Metrics = std::map<std::string, double>;

template <typename F>
std::vector<double> each(const std::vector<OpRecord>& ops, F field) {
  std::vector<double> values;
  values.reserve(ops.size());
  for (const OpRecord& rec : ops) values.push_back(field(rec));
  return values;
}

template <typename F>
double total(const std::vector<OpRecord>& ops, F field) {
  double sum = 0.0;
  for (const OpRecord& rec : ops) sum += field(rec);
  return sum;
}

double unattributed_s(const OpRecord& r) {
  return r.solve_s - (r.result.sampling_seconds - r.result.overlap_seconds) -
         r.core.seconds - r.result.estimate_seconds;
}

Metrics end_to_end_metrics(const std::vector<SetupTimes>& setups,
                           const std::vector<OpRecord>& ops) {
  Metrics m;
  std::vector<double> setup_s;
  for (const SetupTimes& t : setups) setup_s.push_back(t.total_s);
  m["setup_s"] = median(setup_s);
  m["solve_s_p50"] = median(each(ops, [](auto& r) { return r.solve_s; }));
  // An op without a delta has no apply step: its update is the fresh
  // engine's query.
  m["update_s_p50"] = median(each(ops, [](auto& r) { return r.op_s; }));
  // CPU and peak RSS are taken per op and reported as medians, like the
  // times: a race sometimes holds a full speculative batch next to the
  // pool, and a delta-stream re-solve that fails the stop check doubles
  // the pool for the rest of its episode. Either moves a few ops, not the
  // whole run's figure.
  m["cpu_s_per_op"] = median(each(ops, [](auto& r) { return r.cpu_s; }));
  m["peak_rss_mb"] = median(each(ops, [](auto& r) { return r.rss_mb; }));
  m["benefit_mc"] = total(ops, [](auto& r) { return r.mc; }) /
                    static_cast<double>(ops.size());
  m["failed_frac"] = total(ops, [](auto& r) { return r.ok ? 0.0 : 1.0; }) /
                     static_cast<double>(ops.size());
  return m;
}

Metrics layer_metrics(const std::vector<SetupTimes>& setups,
                      const std::vector<OpRecord>& ops, double l3,
                      unsigned threads) {
  const auto setup_median = [&](double SetupTimes::*field) {
    std::vector<double> values;
    for (const SetupTimes& t : setups) values.push_back(t.*field);
    return median(values);
  };
  const auto med = [&](auto field) { return median(each(ops, field)); };
  const auto sum = [&](auto field) { return total(ops, field); };
  const double n = static_cast<double>(ops.size());
  constexpr double kMiB = 1024.0 * 1024.0;

  Metrics m;
  m["graph.build_s"] = setup_median(&SetupTimes::graph_s);
  m["community.build_s"] = setup_median(&SetupTimes::community_s);

  m["sampling.grow_s"] = med([](auto& r) { return r.grow_replay_s; });
  m["sampling.samples_per_s"] =
      ratio(sum([](auto& r) { return double(r.grow_replay_samples); }),
            sum([](auto& r) { return r.grow_replay_s; }));
  m["sampling.pool_samples"] =
      med([](auto& r) { return double(r.grow_replay_samples); });
  const double pool = med([](auto& r) { return r.pool_bytes; });
  m["sampling.pool_mb"] = pool / kMiB;
  m["sampling.pool_l3_ratio"] = ratio(pool, l3);
  m["sampling.repaired_frac"] =
      ratio(sum([](auto& r) { return double(r.repair.repaired); }),
            sum([](auto& r) { return double(r.repair.total); }));
  m["sampling.snapshot_save_s"] = setup_median(&SetupTimes::save_s);
  m["sampling.snapshot_attach_s"] = setup_median(&SetupTimes::attach_s);
  m["sampling.snapshot_mb"] = setup_median(&SetupTimes::snapshot_bytes) / kMiB;
  m["graph.apply_delta_s"] = med([](auto& r) { return r.graph_delta_s; });
  m["engine.apply_delta_s"] = med([](auto& r) { return r.apply_s; });

  m["core.solve_s"] = med([](auto& r) { return r.core.seconds; });
  m["core.calls"] = med([](auto& r) { return double(r.core.calls); });
  m["core.warm_calls"] = med([](auto& r) { return double(r.core.warm_calls); });
  m["core.solve_s_per_call"] =
      ratio(sum([](auto& r) { return r.core.seconds; }),
            sum([](auto& r) { return double(r.core.calls); }));
  m["core.alpha_s"] = med([](auto& r) { return r.core.alpha_seconds; });

  m["estimation.dagum_s"] = med([](auto& r) { return r.dagum_replay_s; });
  m["estimation.draws_per_s"] =
      ratio(sum([](auto& r) { return double(r.dagum_replay_draws); }),
            sum([](auto& r) { return r.dagum_replay_s; }));
  m["estimation.stage_draws"] = med([](auto& r) {
    double draws = 0.0;
    for (const StageMetrics& row : r.stages) {
      draws += double(row.estimate_samples);
    }
    return draws;
  });

  m["engine.stages"] =
      med([](auto& r) { return double(r.result.stop_stages); });
  m["engine.accept_frac"] =
      sum([](auto& r) {
        return r.result.reached_cap || r.result.reached_deadline ? 0.0 : 1.0;
      }) / n;
  m["engine.samples_used"] =
      med([](auto& r) { return double(r.result.samples_used); });
  m["engine.sampling_s"] =
      med([](auto& r) { return r.result.sampling_seconds; });
  m["engine.estimate_s"] =
      med([](auto& r) { return r.result.estimate_seconds; });
  m["engine.overlap_s"] = med([](auto& r) { return r.result.overlap_seconds; });
  const double committed = sum(
      [](auto& r) { return double(r.result.speculative_samples_committed); });
  const double discarded = sum(
      [](auto& r) { return double(r.result.speculative_samples_discarded); });
  m["engine.spec_committed"] = committed / n;
  m["engine.spec_discarded"] = discarded / n;
  m["engine.spec_waste_frac"] = ratio(discarded, committed + discarded);
  m["engine.unattributed_s"] = med(unattributed_s);
  m["engine.unattributed_frac"] =
      med([](auto& r) { return ratio(unattributed_s(r), r.solve_s); });

  m["util.threads"] = threads;
  m["util.cpu_util"] =
      ratio(sum([](auto& r) { return r.cpu_s; }),
            sum([](auto& r) { return r.op_s; }) * threads);
  m["diffusion.mc_s"] = med([](auto& r) { return r.mc_s; });
  return m;
}

/// The single-threaded reference: the main layer seconds, suffixed ".t1".
Metrics serial_metrics(const std::vector<OpRecord>& ops) {
  const auto med = [&](auto field) { return median(each(ops, field)); };
  Metrics m;
  m["solve_s.t1"] = med([](auto& r) { return r.solve_s; });
  m["core.solve_s.t1"] = med([](auto& r) { return r.core.seconds; });
  m["sampling.grow_s.t1"] = med([](auto& r) { return r.grow_replay_s; });
  m["estimation.dagum_s.t1"] = med([](auto& r) { return r.dagum_replay_s; });
  m["engine.sampling_s.t1"] =
      med([](auto& r) { return r.result.sampling_seconds; });
  m["engine.estimate_s.t1"] =
      med([](auto& r) { return r.result.estimate_seconds; });
  m["engine.apply_delta_s.t1"] = med([](auto& r) { return r.apply_s; });
  return m;
}

// ------------------------------------------------------------------ main

int run(const Options& opt) {
  const Workload& w = find_workload(opt.workload);
  set_default_pool_threads(opt.threads);
  const unsigned threads = default_pool().size();
  const bool parallel = opt.mode != "serial";
  MaxrSolverOptions setup_solver_options;
  setup_solver_options.parallel = parallel;
  const std::unique_ptr<MaxrSolver> setup_solver =
      make_maxr_solver(w.algorithm, setup_solver_options);
  const double l3 = static_cast<double>(l3_bytes());
  std::vector<std::string> notes;
  const HostTicks ticks0 = host_ticks();

  Tracer tracer;
  Tracer* const trace = opt.mode == "e2e" ? nullptr : &tracer;
  std::vector<OpRecord> ops;
  std::vector<OpRecord> untraced;  // trace mode: the untraced pass
  std::vector<OpRecord> warm_up;   // trace mode: the discarded first query
  Metrics metrics;
  // Fixture 0 serves the loop. It is the process's first build and runs
  // cold, so it is not timed as set-up. setup_s is the median over two
  // blocks of w.setups timed set-ups, one before the loop and one after
  // it, each on its own seed-derived inputs and freed once timed: the
  // host's speed drifts over seconds, and two blocks a run apart sample
  // more of it than one. The serial reference times no set-up.
  constexpr std::size_t kUnlimited = ~std::size_t{0};
  const std::unique_ptr<Fixture> fixture =
      build_fixture(w, opt, 0, parallel, opt.mode == "serial" ? trace : nullptr,
                    *setup_solver);
  std::vector<SetupTimes> setups;
  const auto time_setups = [&] {
    if (opt.mode == "serial") return;
    for (std::uint32_t i = 0; i < w.setups; ++i) {
      const std::uint64_t index = setups.size() + 1;
      setups.push_back(
          build_fixture(w, opt, index, parallel, nullptr, *setup_solver)
              ->times);
    }
  };
  time_setups();

  if (opt.mode == "e2e") {
    OpRunner runner(w, opt, *fixture, parallel, nullptr);
    ops = run_for(runner, opt.seconds, kUnlimited);
    time_setups();
    metrics = end_to_end_metrics(setups, ops);
  } else if (opt.mode == "serial") {
    OpRunner runner(w, opt, *fixture, parallel, trace);
    ops = run_for(runner, opt.seconds, 1);
    metrics = serial_metrics(ops);
  } else {
    // Each op runs untraced and traced, on two fixtures with the same
    // inputs. The pair's order alternates: the second op of a pair runs a
    // few percent faster, and alternating keeps that out of the overhead.
    OpRunner plain(w, opt, *fixture, parallel, nullptr);
    const std::unique_ptr<Fixture> traced_fx =
        build_fixture(w, opt, 0, parallel, trace, *setup_solver);
    OpRunner traced(w, opt, *traced_fx, parallel, trace);
    // The first query in a process runs cold and slower; with only two
    // pairs (cap-large, bounded-bt) it would skew the overhead. A query
    // with its own seed absorbs it and is checked but not timed.
    // delta-stream is already warm from its set-up solve.
    constexpr std::uint64_t kWarmUpOp = 1'000'000;
    if (!w.delta_stream) warm_up.push_back(plain.step(kWarmUpOp));
    double spent = 0.0;
    while (plain.usable() && traced.usable()) {
      // Whole pairs of pairs only, so each order runs equally often. Each
      // op runs twice here, so half the budget keeps the pass near the
      // length of an end-to-end run.
      if (untraced.size() >= 2 && untraced.size() % 2 == 0 &&
          budget_spent(spent, untraced.size(), 0.5 * opt.seconds)) {
        break;
      }
      const std::uint64_t op = untraced.size();
      if (op % 2 == 1) ops.push_back(traced.step(op));
      untraced.push_back(plain.step(op));
      if (op % 2 == 0) ops.push_back(traced.step(op));
      spent += untraced.back().op_s;
    }
    plain.check_rebuild(untraced);
    traced.check_rebuild(ops);
    time_setups();
    metrics = layer_metrics(setups, ops, l3, threads);
    metrics["trace_overhead_frac"] =
        ratio(median(each(ops, [](auto& r) { return r.solve_s; })),
              median(each(untraced, [](auto& r) { return r.solve_s; }))) -
        1.0;
    const double gap = metrics["engine.unattributed_frac"];
    if (gap > 0.05) {
      std::ostringstream note;
      note << w.name << ": engine.unattributed_s is " << gap * 100.0
           << "% of solve wall (> 5%); the gap is engine time outside "
              "grow/commit, the MAXR solver and the Dagum estimate: "
              "solver alpha() "
           << metrics["core.alpha_s"]
           << " s, plus influenced_count, speculation cancel/join and "
              "result assembly";
      notes.push_back(note.str());
    }
  }

  // Every op of every pass is checked and counted.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double pool = 0.0;
  bool rss_reset = true;
  std::set<std::string> op_notes;
  for (const std::vector<OpRecord>* pass : {&warm_up, &untraced, &ops}) {
    for (const OpRecord& rec : *pass) {
      ++attempted;
      pool = std::max(pool, rec.pool_bytes);
      rss_reset = rss_reset && rec.rss_reset;
      op_notes.insert(rec.notes.begin(), rec.notes.end());
      if (!rec.ok) {
        ++failed;
        notes.push_back("op failed: " + rec.failure);
      }
    }
  }
  notes.insert(notes.end(), op_notes.begin(), op_notes.end());
  if (!rss_reset) {
    notes.push_back("/proc/self/clear_refs could not be written: "
                    "peak_rss_mb is the process's running peak, not the "
                    "peak of one op, and compares only with such runs");
  }
  if (w.name == "cap-large" && pool < 4.0 * l3) {
    notes.push_back("cap-large pool is below 4x L3; it no longer measures "
                    "an out-of-cache working set on this host");
  }

  // Share of the host's CPU time stolen by the hypervisor during the run:
  // on a shared VM a run with a high share measures a slower machine.
  const HostTicks ticks1 = host_ticks();
  const double steal_frac =
      ratio(ticks1.steal - ticks0.steal, ticks1.total - ticks0.total);

  std::ostringstream host;
  host << "{\"workload\":" << json_string(w.name) << ",\"seed\":" << opt.seed
       << ",\"mode\":" << json_string(opt.mode)
       << ",\"nproc\":" << std::thread::hardware_concurrency()
       << ",\"cpu_model\":" << json_string(cpu_model())
       << ",\"l3_bytes\":" << json_number(l3)
       << ",\"gain_kernel\":"
       << json_string(gain_kernel_name(active_gain_kernel()))
       << ",\"compiler\":" << json_string(compiler())
       << ",\"build_type\":" << json_string(IMCBENCH_BUILD_TYPE)
       << ",\"workers\":" << threads
       << ",\"ops\":" << attempted
       << ",\"pool_bytes\":" << json_number(pool)
       << ",\"pool_l3_ratio\":" << json_number(ratio(pool, l3))
       << ",\"steal_frac\":" << json_number(steal_frac)
       << ",\"rss_peak_reset\":" << (rss_reset ? "true" : "false") << "}";

  if (trace != nullptr && !opt.trace_out.empty()) {
    tracer.write_chrome_json(opt.trace_out, host.str());
  }

  std::ostringstream out;
  out << "{\"attempted\":" << attempted << ",\"failed\":" << failed
      << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    out << (first ? "" : ",") << json_string(name) << ":" << json_number(value);
    first = false;
  }
  out << "},\"op_solve_s\":[";
  for (std::size_t i = 0; i < ops.size(); ++i) {
    out << (i ? "," : "") << json_number(ops[i].solve_s);
  }
  out << "],\"host\":" << host.str() << ",\"notes\":[";
  for (std::size_t i = 0; i < notes.size(); ++i) {
    out << (i ? "," : "") << json_string(notes[i]);
  }
  out << "]}";
  std::cout << out.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_options(argc, argv));
  } catch (const std::exception& error) {
    std::cerr << "imcbench: " << error.what() << "\n";
    return 1;
  }
}
