#include "benchmarks/bench_util.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "common/check.h"
#include "common/thread_pool.h"
#include "obs/obs.h"

namespace specsync::bench {

double MeanLossAt(const std::vector<ExperimentResult>& runs, SimTime time) {
  RunningStats stats;
  for (const ExperimentResult& run : runs) {
    if (auto loss = LossAtTime(run.sim.trace, time)) stats.Add(*loss);
  }
  return stats.mean();
}

double MeanTimeToTarget(const std::vector<ExperimentResult>& runs,
                        double target, Duration fallback) {
  RunningStats stats;
  for (const ExperimentResult& run : runs) {
    if (auto t = TimeToTarget(run.sim.trace, target)) {
      stats.Add(t->seconds());
    } else {
      stats.Add(fallback.seconds());
    }
  }
  return stats.mean();
}

double ConvergedFraction(const std::vector<ExperimentResult>& runs,
                         double target) {
  if (runs.empty()) return 0.0;
  std::size_t converged = 0;
  for (const ExperimentResult& run : runs) {
    if (TimeToTarget(run.sim.trace, target).has_value()) ++converged;
  }
  return static_cast<double>(converged) / static_cast<double>(runs.size());
}

double MeanStaleness(const std::vector<ExperimentResult>& runs) {
  RunningStats stats;
  for (const ExperimentResult& run : runs) {
    for (const PushEvent& push : run.sim.trace.pushes()) {
      stats.Add(static_cast<double>(push.missed_updates));
    }
  }
  return stats.mean();
}

std::vector<ExperimentResult> RunSeeds(const Workload& workload,
                                       ExperimentConfig config,
                                       const SeedSweep& sweep) {
  std::vector<ExperimentResult> runs;
  runs.reserve(sweep.seeds.size());
  for (std::uint64_t seed : sweep.seeds) {
    config.seed = seed;
    runs.push_back(RunExperiment(workload, config));
  }
  return runs;
}

void PrintHeader(const std::string& figure, const std::string& paper_claim) {
  std::cout << "==================================================\n"
            << figure << "\n"
            << "Paper: " << paper_claim << "\n"
            << "==================================================\n";
}

namespace {

// Parses the value of a `--flag=N` argument; exits with usage when malformed.
std::size_t ParsePositiveFlag(const std::string& arg, std::size_t prefix_len,
                              const char* program, const char* usage) {
  char* end = nullptr;
  const long value = std::strtol(arg.c_str() + prefix_len, &end, 10);
  if (end == nullptr || *end != '\0' || value < 1) {
    std::cerr << "usage: " << program << " " << usage << "\n";
    std::exit(2);
  }
  return static_cast<std::size_t>(value);
}

constexpr const char* kBenchUsage =
    "[--threads=N] [--num_servers=N] [--smoke] [--metrics_out=PATH] "
    "[--trace_out=PATH] [--consistency=asp|bsp|ssp[:s]|pssp[:s]|dssp[:s0]] "
    "[--compression=none|topk[:F]|int8|fp16|delta]  (N >= 1)";

// Parses "--consistency=" values: a scheme name with an optional ":<bound>"
// suffix (ssp/pssp: the staleness bound; dssp: the initial bound).
ConsistencySelection ParseConsistencyFlag(const std::string& value,
                                          const char* program) {
  ConsistencySelection sel;
  sel.set = true;
  std::string name = value;
  std::optional<std::uint64_t> bound;
  if (const std::size_t colon = value.find(':'); colon != std::string::npos) {
    name = value.substr(0, colon);
    char* end = nullptr;
    const long parsed = std::strtol(value.c_str() + colon + 1, &end, 10);
    if (end == nullptr || *end != '\0' || parsed < 0) {
      std::cerr << "usage: " << program << " " << kBenchUsage << "\n";
      std::exit(2);
    }
    bound = static_cast<std::uint64_t>(parsed);
  }
  if (name == "asp") {
    sel.spec.scheme = ConsistencyScheme::kAsp;
  } else if (name == "bsp") {
    sel.spec.scheme = ConsistencyScheme::kBsp;
  } else if (name == "ssp") {
    sel.spec.scheme = ConsistencyScheme::kSsp;
  } else if (name == "pssp") {
    sel.spec.scheme = ConsistencyScheme::kPssp;
  } else if (name == "dssp") {
    sel.spec.scheme = ConsistencyScheme::kDssp;
  } else {
    std::cerr << "usage: " << program << " " << kBenchUsage << "\n";
    std::exit(2);
  }
  if (bound.has_value()) {
    sel.spec.staleness = *bound;
    sel.spec.dssp.initial_staleness = *bound;
  }
  // The bench flag's dssp is "never tighter than the named bound": floor the
  // dynamic range at the initial bound so dssp:s compares against ssp:s as
  // the same starting tightness that can only loosen under stragglers (a
  // free-floating minimum would let healthy-phase ratios retune the bound
  // below the static comparator and conflate decay with episode response).
  sel.spec.dssp.min_staleness = sel.spec.dssp.initial_staleness;
  return sel;
}

// Parses "--compression=" values via CompressionSpec::Parse; exits with
// usage on a malformed codec.
CompressionSelection ParseCompressionFlag(const std::string& value,
                                          const char* program) {
  CompressionSelection sel;
  if (auto spec = CompressionSpec::Parse(value)) {
    sel.set = true;
    sel.spec = *spec;
    return sel;
  }
  std::cerr << "usage: " << program << " " << kBenchUsage << "\n";
  std::exit(2);
}

// Parses the value of a `--flag=PATH` argument; exits with usage when empty.
std::string ParsePathFlag(const std::string& arg, std::size_t prefix_len,
                          const char* program, const char* usage) {
  std::string path = arg.substr(prefix_len);
  if (path.empty()) {
    std::cerr << "usage: " << program << " " << usage << "\n";
    std::exit(2);
  }
  return path;
}

}  // namespace

void ConsistencySelection::Apply(SchemeSpec& scheme) const {
  if (!set) return;
  scheme.consistency = spec;
}

std::string ConsistencySelection::Label() const {
  if (!set) return "";
  switch (spec.scheme) {
    case ConsistencyScheme::kAsp:
      return "asp";
    case ConsistencyScheme::kBsp:
      return "bsp";
    case ConsistencyScheme::kSsp:
      return "ssp:" + std::to_string(spec.staleness);
    case ConsistencyScheme::kPssp:
      return "pssp:" + std::to_string(spec.staleness);
    case ConsistencyScheme::kDssp:
      return "dssp:" + std::to_string(spec.dssp.initial_staleness);
  }
  return "";
}

BenchArgs ParseBenchArgs(int argc, char** argv) {
  BenchArgs args;
  std::size_t threads = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--threads=", 0) == 0) {
      threads = ParsePositiveFlag(arg, 10, argv[0], kBenchUsage);
    } else if (arg.rfind("--num_servers=", 0) == 0) {
      args.num_servers = ParsePositiveFlag(arg, 14, argv[0], kBenchUsage);
    } else if (arg == "--smoke") {
      args.smoke = true;
    } else if (arg.rfind("--metrics_out=", 0) == 0) {
      args.metrics_out = ParsePathFlag(arg, 14, argv[0], kBenchUsage);
    } else if (arg.rfind("--trace_out=", 0) == 0) {
      args.trace_out = ParsePathFlag(arg, 12, argv[0], kBenchUsage);
    } else if (arg.rfind("--consistency=", 0) == 0) {
      args.consistency = ParseConsistencyFlag(arg.substr(14), argv[0]);
    } else if (arg.rfind("--compression=", 0) == 0) {
      args.compression = ParseCompressionFlag(arg.substr(14), argv[0]);
    } else {
      std::cerr << "warning: ignoring unknown argument '" << arg << "'\n";
    }
  }
  if (threads == 0) {
    if (const char* env = std::getenv("SPECSYNC_BENCH_THREADS")) {
      const long parsed = std::strtol(env, nullptr, 10);
      if (parsed >= 1) threads = static_cast<std::size_t>(parsed);
    }
  }
  args.threads = threads > 0 ? threads : ThreadPool::DefaultThreadCount();
  return args;
}

std::size_t ParseThreads(int argc, char** argv) {
  return ParseBenchArgs(argc, argv).threads;
}

void EmitObsArtifacts(const BenchArgs& args, const Workload& workload,
                      ExperimentConfig config) {
  if (args.metrics_out.empty() && args.trace_out.empty()) return;
  obs::ObsContext ctx;
  config.obs = &ctx;
  (void)RunExperiment(workload, config);
  if (!args.metrics_out.empty() &&
      obs::WriteMetricsJsonFile(ctx, args.metrics_out)) {
    std::cout << "[obs] metrics snapshot -> " << args.metrics_out << "\n";
  }
  if (!args.trace_out.empty() &&
      obs::WriteChromeTraceFile(ctx.spans, args.trace_out)) {
    std::cout << "[obs] Chrome trace (" << ctx.spans.event_count()
              << " events) -> " << args.trace_out << "\n";
  }
}

std::size_t CellBatch::AddSeries(const Workload& workload,
                                 ExperimentConfig config,
                                 std::size_t replicates, std::string label,
                                 std::optional<std::uint64_t> explicit_seed) {
  SPECSYNC_CHECK_GT(replicates, 0u);
  SPECSYNC_CHECK(results_.empty()) << "AddSeries after Run";
  std::vector<std::size_t> indices;
  indices.reserve(replicates);
  for (std::uint64_t r = 0; r < replicates; ++r) {
    ExperimentCell cell;
    cell.workload = workload;
    cell.config = config;
    cell.label = label;
    cell.replicate = r;
    cell.explicit_seed = explicit_seed;
    indices.push_back(cells_.size());
    cells_.push_back(std::move(cell));
  }
  series_.push_back(std::move(indices));
  return series_.size() - 1;
}

void CellBatch::Run(std::size_t threads) {
  SPECSYNC_CHECK(results_.empty()) << "Run called twice";
  threads_ = threads;
  ParallelRunnerOptions options;
  options.threads = threads;
  options.root_seed = kBenchRootSeed;
  const auto start = std::chrono::steady_clock::now();
  results_ = ParallelRunner(options).Run(cells_);
  wall_seconds_ =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  series_results_.reserve(series_.size());
  for (const std::vector<std::size_t>& indices : series_) {
    std::vector<ExperimentResult> runs;
    runs.reserve(indices.size());
    for (std::size_t i : indices) runs.push_back(results_[i].result);
    series_results_.push_back(std::move(runs));
  }
}

const std::vector<ExperimentResult>& CellBatch::Series(
    std::size_t series) const {
  SPECSYNC_CHECK(!series_results_.empty()) << "Series before Run";
  SPECSYNC_CHECK_LT(series, series_results_.size());
  return series_results_[series];
}

double CellBatch::serial_wall_estimate() const {
  double total = 0.0;
  for (const CellResult& r : results_) total += r.wall_seconds;
  return total;
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonNumber(double v) {
  // JSON has no NaN/Infinity literals; a diverged loss (the MF proxy can
  // blow up at high worker counts) must serialize as null, not "-nan".
  if (!std::isfinite(v)) return "null";
  std::ostringstream out;
  out << std::setprecision(12) << v;
  return out.str();
}

std::string HexDigest(std::uint64_t digest) {
  std::ostringstream out;
  out << std::hex << std::setw(16) << std::setfill('0') << digest;
  return out.str();
}

}  // namespace

BenchReporter::BenchReporter(std::string bench_name, std::string json_path)
    : bench_name_(std::move(bench_name)), json_path_(std::move(json_path)) {}

void BenchReporter::Add(const CellRecord& record) {
  cells_.push_back(record);
}

void BenchReporter::AddBatch(const CellBatch& batch) {
  for (std::size_t i = 0; i < batch.cells().size(); ++i) {
    const ExperimentCell& cell = batch.cells()[i];
    const CellResult& result = batch.results()[i];
    CellRecord record;
    record.workload = cell.workload.name;
    record.scheme = cell.config.scheme.DisplayName();
    record.label = cell.label;
    record.replicate = cell.replicate;
    record.seed = result.seed;
    record.wall_seconds = result.wall_seconds;
    record.sim_events = result.sim_events;
    record.pushes = result.result.sim.total_pushes;
    record.sim_end_seconds = result.result.sim.end_time.seconds();
    record.final_loss = result.result.final_loss;
    record.trace_digest = result.trace_digest;
    Add(record);
  }
  SetRun(batch.threads(), batch.wall_seconds(), batch.serial_wall_estimate());
}

// Accumulates across batches (a bench may run several); the recorded thread
// count is the widest pass.
void BenchReporter::SetRun(std::size_t threads, double wall_seconds,
                           double serial_wall_estimate) {
  threads_ = std::max(threads_, threads);
  wall_seconds_ += wall_seconds;
  serial_wall_estimate_ += serial_wall_estimate;
}

void BenchReporter::AddMetric(const std::string& name, double value) {
  for (auto& [existing, slot] : metrics_) {
    if (existing == name) {
      slot = value;
      return;
    }
  }
  metrics_.emplace_back(name, value);
}

Table BenchReporter::CellTable() const {
  Table table({"workload", "scheme", "label", "replicate", "seed",
               "wall_seconds", "sim_events", "sim_events_per_sec", "pushes",
               "sim_end_s", "final_loss", "trace_digest"});
  for (const CellRecord& c : cells_) {
    const double events_per_sec =
        c.wall_seconds > 0.0
            ? static_cast<double>(c.sim_events) / c.wall_seconds
            : 0.0;
    table.AddRowValues(c.workload, c.scheme, c.label,
                       static_cast<unsigned long long>(c.replicate),
                       static_cast<unsigned long long>(c.seed), c.wall_seconds,
                       static_cast<unsigned long long>(c.sim_events),
                       events_per_sec,
                       static_cast<unsigned long long>(c.pushes),
                       c.sim_end_seconds, c.final_loss, HexDigest(c.trace_digest));
  }
  return table;
}

std::string BenchReporter::JsonPath() {
  if (const char* env = std::getenv("SPECSYNC_BENCH_JSON")) return env;
  return "BENCH_harness.json";
}

void BenchReporter::WriteJson() const {
  std::uint64_t total_events = 0;
  std::uint64_t total_pushes = 0;
  for (const CellRecord& c : cells_) {
    total_events += c.sim_events;
    total_pushes += c.pushes;
  }
  std::ostringstream record;
  record << "{\"bench\":\"" << JsonEscape(bench_name_) << "\""
         << ",\"threads\":" << threads_
         << ",\"cells\":" << cells_.size()
         << ",\"parallel_wall_seconds\":" << JsonNumber(wall_seconds_)
         << ",\"serial_wall_seconds_estimate\":"
         << JsonNumber(serial_wall_estimate_)
         << ",\"speedup_vs_serial\":"
         << JsonNumber(wall_seconds_ > 0.0
                           ? serial_wall_estimate_ / wall_seconds_
                           : 0.0)
         << ",\"total_sim_events\":" << total_events
         << ",\"des_events_per_wall_second\":"
         << JsonNumber(wall_seconds_ > 0.0
                           ? static_cast<double>(total_events) / wall_seconds_
                           : 0.0)
         << ",\"sim_pushes_per_wall_second\":"
         << JsonNumber(wall_seconds_ > 0.0
                           ? static_cast<double>(total_pushes) / wall_seconds_
                           : 0.0);
  if (!metrics_.empty()) {
    record << ",\"metrics\":{";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      if (i > 0) record << ",";
      record << "\"" << JsonEscape(metrics_[i].first)
             << "\":" << JsonNumber(metrics_[i].second);
    }
    record << "}";
  }
  record << ",\"per_cell\":[";
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    const CellRecord& c = cells_[i];
    if (i > 0) record << ",";
    record << "{\"workload\":\"" << JsonEscape(c.workload) << "\""
           << ",\"scheme\":\"" << JsonEscape(c.scheme) << "\""
           << ",\"label\":\"" << JsonEscape(c.label) << "\""
           << ",\"replicate\":" << c.replicate << ",\"seed\":" << c.seed
           << ",\"wall_seconds\":" << JsonNumber(c.wall_seconds)
           << ",\"sim_events\":" << c.sim_events
           << ",\"sim_events_per_sec\":"
           << JsonNumber(c.wall_seconds > 0.0
                             ? static_cast<double>(c.sim_events) /
                                   c.wall_seconds
                             : 0.0)
           << ",\"pushes\":" << c.pushes
           << ",\"sim_end_seconds\":" << JsonNumber(c.sim_end_seconds)
           << ",\"final_loss\":" << JsonNumber(c.final_loss)
           << ",\"trace_digest\":\"" << HexDigest(c.trace_digest) << "\"}";
  }
  record << "]}";

  // Merge: the file is a JSON array, one single-line record per bench. Keep
  // every other bench's line, replace (or append) our own.
  const std::string path = json_path_.empty() ? JsonPath() : json_path_;
  const std::string marker = "\"bench\":\"" + JsonEscape(bench_name_) + "\"";
  std::vector<std::string> records;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      const std::size_t begin = line.find('{');
      if (begin == std::string::npos) continue;  // brackets / blank lines
      std::size_t end = line.find_last_of('}');
      if (end == std::string::npos || end < begin) continue;
      std::string body = line.substr(begin, end - begin + 1);
      if (body.find(marker) != std::string::npos) continue;  // ours: replace
      records.push_back(std::move(body));
    }
  }
  records.push_back(record.str());

  std::ofstream out(path, std::ios::trunc);
  out << "[\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    out << records[i] << (i + 1 < records.size() ? ",\n" : "\n");
  }
  out << "]\n";
  std::cout << "[bench telemetry] threads=" << threads_ << " wall="
            << JsonNumber(wall_seconds_) << "s serial_estimate="
            << JsonNumber(serial_wall_estimate_) << "s speedup_vs_serial="
            << JsonNumber(wall_seconds_ > 0.0
                              ? serial_wall_estimate_ / wall_seconds_
                              : 0.0)
            << "x -> " << path << "\n";
}

}  // namespace specsync::bench
