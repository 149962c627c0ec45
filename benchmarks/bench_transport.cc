// Multi-process loopback transport bench: the sharded PS as real processes.
//
// Not a paper figure — a harness-health bench for src/net, in two phases:
//
// Phase 1 (soak): forks one server process per shard (each owning a full-dim
// ParameterServer but serving ONLY its own shard, exactly the multi-machine
// topology on loopback), then drives worker threads in the parent through
// ShardClients: every iteration is a composed Pull (one pull batch per
// server, pipelined) followed by a dense Push (one commit batch per server).
// Per-link RTT histograms, retry/timeout counters, and injected-fault
// counts land in src/obs metrics, printable and exportable as metrics.json.
// The soak prints a deterministic `equivalence:` line (op counts only, no
// timings) that CI checks: every worker must complete every pull and push.
//
// Phase 2 (fan-in, --clients=N): one in-process server serving every shard,
// N concurrent clients each running pipelined pulls against it. This is the
// scaling claim of the event-loop server: p99 RTT holds a pinned ceiling and
// the server's thread count stays 1 + pool_threads regardless of N. Both
// numbers are emitted into BENCH_harness.json (fanin_p99_rtt_us,
// fanin_server_threads) and gated: the bench FAILS if the server's observed
// thread count exceeds pool size + a constant, and --fanin_p99_ceiling_us=X
// (off by default) fails the run when p99 crosses the ceiling.
//
// Fault injection runs over the actual wire: --drop/--delay/--dup attach a
// FaultPlan to every soak client, so requests are really never sent (burning
// the timeout), held back, or sent twice — the bench doubles as a soak test
// that the retry protocol terminates under loss.
//
// Flags:
//   --num_servers=N   shard/server-process count        (default 4)
//   --workers=N       soak worker threads in the parent (default 4)
//   --iters=N         pull+push iterations per worker   (default 200)
//   --dim=N           parameter dimension               (default 4096)
//   --pool_threads=N  server execution pool size        (default 4)
//   --clients=N       fan-in phase client count; 0 = skip (default 0;
//                     --smoke raises it to 256)
//   --fanin_iters=N   pipelined pulls per fan-in client (default 20)
//   --fanin_p99_ceiling_us=X  fail if fan-in p99 RTT exceeds X (default off)
//   --drop=P --delay=P --dup=P   per-message fault probabilities (default 0)
//   --smoke           CI variant: tiny grid, and drop/delay default to 0.05
//                     so the retry path is exercised on every CI run
//   --metrics_out=P   write the metrics.json snapshot to P
//   --trace_out=P     attach a SpanRecorder to every soak process: the parent
//                     writes its client spans (one track per worker) to P and
//                     each forked shard server writes its serve spans to
//                     P.server<k>. Every file carries its own pid and
//                     CLOCK_MONOTONIC epoch ("clock_epoch_ns"), so
//                     scripts/specsync_obsctl merge can align the timelines
//                     and verify that client request spans link to server-side
//                     child spans via wire trace-context flow ids
//                     (DESIGN.md §14).
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "benchmarks/bench_util.h"
#include "common/check.h"
#include "common/table.h"
#include "fault/fault_plan.h"
#include "net/endpoint.h"
#include "net/event_loop_server.h"
#include "net/shard_client.h"
#include "obs/obs.h"
#include "obs/span_recorder.h"
#include "optim/lr_schedule.h"
#include "ps/param_store.h"

using namespace specsync;

namespace {

struct Args {
  std::size_t num_servers = 4;
  std::size_t workers = 4;
  std::size_t iters = 200;
  std::size_t dim = 4096;
  std::size_t pool_threads = 4;
  std::size_t clients = 0;  // 0 = skip the fan-in phase
  bool clients_set = false;
  std::size_t fanin_iters = 20;
  double fanin_p99_ceiling_us = 0.0;  // 0 = no ceiling gate
  double drop = -1.0;  // negative = unset (lets --smoke pick its default)
  double delay = -1.0;
  double dup = -1.0;
  bool smoke = false;
  std::string metrics_out;
  std::string trace_out;  // empty = no span recording
};

[[noreturn]] void Usage(const std::string& bad) {
  std::cerr << "bench_transport: bad flag '" << bad << "'\n"
            << "usage: bench_transport [--num_servers=N] [--workers=N]"
               " [--iters=N] [--dim=N]"
               " [--pool_threads=N] [--clients=N] [--fanin_iters=N]"
               " [--fanin_p99_ceiling_us=X]"
               " [--drop=P] [--delay=P] [--dup=P]"
               " [--smoke] [--metrics_out=PATH] [--trace_out=PATH]\n";
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? "" : arg.substr(eq + 1);
    try {
      if (key == "--num_servers") {
        args.num_servers = std::stoul(value);
      } else if (key == "--workers") {
        args.workers = std::stoul(value);
      } else if (key == "--iters") {
        args.iters = std::stoul(value);
      } else if (key == "--dim") {
        args.dim = std::stoul(value);
      } else if (key == "--pool_threads") {
        args.pool_threads = std::stoul(value);
      } else if (key == "--clients") {
        args.clients = std::stoul(value);
        args.clients_set = true;
      } else if (key == "--fanin_iters") {
        args.fanin_iters = std::stoul(value);
      } else if (key == "--fanin_p99_ceiling_us") {
        args.fanin_p99_ceiling_us = std::stod(value);
      } else if (key == "--drop") {
        args.drop = std::stod(value);
      } else if (key == "--delay") {
        args.delay = std::stod(value);
      } else if (key == "--dup") {
        args.dup = std::stod(value);
      } else if (key == "--smoke") {
        args.smoke = true;
      } else if (key == "--metrics_out") {
        args.metrics_out = value;
      } else if (key == "--trace_out") {
        args.trace_out = value;
      } else {
        Usage(arg);
      }
    } catch (const std::exception&) {
      Usage(arg);
    }
  }
  if (args.smoke) {
    args.num_servers = std::min<std::size_t>(args.num_servers, 3);
    args.workers = std::min<std::size_t>(args.workers, 3);
    args.iters = std::min<std::size_t>(args.iters, 30);
    args.dim = std::min<std::size_t>(args.dim, 512);
    // Smoke must exercise the retry protocol, not just the happy path.
    if (args.drop < 0.0) args.drop = 0.05;
    if (args.delay < 0.0) args.delay = 0.05;
    // The fan-in acceptance point: >= 256 concurrent clients on one server.
    if (!args.clients_set) args.clients = 256;
  }
  if (args.drop < 0.0) args.drop = 0.0;
  if (args.delay < 0.0) args.delay = 0.0;
  if (args.dup < 0.0) args.dup = 0.0;
  if (args.num_servers == 0 || args.workers == 0 || args.dim == 0) {
    Usage("--num_servers/--workers/--dim must be positive");
  }
  return args;
}

bool WriteAll(int fd, const void* data, std::size_t bytes) {
  const char* p = static_cast<const char*>(data);
  while (bytes > 0) {
    const ssize_t n = ::write(fd, p, bytes);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    bytes -= static_cast<std::size_t>(n);
  }
  return true;
}

bool ReadAll(int fd, void* data, std::size_t bytes) {
  char* p = static_cast<char*>(data);
  while (bytes > 0) {
    const ssize_t n = ::read(fd, p, bytes);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;  // EOF before the full value
    p += n;
    bytes -= static_cast<std::size_t>(n);
  }
  return true;
}

// The server process for one shard: a full-dim store (identically
// initialized in every process, so composed pulls are coherent) behind a
// shard server answering only for `shard`.
// Reports its ephemeral port through `port_wr`, then serves until the parent
// closes `shutdown_rd` (EOF).
int RunShardProcess(std::size_t shard, const Args& args, int port_wr,
                    int shutdown_rd) {
  auto applier = std::make_shared<SgdApplier>(
      std::make_shared<ConstantSchedule>(0.01));
  ParameterServer store(args.dim, args.num_servers, std::move(applier));
  DenseVector params(args.dim);
  for (std::size_t i = 0; i < args.dim; ++i) {
    params[i] = 0.001 * static_cast<double>(i % 97);
  }
  store.SetParams(std::move(params));

  // Each server process records its serve spans into its own file; the
  // epoch is anchored at process start so the merge tool can shift this
  // timeline onto the client's (same host ⇒ same CLOCK_MONOTONIC).
  obs::SpanRecorder spans;
  obs::SpanRecorder* spans_ptr = nullptr;
  if (!args.trace_out.empty()) {
    spans.SetProcessInfo(static_cast<std::uint32_t>(::getpid()),
                         "bench_server_shard" + std::to_string(shard));
    spans.EnsureWallEpochNanos();
    spans.SetTrackName(static_cast<std::uint32_t>(shard),
                       "serve shard " + std::to_string(shard));
    spans_ptr = &spans;
  }

  net::ShardServerConfig config;
  config.served_shards = {shard};
  config.pool_threads = args.pool_threads;
  auto server = std::make_unique<net::EventLoopServer>(
      &store, std::move(config), nullptr, spans_ptr);
  if (!server->Start()) return 1;

  const std::uint16_t port = server->port();
  if (!WriteAll(port_wr, &port, sizeof(port))) return 1;
  ::close(port_wr);

  char byte = 0;
  for (;;) {
    const ssize_t n = ::read(shutdown_rd, &byte, 1);
    if (n < 0 && errno == EINTR) continue;
    break;  // EOF (parent closed its end) or error: shut down either way
  }
  ::close(shutdown_rd);
  server->Stop();
  if (spans_ptr != nullptr) {
    const std::string path =
        args.trace_out + ".server" + std::to_string(shard);
    if (!obs::WriteChromeTraceFile(*spans_ptr, path)) return 1;
  }
  return 0;
}

struct WorkerTally {
  net::ShardClient::Stats stats;
  std::uint64_t pulls = 0;
  std::uint64_t pushes = 0;
  bool ok = false;
};

// Phase 2: N concurrent clients against ONE in-process server holding every
// shard. Returns false when a gate (thread count, p99 ceiling) fails.
bool RunFanIn(const Args& args, bench::BenchReporter& reporter) {
  auto applier = std::make_shared<SgdApplier>(
      std::make_shared<ConstantSchedule>(0.01));
  ParameterServer store(args.dim, args.num_servers, std::move(applier));
  DenseVector params(args.dim);
  for (std::size_t i = 0; i < args.dim; ++i) {
    params[i] = 0.001 * static_cast<double>(i % 97);
  }
  store.SetParams(std::move(params));

  net::ShardServerConfig server_config;
  server_config.pool_threads = args.pool_threads;
  auto server =
      std::make_unique<net::EventLoopServer>(&store, std::move(server_config));
  if (!server->Start()) {
    std::cerr << "fan-in: cannot start server\n";
    return false;
  }

  net::ShardClientConfig client_config;
  client_config.topology = net::ClusterTopology::SingleServer(
      ParameterServer::ShardSplit(args.dim, args.num_servers),
      net::Endpoint{"127.0.0.1", server->port()});
  // Generous per-attempt deadline: under 256-way fan-in an individual pull
  // legitimately queues behind hundreds of peers.
  client_config.request_timeout = std::chrono::milliseconds(5000);
  client_config.max_attempts = 4;

  obs::ObsContext obs;  // fan-in RTTs only (kept apart from the soak's)
  std::atomic<std::size_t> failures{0};
  std::atomic<std::size_t> max_server_threads{0};
  std::atomic<bool> sampling{true};

  const auto fanin_start = std::chrono::steady_clock::now();
  {
    // Samples the server's thread count while the fan-in is live — the
    // number the event-loop server must hold constant.
    std::jthread sampler([&] {
      while (sampling.load(std::memory_order_acquire)) {
        const std::size_t now = server->thread_count();
        std::size_t seen = max_server_threads.load(std::memory_order_relaxed);
        while (now > seen && !max_server_threads.compare_exchange_weak(
                                 seen, now, std::memory_order_relaxed)) {
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
    std::vector<std::jthread> clients;
    clients.reserve(args.clients);
    for (std::size_t c = 0; c < args.clients; ++c) {
      clients.emplace_back([&, c] {
        try {
          net::ShardClient client(client_config, nullptr, &obs.metrics);
          if (!client.Connect()) {
            failures.fetch_add(1, std::memory_order_relaxed);
            return;
          }
          for (std::size_t it = 0; it < args.fanin_iters; ++it) {
            const PullResult snapshot = client.Pull();
            SPECSYNC_CHECK_EQ(snapshot.params.size(), args.dim);
          }
        } catch (const CheckError& e) {
          std::cerr << "fan-in client " << c << " failed: " << e.what()
                    << "\n";
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    clients.clear();  // join
    sampling.store(false, std::memory_order_release);
  }
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    fanin_start)
          .count();

  const obs::LatencyHistogram& rtt = obs.metrics.histogram("net.rtt_s");
  const double p50_us = rtt.ApproxQuantileSeconds(0.50) * 1e6;
  const double p99_us = rtt.ApproxQuantileSeconds(0.99) * 1e6;
  const std::size_t server_threads =
      max_server_threads.load(std::memory_order_relaxed);
  server->Stop();

  std::cout << "fan-in: clients=" << args.clients
            << " iters_per_client=" << args.fanin_iters
            << " pool_threads=" << args.pool_threads << "\n"
            << "  rtt_p50_us=" << p50_us << " rtt_p99_us=" << p99_us
            << " server_threads_peak=" << server_threads
            << " wall_s=" << wall_seconds << "\n";

  reporter.AddMetric("fanin_clients", static_cast<double>(args.clients));
  reporter.AddMetric("fanin_pool_threads",
                     static_cast<double>(args.pool_threads));
  reporter.AddMetric("fanin_server_threads",
                     static_cast<double>(server_threads));
  reporter.AddMetric("fanin_rtt_p50_us", p50_us);
  reporter.AddMetric("fanin_rtt_p99_us", p99_us);
  reporter.AddMetric("fanin_wall_s", wall_seconds);

  bool ok = failures.load(std::memory_order_relaxed) == 0;
  if (!ok) std::cerr << "fan-in: " << failures.load() << " clients failed\n";
  // The structural claim: server threads = 1 loop + pool, never O(clients).
  // +2 slack covers sampler skew around Start/Stop edges.
  const std::size_t ceiling = args.pool_threads + 1 + 2;
  if (server_threads > ceiling) {
    std::cerr << "fan-in: server used " << server_threads
              << " threads (ceiling " << ceiling << " with pool "
              << args.pool_threads << ") — O(clients) thread growth\n";
    ok = false;
  }
  if (args.fanin_p99_ceiling_us > 0.0 && p99_us > args.fanin_p99_ceiling_us) {
    std::cerr << "fan-in: p99 RTT " << p99_us << "us exceeds ceiling "
              << args.fanin_p99_ceiling_us << "us\n";
    ok = false;
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  std::cout << "bench_transport: multi-process loopback shard transport"
            << (args.smoke ? " (smoke)" : "") << "\n"
            << "  servers=" << args.num_servers << " workers=" << args.workers
            << " iters=" << args.iters << " dim=" << args.dim
            << " drop=" << args.drop << " delay=" << args.delay
            << " dup=" << args.dup << "\n\n";

  // Fork every server process BEFORE any threads exist in the parent
  // (fork+threads only mix safely when the child immediately execs, which
  // these children do not).
  struct Child {
    pid_t pid = -1;
    int shutdown_wr = -1;
    std::uint16_t port = 0;
  };
  std::vector<Child> children(args.num_servers);
  std::vector<int> parent_fds;  // parent-side fds later children must close
  for (std::size_t s = 0; s < args.num_servers; ++s) {
    int port_pipe[2] = {-1, -1};
    int shutdown_pipe[2] = {-1, -1};
    SPECSYNC_CHECK_EQ(::pipe(port_pipe), 0);
    SPECSYNC_CHECK_EQ(::pipe(shutdown_pipe), 0);
    const pid_t pid = ::fork();
    SPECSYNC_CHECK_GE(pid, 0) << "fork failed: " << std::strerror(errno);
    if (pid == 0) {
      // Child: drop every parent-side descriptor, including the shutdown
      // write ends of earlier siblings (holding one would keep a sibling's
      // EOF from ever arriving).
      for (const int fd : parent_fds) ::close(fd);
      ::close(port_pipe[0]);
      ::close(shutdown_pipe[1]);
      const int rc =
          RunShardProcess(s, args, port_pipe[1], shutdown_pipe[0]);
      ::_exit(rc);
    }
    ::close(port_pipe[1]);
    ::close(shutdown_pipe[0]);
    children[s].pid = pid;
    children[s].shutdown_wr = shutdown_pipe[1];
    parent_fds.push_back(port_pipe[0]);
    parent_fds.push_back(shutdown_pipe[1]);
    if (!ReadAll(port_pipe[0], &children[s].port, sizeof(std::uint16_t))) {
      std::cerr << "bench_transport: shard " << s
                << " server failed to report a port\n";
      return 1;
    }
    ::close(port_pipe[0]);
  }

  // Endpoint table from the one canonical shard layout: each shard behind
  // its own server process (clients open one link per process).
  net::ShardClientConfig client_config;
  const auto split = ParameterServer::ShardSplit(args.dim, args.num_servers);
  for (std::size_t s = 0; s < args.num_servers; ++s) {
    client_config.topology.shards.push_back(net::ShardPlacement{
        split[s].first, split[s].second,
        net::Endpoint{"127.0.0.1", children[s].port}});
  }
  client_config.request_timeout = std::chrono::milliseconds(100);
  client_config.max_attempts = 64;

  FaultPlanConfig fault_config;
  fault_config.data.drop_probability = args.drop;
  fault_config.data.delay_probability = args.delay;
  fault_config.data.delay_mean = Duration::Milliseconds(1.0);
  fault_config.data.duplicate_probability = args.dup;
  fault_config.seed = 1234;
  FaultPlan faults(fault_config);
  FaultPlan* fault_ptr = faults.enabled() ? &faults : nullptr;

  obs::ObsContext obs;
  // Client-side request spans: one recorder for the parent process, one
  // track per worker so each worker's pipelined pulls/pushes read as a
  // timeline. Flow ids stitch these to the serve spans the forked server
  // processes record on the far side of the wire.
  obs::SpanRecorder client_spans;
  obs::SpanRecorder* client_spans_ptr = nullptr;
  if (!args.trace_out.empty()) {
    client_spans.SetProcessInfo(static_cast<std::uint32_t>(::getpid()),
                                "bench_client");
    client_spans.EnsureWallEpochNanos();
    for (std::size_t w = 0; w < args.workers; ++w) {
      client_spans.SetTrackName(static_cast<std::uint32_t>(w),
                                "worker " + std::to_string(w));
    }
    client_spans_ptr = &client_spans;
  }
  const auto bench_start = std::chrono::steady_clock::now();
  std::vector<WorkerTally> tallies(args.workers);
  {
    std::vector<std::jthread> workers;
    for (std::size_t w = 0; w < args.workers; ++w) {
      workers.emplace_back([&, w] {
        try {
          net::ShardClientConfig worker_config = client_config;
          worker_config.trace_track = static_cast<std::uint32_t>(w);
          net::ShardClient client(worker_config, fault_ptr, &obs.metrics,
                                  client_spans_ptr);
          if (!client.Connect()) {
            std::cerr << "worker " << w << ": connect failed\n";
            return;
          }
          Gradient grad = Gradient::Dense(args.dim);
          for (std::size_t i = 0; i < args.dim; ++i) {
            grad.dense()[i] = 1e-4 * static_cast<double>((i + w) % 13);
          }
          for (std::size_t it = 0; it < args.iters; ++it) {
            const PullResult snapshot = client.Pull();
            SPECSYNC_CHECK_EQ(snapshot.params.size(), args.dim);
            ++tallies[w].pulls;
            client.Push(grad, it);
            ++tallies[w].pushes;
          }
          tallies[w].stats = client.stats();
          tallies[w].ok = true;
        } catch (const CheckError& e) {
          std::cerr << "worker " << w << " failed: " << e.what() << "\n";
        }
      });
    }
  }  // join workers
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    bench_start)
          .count();

  bool all_ok = true;
  net::ShardClient::Stats total;
  std::uint64_t total_ops = 0;
  std::uint64_t total_pulls = 0;
  std::uint64_t total_pushes = 0;
  for (const WorkerTally& tally : tallies) {
    all_ok = all_ok && tally.ok;
    total_ops += tally.pulls + tally.pushes;
    total_pulls += tally.pulls;
    total_pushes += tally.pushes;
    total.requests += tally.stats.requests;
    total.retries += tally.stats.retries;
    total.timeouts += tally.stats.timeouts;
    total.reconnects += tally.stats.reconnects;
    total.stale_frames += tally.stats.stale_frames;
    total.injected_drops += tally.stats.injected_drops;
    total.injected_delays += tally.stats.injected_delays;
    total.injected_duplicates += tally.stats.injected_duplicates;
  }

  // Per-link RTTs straight from the client-side histograms (each server
  // process owns one shard, so one link per shard).
  Table rtt({"shard", "link", "requests", "mean_us", "p50_us", "p95_us",
             "p99_us", "max_us"});
  const auto us = [](double seconds) { return seconds * 1e6; };
  for (std::size_t s = 0; s < args.num_servers; ++s) {
    const std::string link = net::ToString(
        client_config.topology.shards[s].endpoint);
    const obs::LatencyHistogram& hist =
        obs.metrics.histogram("net.link.rtt_s{link=" + link + "}");
    rtt.AddRowValues(static_cast<unsigned long long>(s), link,
                     static_cast<unsigned long long>(hist.count()),
                     us(hist.mean_seconds()),
                     us(hist.ApproxQuantileSeconds(0.50)),
                     us(hist.ApproxQuantileSeconds(0.95)),
                     us(hist.ApproxQuantileSeconds(0.99)),
                     us(hist.max_seconds()));
  }
  rtt.PrintPretty(std::cout);
  std::cout << "\n";
  rtt.PrintCsv(std::cout);

  const obs::LatencyHistogram& all_rtt = obs.metrics.histogram("net.rtt_s");
  std::cout << "\nall links: requests=" << total.requests
            << " rtt_p50_us=" << us(all_rtt.ApproxQuantileSeconds(0.50))
            << " rtt_p99_us=" << us(all_rtt.ApproxQuantileSeconds(0.99))
            << "\nreliability: retries=" << total.retries
            << " timeouts=" << total.timeouts
            << " reconnects=" << total.reconnects
            << " stale_frames=" << total.stale_frames
            << "\ninjected: drops=" << total.injected_drops
            << " delays=" << total.injected_delays
            << " duplicates=" << total.injected_duplicates << "\n"
            << "ops=" << total_ops << " wall_s=" << wall_seconds
            << " ops_per_s=" << (total_ops / std::max(wall_seconds, 1e-9))
            << "\n";
  // Timing-free summary for the CI check: every worker must complete all of
  // its pulls and pushes (pulls == pushes == workers × iters, ok=1).
  std::cout << "equivalence: servers=" << args.num_servers
            << " workers=" << args.workers << " iters=" << args.iters
            << " dim=" << args.dim << " pulls=" << total_pulls
            << " pushes=" << total_pushes << " ok=" << (all_ok ? 1 : 0)
            << "\n";

  // Self-describing metrics snapshot (the RTT histograms above plus the run
  // shape), so the smoke artifact can be validated without the stdout log.
  obs.metrics.gauge("bench.num_servers")
      .Set(static_cast<double>(args.num_servers));
  obs.metrics.gauge("bench.workers").Set(static_cast<double>(args.workers));
  obs.metrics.gauge("bench.iters").Set(static_cast<double>(args.iters));
  obs.metrics.gauge("bench.dim").Set(static_cast<double>(args.dim));
  obs.metrics.gauge("bench.drop").Set(args.drop);
  obs.metrics.gauge("bench.delay").Set(args.delay);
  obs.metrics.gauge("bench.dup").Set(args.dup);
  obs.metrics.gauge("bench.wall_s").Set(wall_seconds);
  if (!args.metrics_out.empty()) {
    if (obs::WriteMetricsJsonFile(obs, args.metrics_out)) {
      std::cout << "metrics: wrote " << args.metrics_out << "\n";
    } else {
      std::cerr << "metrics: cannot write " << args.metrics_out << "\n";
      all_ok = false;
    }
  }
  if (client_spans_ptr != nullptr) {
    if (obs::WriteChromeTraceFile(*client_spans_ptr, args.trace_out)) {
      std::cout << "trace: wrote " << args.trace_out << " ("
                << client_spans_ptr->event_count() << " events; per-server "
                << "traces land in " << args.trace_out << ".server<k> — "
                << "merge with scripts/specsync_obsctl)\n";
    } else {
      std::cerr << "trace: cannot write " << args.trace_out << "\n";
      all_ok = false;
    }
  }

  // Shutdown: closing the pipe write end is the children's EOF signal.
  for (Child& child : children) ::close(child.shutdown_wr);
  for (Child& child : children) {
    int status = 0;
    if (::waitpid(child.pid, &status, 0) != child.pid ||
        !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      std::cerr << "bench_transport: server pid " << child.pid
                << " exited abnormally\n";
      all_ok = false;
    }
  }

  // Phase 2 — fan-in scaling on one in-process server.
  bench::BenchReporter reporter("bench_transport");
  reporter.AddMetric("soak_ops_per_s",
                     total_ops / std::max(wall_seconds, 1e-9));
  reporter.AddMetric("soak_rtt_p99_us",
                     us(all_rtt.ApproxQuantileSeconds(0.99)));
  if (args.clients > 0) {
    std::cout << "\n";
    all_ok = RunFanIn(args, reporter) && all_ok;
  }
  reporter.SetRun(args.workers, wall_seconds, wall_seconds);
  reporter.WriteJson();

  if (!all_ok) {
    std::cerr << "bench_transport: FAILED\n";
    return 1;
  }
  std::cout << "bench_transport: OK\n";
  return 0;
}
