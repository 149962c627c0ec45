// Figures 2 / 4 / 6: the didactic 4-worker timelines.
//
// Fig. 2 (ASP): a worker that pulls early misses the pushes landing right
// after its pull. Fig. 4 (naive waiting): a fixed pull delay exposes them.
// Fig. 6 (SpecSync): the scheduler aborts workers whose speculation window
// saw enough pushes; they restart on fresher parameters.
#include <iomanip>
#include <iostream>

#include "benchmarks/bench_util.h"
#include "data/synthetic.h"
#include "models/softmax_regression.h"
#include "sim/cluster.h"

using namespace specsync;

namespace {

std::shared_ptr<const Model> TinyModel() {
  Rng rng(1);
  ClassificationSpec spec;
  spec.num_examples = 200;
  spec.feature_dim = 8;
  spec.num_classes = 2;
  auto data = std::make_shared<ClassificationDataset>(
      GenerateClassification(spec, rng));
  return std::make_shared<SoftmaxRegressionModel>(std::move(data),
                                                  SoftmaxRegressionConfig{});
}

void PrintTimeline(const char* title, const SimResult& result,
                   double horizon) {
  std::cout << "\n--- " << title << " (first " << horizon << "s) ---\n";
  for (WorkerId w = 0; w < result.trace.num_workers(); ++w) {
    std::cout << "worker-" << (w + 1) << ": ";
    struct Mark {
      double t;
      char kind;
    };
    std::vector<Mark> marks;
    for (const PullEvent& e : result.trace.pulls()) {
      if (e.worker == w && e.time.seconds() <= horizon) {
        marks.push_back({e.time.seconds(), 'P'});
      }
    }
    for (const PushEvent& e : result.trace.pushes()) {
      if (e.worker == w && e.time.seconds() <= horizon) {
        marks.push_back({e.time.seconds(), 'U'});
      }
    }
    for (const AbortEvent& e : result.trace.aborts()) {
      if (e.worker == w && e.time.seconds() <= horizon) {
        marks.push_back({e.time.seconds(), 'A'});
      }
    }
    std::sort(marks.begin(), marks.end(),
              [](const Mark& a, const Mark& b) { return a.t < b.t; });
    for (const Mark& mark : marks) {
      std::cout << mark.kind << "@" << std::fixed << std::setprecision(2)
                << mark.t << "s ";
    }
    std::cout << "\n";
  }
  std::cout << "(P = pull, U = push/update, A = abort-and-refresh; "
            << "aborts=" << result.total_aborts << ")\n";
}

SimResult Run(SchemeSpec scheme) {
  ClusterSimConfig config;
  config.num_workers = 4;
  config.num_servers = 1;
  config.batch_size = 8;
  config.scheme = std::move(scheme);
  config.eval_interval = Duration::Seconds(50.0);
  config.max_time = SimTime::FromSeconds(40.0);
  config.seed = 3;
  // Distinct deterministic speeds so the interleaving is legible, mirroring
  // the staggered workers of the paper's Fig. 2.
  SpeedModel speed(Duration::Seconds(4.0), {1.0, 1.15, 0.85, 1.3}, 0.02);
  ClusterSim sim(TinyModel(), std::make_shared<ConstantSchedule>(0.1),
                 std::move(speed), config);
  return sim.Run();
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Fig. 2 / 4 / 6 — synchronization timelines (4 workers)",
      "ASP hides pushes-after-pull; naive waiting uncovers some at a fixed "
      "delay; SpecSync aborts and refreshes only when enough pushes landed");

  PrintTimeline("Fig. 2: ASP", Run(SchemeSpec::Original()), 20.0);
  PrintTimeline("Fig. 4: naive waiting (1s)",
                Run(SchemeSpec::NaiveWaiting(Duration::Seconds(1.0))), 20.0);

  SpeculationParams params;
  params.abort_time = Duration::Seconds(1.5);
  params.abort_rate = 0.5;  // 2 of 4 workers
  PrintTimeline("Fig. 6: SpecSync (ABORT_TIME=1.5s, ABORT_RATE=0.5)",
                Run(SchemeSpec::Cherrypick(params)), 20.0);
  return 0;
}
