// The benchmark's workloads and the inputs it generates for them.
//
// Every workload is PARD on an open-loop arrival stream. The benchmark, not
// the program, generates the arrivals from the run's seed and hands them to
// RunTrace, so the program only ever sees the generated inputs.
#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "pipeline/pipeline_spec.h"
#include "runtime/drop_policy.h"
#include "runtime/runtime_options.h"
#include "serve/serve_options.h"

namespace e2ebench {

struct Workload {
  std::string name;
  bool serve = false;
  std::string app;
  // Arrival process: the tweet trace shape at `rate` base req/s, or
  // homogeneous Poisson at `rate` req/s. Rates and durations are virtual.
  bool poisson = false;
  double rate = 0.0;
  double duration_s = 0.0;
  double tiny_duration_s = 0.0;  // Used by --scale tiny (the self-test).
  // Serve only: an optional single backend grade (> 0 replaces the
  // catalog) and the worker-thread cap.
  double speed_grade = 0.0;
  int max_threads = 64;
};

// The workload called `name` at full or tiny scale, if there is one. Tiny
// scale keeps the pipeline, arrival process and knobs and shortens the
// stream so a run takes about a second.
std::optional<Workload> FindWorkload(const std::string& name, bool tiny);

struct Inputs {
  pard::PipelineSpec spec;
  std::vector<pard::SimTime> arrivals;  // Scheduled send times, sorted.
  double expected_rate = 0.0;           // Provisioning rate, req/s.
};

// Deterministic in (workload, seed).
Inputs MakeInputs(const Workload& w, std::uint64_t seed);

pard::RuntimeOptions MakeRuntimeOptions(std::uint64_t seed);
pard::ServeOptions MakeServeOptions(const Workload& w);
std::unique_ptr<pard::DropPolicy> MakePard(std::uint64_t seed);

}  // namespace e2ebench

#endif  // E2EBENCH_WORKLOADS_H_
