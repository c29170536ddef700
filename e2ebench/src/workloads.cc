#include "workloads.h"

#include "baselines/policy_factory.h"
#include "common/rng.h"
#include "pipeline/apps.h"
#include "pipeline/backend_profile.h"
#include "serve/load_generator.h"
#include "trace/arrival_generator.h"
#include "trace/traces.h"

namespace e2ebench {

namespace {

// The tweet trace's rate curve is the fixed reference shape (the program's
// default trace seed); the run's seed draws the arrival realization and
// every runtime/policy stream. Seeds therefore vary the requests, not the
// burst structure the workload is about.
constexpr std::uint64_t kTraceShapeSeed = 7;

// Tiny durations give ~1 s of wall time each; sim_long keeps a full sync
// cadence.
const Workload kWorkloads[] = {
    // name, serve, app, poisson, rate, duration_s, tiny_duration_s,
    // speed_grade, max_threads
    {"sim_long", false, "lv", false, 200.0, 1000.0, 30.0},
    {"sim_dense", false, "da", false, 6000.0, 100.0, 4.0},
    {"serve_trace", true, "lv", false, 200.0, 400.0, 20.0},
    {"serve_ingress", true, "lv", true, 1250.0, 60.0, 20.0, 16.0, 10},
};

}  // namespace

std::optional<Workload> FindWorkload(const std::string& name, bool tiny) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) {
      Workload found = w;
      if (tiny) {
        found.duration_s = w.tiny_duration_s;
      }
      return found;
    }
  }
  return std::nullopt;
}

Inputs MakeInputs(const Workload& w, std::uint64_t seed) {
  Inputs in;
  in.spec = pard::MakeApp(w.app);
  if (w.speed_grade > 0.0) {
    pard::BackendProfile grade;
    grade.name = "grade" + std::to_string(static_cast<int>(w.speed_grade));
    grade.speed_grade = w.speed_grade;
    in.spec.set_backends({grade});
  }
  pard::Rng rng = pard::Rng(seed).Fork("e2ebench:arrivals");
  const pard::SimTime end = pard::SecToUs(w.duration_s);
  if (w.poisson) {
    in.arrivals = pard::SynthesizePoissonArrivals(w.rate, 0, end, rng);
    in.expected_rate = w.rate;
  } else {
    pard::TraceOptions trace;
    trace.duration_s = w.duration_s;
    trace.base_rate = w.rate;
    trace.seed = kTraceShapeSeed;
    const pard::RateFunction curve = pard::MakeTrace("tweet", trace);
    in.arrivals = pard::GenerateArrivals(curve, 0, end, rng);
    in.expected_rate = curve.MeanRate(0, end);
  }
  return in;
}

pard::RuntimeOptions MakeRuntimeOptions(std::uint64_t seed) {
  pard::RuntimeOptions options;
  options.seed = seed;
  // Provision exactly for the mean offered rate; bursts exceed capacity,
  // which is where proactive dropping matters. No scaling, no faults.
  options.provision_headroom = 1.0;
  options.enable_scaling = false;
  return options;
}

pard::ServeOptions MakeServeOptions(const Workload& w) {
  pard::ServeOptions serve;
  serve.speedup = 20.0;  // Virtual seconds per wall second.
  serve.arrivals = pard::ServeOptions::Arrivals::kTrace;  // Replays our stream.
  serve.broker_threads = 1;
  serve.max_total_threads = w.max_threads;
  return serve;
}

std::unique_ptr<pard::DropPolicy> MakePard(std::uint64_t seed) {
  pard::PolicyParams params;
  params.seed = seed;
  return pard::MakePolicy("pard", params);
}

}  // namespace e2ebench
