// End-to-end benchmark of the simulator and the serve runtime.
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--scale full|tiny] [--corrupt lose|misattribute|hop-order]
//
// --trace 0 repeats the workload until --seconds of measurement have passed
// and prints the end-to-end metrics (medians over the repeats). --trace 1
// runs the workload once untraced and once through the timing shim with the
// program's MetricsRegistry wired in, and prints the per-layer metrics.
// Both print a detail line (provenance, outcome counts, sample counts and
// the substrate-specific layer metrics) and then, as the last line, the
// result object {"correct", "attempted", "failed", "metrics"}. Any failed
// correctness check prints its reason on stderr and exits 1.
//
// --corrupt damages the records of every run before they are checked; the
// self-test uses it to prove each check fires.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "accounting.h"
#include "core/pard_policy.h"
#include "jsonio/json.h"
#include "obs/metrics.h"
#include "pipeline/apps.h"
#include "runtime/pipeline_runtime.h"
#include "serve/serve_runtime.h"
#include "timing_shim.h"
#include "workloads.h"

namespace e2ebench {
namespace {

using pard::JsonArray;
using pard::JsonObject;
using pard::JsonValue;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string corrupt;
};

double WallS() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuS() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

// Times single-threaded work on each allowed CPU in turn. On a shared host
// the vCPUs can run at different speeds (1.5x apart on a 4-vCPU Xeon VM),
// and a process that stays on one of them would report that CPU's speed,
// not the host's.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&allowed_);
    sched_getaffinity(0, sizeof(allowed_), &allowed_);
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed_)) {
        cpus_.push_back(cpu);
      }
    }
  }
  // Pins the calling thread to the next allowed CPU.
  void PinNext() {
    if (cpus_.empty()) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }
  void Release() { sched_setaffinity(0, sizeof(allowed_), &allowed_); }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

// Host-speed calibration. On a shared host the speed drifts by up to ~35%
// over minutes, and every CPU-bound timing drifts with it. A fixed kernel
// timed next to each pass tracks that drift. It mixes the two kinds of work
// the program spends its CPU on: sorting copies of one random array (the
// simulator's wait-reservoir sort) and drawing and appending exponential
// samples (arrival generation, event and request bookkeeping). Each
// CPU-bound timing is divided by the slowdown timed next to it on the same
// CPU (kernel time over kReferenceCalibrationS, a fixed scale near the
// kernel's time on a 4-vCPU 2.0 GHz Xeon VM), and the metric is the median
// of those ratios. The host's speed moves within seconds, so a slowdown
// timed once per run tracks it less well. The raw medians and the median
// slowdown are in the detail line.
constexpr double kReferenceCalibrationS = 0.030;

double CalibrationS() {
  constexpr int kRounds = 25;
  static const std::vector<double> base = [] {
    std::mt19937_64 rng(12345);
    std::uniform_real_distribution<double> uniform(0.0, 1.0);
    std::vector<double> v(10000);
    for (double& x : v) {
      x = uniform(rng);
    }
    return v;
  }();
  double sink = 0.0;
  const double t0 = WallS();
  std::mt19937_64 rng(6789);
  std::exponential_distribution<double> gap(1.0);
  for (int i = 0; i < kRounds; ++i) {
    std::vector<double> sorted = base;
    std::sort(sorted.begin(), sorted.end());
    std::vector<double> drawn;
    for (int k = 0; k < 20000; ++k) {
      drawn.push_back(gap(rng));
    }
    sink += sorted[static_cast<std::size_t>(i)] + drawn.back();
  }
  const double elapsed = WallS() - t0;
  volatile double keep = sink;
  (void)keep;
  return elapsed;
}

// Deliberate record damage for the self-test (never used in measurement).
void Corrupt(const std::string& kind, const std::vector<pard::RequestPtr>& requests) {
  if (kind.empty() || requests.empty()) {
    return;
  }
  pard::Request& victim = *requests[requests.size() / 2];
  if (kind == "lose") {
    victim.fate = pard::RequestFate::kInFlight;
  } else if (kind == "misattribute") {
    victim.fate = pard::RequestFate::kDropped;
    victim.drop_reason = pard::DropReason::kNone;
  } else if (kind == "hop-order") {
    pard::HopRecord& hop = victim.hops.front();
    hop.executed = true;
    hop.arrive = 10;
    hop.batch_entry = 5;
  }
}

// Everything one pass over the workload leaves behind.
struct Pass {
  double setup_s = 0.0;  // Spec + arrival generation + runtime construction.
  double gen_s = 0.0;    // Spec + arrival generation only.
  double wall_s = 0.0;   // RunTrace.
  double cpu_s = 0.0;    // Process CPU (all threads) during RunTrace.
  // Process high-water mark right after RunTrace, before the benchmark's
  // own accounting allocates anything.
  double peak_rss_mb = 0.0;
  Outcome outcome;
  // Traced passes only.
  std::unique_ptr<CallLog> log;
  std::unique_ptr<pard::MetricsRegistry> metrics;
  std::uint64_t sim_events = 0;
  std::size_t priority_transitions = 0;
  std::uint64_t stale_fallbacks = 0;
  int worker_threads = 0;
  bool lock_free = false;

  double CpuUsPerReq() const { return cpu_s * 1e6 / static_cast<double>(outcome.offered); }
  double ReqPerWallS() const { return static_cast<double>(outcome.offered) / wall_s; }
};

// Sets the workload up and, when `run`, serves it and accounts the result.
// With `traced`, decisions go through the timing shim and the program's
// MetricsRegistry is wired in through RuntimeOptions::metrics.
Pass RunPass(const Workload& w, const Args& args, bool traced, bool run) {
  Pass pass;
  const double t0 = WallS();
  const Inputs in = MakeInputs(w, args.seed);
  pass.gen_s = WallS() - t0;

  std::unique_ptr<pard::DropPolicy> pard_policy = MakePard(args.seed);
  pard::RuntimeOptions options = MakeRuntimeOptions(args.seed);
  std::unique_ptr<TimedPolicy> timed;
  pard::DropPolicy* policy = pard_policy.get();
  if (traced) {
    pass.log = std::make_unique<CallLog>();
    pass.metrics = std::make_unique<pard::MetricsRegistry>();
    timed = std::make_unique<TimedPolicy>(pard_policy.get(), pass.log.get());
    policy = timed.get();
    options.metrics = pass.metrics.get();
  }

  std::unique_ptr<pard::PipelineRuntime> sim;
  std::unique_ptr<pard::ServeRuntime> serve;
  if (w.serve) {
    serve = std::make_unique<pard::ServeRuntime>(in.spec, options, policy, in.expected_rate,
                                                 MakeServeOptions(w));
  } else {
    sim = std::make_unique<pard::PipelineRuntime>(in.spec, options, policy, in.expected_rate);
  }
  pass.setup_s = WallS() - t0;
  if (!run) {
    return pass;
  }

  const double cpu0 = ProcessCpuS();
  const double wall0 = WallS();
  if (serve) {
    serve->RunTrace(in.arrivals);
  } else {
    sim->RunTrace(in.arrivals);
  }
  pass.wall_s = WallS() - wall0;
  pass.cpu_s = ProcessCpuS() - cpu0;
  pass.peak_rss_mb = PeakRssMb();

  const std::vector<pard::RequestPtr>& requests = serve ? serve->requests() : sim->requests();
  Corrupt(args.corrupt, requests);
  pass.outcome = Account(requests, in.arrivals, in.spec, /*simulator=*/!serve);
  if (traced) {
    if (auto* pard = dynamic_cast<pard::PardPolicy*>(pard_policy.get())) {
      pass.priority_transitions = pard->transition_log().size();
    }
    if (serve) {
      pass.stale_fallbacks = serve->control().StaleFallbacks();
      pass.lock_free = serve->control().LockFree();
      for (int workers : serve->worker_plan()) {
        pass.worker_threads += workers;
      }
    } else {
      pass.sim_events = sim->sim().ExecutedEvents();
    }
  }
  return pass;
}

// Upper edge of the fixed-width histogram bucket holding quantile q: the
// histogram cannot resolve more than "at most this much".
double HistogramQuantileBound(const pard::AtomicHistogram& h, double q) {
  const double target = q * static_cast<double>(h.Count());
  double seen = static_cast<double>(h.UnderflowCount());
  const double width = (h.hi() - h.lo()) / static_cast<double>(h.bucket_count());
  for (std::size_t i = 0; i < h.bucket_count(); ++i) {
    seen += static_cast<double>(h.BucketCount(i));
    if (seen >= target) {
      return h.lo() + width * static_cast<double>(i + 1);
    }
  }
  return h.hi();
}

JsonValue Metric(double value, const char* unit) {
  JsonObject m;
  m["value"] = value;
  m["unit"] = unit;
  return m;
}

JsonObject Provenance(const Args& args) {
  JsonObject p;
  p["seed"] = static_cast<double>(args.seed);
  p["nproc"] = static_cast<int>(std::thread::hardware_concurrency());
  p["cpu_model"] = CpuModel();
  p["compiler"] = E2EBENCH_COMPILER;
  p["build_type"] = E2EBENCH_BUILD_TYPE;
  p["scale"] = args.tiny ? "tiny" : "full";
  return p;
}

JsonObject Counts(const Outcome& o) {
  JsonObject c;
  c["offered"] = static_cast<double>(o.offered);
  c["good"] = static_cast<double>(o.good);
  c["program_good"] = static_cast<double>(o.program_good);
  c["dropped"] = static_cast<double>(o.dropped);
  c["errored"] = static_cast<double>(o.errored);
  JsonObject reasons;
  for (int k = 1; k < pard::kNumDropReasons; ++k) {
    reasons[pard::DropReasonName(static_cast<pard::DropReason>(k))] =
        static_cast<double>(o.drops_by_reason[static_cast<std::size_t>(k)]);
  }
  c["drops_by_reason"] = reasons;
  return c;
}

void Report(const Args& args, JsonObject detail, std::vector<std::string> failures,
            std::size_t attempted, std::size_t failed, JsonObject metrics) {
  for (const std::string& f : failures) {
    std::cerr << "e2ebench: check failed: " << f << "\n";
  }
  detail["workload"] = args.workload;
  detail["provenance"] = Provenance(args);
  detail["checks_failed"] = static_cast<int>(failures.size());
  std::cout << JsonValue(JsonObject{{"detail", detail}}).Dump() << "\n";
  JsonObject result;
  result["correct"] = failures.empty();
  result["attempted"] = static_cast<double>(attempted);
  result["failed"] = static_cast<double>(failed);
  result["metrics"] = metrics;
  std::cout << JsonValue(result).Dump() << std::endl;
}

void Collect(const Pass& pass, const char* label, std::vector<std::string>& failures) {
  for (const std::string& f : pass.outcome.failures) {
    failures.push_back(std::string(label) + ": " + f);
  }
  if (pass.outcome.errored != 0) {
    failures.push_back(std::string(label) + ": " + std::to_string(pass.outcome.errored) +
                       " errored requests");
  }
}

// Untraced: repeat the workload for --seconds, report medians.
int RunEndToEnd(const Workload& w, const Args& args) {
  // Set-up takes milliseconds, so it is repeated until the median is
  // stable: at least kMinSetups times and kMinSetupWallS of set-up in all.
  constexpr std::size_t kMinSetups = 11;
  constexpr std::size_t kMaxSetups = 200;
  constexpr double kMinSetupWallS = 0.5;
  std::vector<std::string> failures;
  // CPU-bound timings are kept both raw and divided by the slowdown
  // measured next to them (see CalibrationS).
  std::vector<double> setups, raw_setups, rate, raw_rate, cpu, raw_cpu, slowdowns;
  std::vector<double> goodput, useful, p50;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  Outcome first;
  Outcome last;
  double peak_rss_mb = 0.0;
  // Simulator passes and set-ups are single-threaded, so they rotate over
  // the CPUs; serve passes need every CPU and run unpinned.
  CpuRotation rotation;
  CalibrationS();  // Warm-up: the first kernel also faults its pages in.
  const double start = WallS();
  double pass_s = 0.0;
  do {
    const double t = WallS();
    rotation.PinNext();
    double slowdown = CalibrationS() / kReferenceCalibrationS;
    const double setup_slowdown = slowdown;
    if (w.serve) {
      rotation.Release();
    }
    Pass p = RunPass(w, args, /*traced=*/false, /*run=*/true);
    if (!w.serve) {
      // The host's speed moves within a pass; the kernel timed on the same
      // CPU before and after it brackets the pass.
      slowdown = (slowdown + CalibrationS() / kReferenceCalibrationS) / 2.0;
    }
    rotation.Release();
    pass_s = WallS() - t;
    Collect(p, "pass", failures);
    if (raw_setups.empty()) {
      peak_rss_mb = p.peak_rss_mb;
      first = p.outcome.CountsOnly();
    } else if (!w.serve && !p.outcome.SameCounts(first)) {
      failures.push_back("determinism: simulator outcome counts differ between repeats");
    }
    slowdowns.push_back(slowdown);
    raw_setups.push_back(p.setup_s);
    setups.push_back(p.setup_s / setup_slowdown);
    goodput.push_back(p.outcome.Goodput());
    useful.push_back(1.0 - p.outcome.WastedGpuShare());
    p50.push_back(Quantile(p.outcome.good_latency_ms, 0.50));
    raw_rate.push_back(p.ReqPerWallS());
    raw_cpu.push_back(p.CpuUsPerReq());
    // A serve pass is many threads that mostly sleep on the arrival
    // schedule: its wall time is fixed by the schedule and its CPU time
    // does not follow the single-threaded kernel, so both stay raw.
    rate.push_back(w.serve ? raw_rate.back() : raw_rate.back() * slowdown);
    cpu.push_back(w.serve ? raw_cpu.back() : raw_cpu.back() / slowdown);
    attempted += p.outcome.offered;
    failed += p.outcome.errored;
    last = std::move(p.outcome);
  } while (WallS() - start + pass_s <= args.seconds);
  const std::size_t passes = raw_setups.size();
  double setup_wall = 0.0;
  for (double s : raw_setups) {
    setup_wall += s;
  }
  // Set-ups run in groups of four on one CPU, after the kernel timed there.
  while (raw_setups.size() + 4 <= kMaxSetups &&
         (raw_setups.size() < kMinSetups || setup_wall < kMinSetupWallS)) {
    rotation.PinNext();
    const double slowdown = CalibrationS() / kReferenceCalibrationS;
    slowdowns.push_back(slowdown);
    for (int k = 0; k < 4; ++k) {
      raw_setups.push_back(RunPass(w, args, false, /*run=*/false).setup_s);
      setups.push_back(raw_setups.back() / slowdown);
      setup_wall += raw_setups.back();
    }
    rotation.Release();
  }

  JsonObject metrics;
  metrics["goodput"] = Metric(Median(goodput), "fraction");
  metrics["useful_gpu_share"] = Metric(Median(useful), "fraction");
  metrics["latency_p50_ms"] = Metric(Median(p50), "ms");
  metrics["sim_req_per_s"] = Metric(Median(rate), "req/s");
  metrics["cpu_us_per_req"] = Metric(Median(cpu), "us");
  metrics["setup_s"] = Metric(Median(setups), "s");
  metrics["peak_rss_mb"] = Metric(peak_rss_mb, "MB");

  JsonObject detail;
  detail["passes"] = static_cast<int>(passes);
  detail["host_slowdown"] = Median(slowdowns);
  detail["calibrations"] = static_cast<int>(slowdowns.size());
  detail["raw_sim_req_per_s"] = Median(raw_rate);
  detail["raw_cpu_us_per_req"] = Median(raw_cpu);
  detail["raw_setup_s"] = Median(raw_setups);
  detail["pass_req_per_s"] = JsonArray(raw_rate.begin(), raw_rate.end());
  detail["pass_latency_p50_ms"] = JsonArray(p50.begin(), p50.end());
  detail["setups"] = static_cast<int>(setups.size());
  detail["counts_last_pass"] = Counts(last);
  detail["latency_samples_last_pass"] = static_cast<double>(last.good_latency_ms.size());
  detail["program_goodput"] =
      static_cast<double>(last.program_good) / static_cast<double>(last.offered);
  Report(args, detail, failures, attempted, failed, metrics);
  return failures.empty() ? 0 : 1;
}

// Traced: one untraced pass, one traced pass; per-layer metrics.
int RunTraced(const Workload& w, const Args& args) {
  std::vector<std::string> failures;
  // Both simulator passes run on one CPU, so their ratio is the shim's cost.
  CpuRotation rotation;
  if (!w.serve) {
    rotation.PinNext();
  }
  Pass base = RunPass(w, args, /*traced=*/false, /*run=*/true);
  Pass traced = RunPass(w, args, /*traced=*/true, /*run=*/true);
  rotation.Release();
  Collect(base, "untraced pass", failures);
  Collect(traced, "traced pass", failures);
  const CallLog& log = *traced.log;
  Outcome& o = traced.outcome;

  if (!w.serve && !o.SameCounts(base.outcome)) {
    failures.push_back("parity: traced simulator outcome counts differ from untraced");
  }
  if (w.serve && !(traced.lock_free && log.null_views == 0 && log.views_built > 0)) {
    failures.push_back("parity: traced serve run left the snapshot path");
  }
  // The program's own fate counters must agree with the records.
  pard::MetricsRegistry& reg = *traced.metrics;
  bool agrees =
      reg.GetCounter("fate.completed")->Value() == static_cast<std::int64_t>(o.program_good);
  for (int k = 1; k < pard::kNumDropReasons; ++k) {
    const std::string name =
        std::string("fate.dropped.") + pard::DropReasonName(static_cast<pard::DropReason>(k));
    agrees = agrees && reg.GetCounter(name)->Value() ==
                           static_cast<std::int64_t>(o.drops_by_reason[std::size_t(k)]);
  }
  if (!agrees) {
    failures.push_back("conservation: fate.* counters disagree with the records");
  }

  const double offered = static_cast<double>(o.offered);
  JsonObject m;
  // End-to-end quantities too unsteady on the serve workloads to carry a
  // bound; taken from the untraced pass.
  m["outcome.latency_p99_ms"] = Metric(Quantile(base.outcome.good_latency_ms, 0.99), "ms");
  m["outcome.wasted_gpu_share"] = Metric(base.outcome.WastedGpuShare(), "fraction");
  m["trace.arrivals"] = Metric(offered, "count");
  m["trace.gen_s"] = Metric(Median({base.gen_s, traced.gen_s}), "s");
  m["sim.events"] = Metric(static_cast<double>(traced.sim_events), "count");
  m["runtime.syncs"] = Metric(static_cast<double>(log[Call::kOnSync].calls), "count");
  m["runtime.hops_executed"] = Metric(static_cast<double>(o.hops_executed), "count");
  m["runtime.outside_core_ns_per_req"] =
      Metric((traced.wall_s * 1e9 - static_cast<double>(log.TotalNs())) / offered, "ns");
  m["runtime.queue_wait_ms.p50"] = Metric(Quantile(o.queue_wait_ms, 0.50), "ms");
  m["runtime.queue_wait_ms.p99"] = Metric(Quantile(o.queue_wait_ms, 0.99), "ms");
  m["runtime.batch_wait_ms.p50"] = Metric(Quantile(o.batch_wait_ms, 0.50), "ms");
  for (int k = 1; k < pard::kNumDropReasons; ++k) {
    m[std::string("runtime.drops.") + pard::DropReasonName(static_cast<pard::DropReason>(k))] =
        Metric(static_cast<double>(o.drops_by_reason[static_cast<std::size_t>(k)]), "count");
  }
  const std::pair<const char*, Call> timed_calls[] = {{"core.should_drop", Call::kShouldDrop},
                                                      {"core.pop_side", Call::kPopSide},
                                                      {"core.admit", Call::kAdmit},
                                                      {"core.on_sync", Call::kOnSync}};
  for (const auto& [name, call] : timed_calls) {
    m[std::string(name) + ".calls"] = Metric(static_cast<double>(log[call].calls), "count");
    m[std::string(name) + ".ns"] = Metric(log[call].MeanNs(), "ns");
  }
  m["core.refresh.refreshed"] = Metric(log.refresh_total.refreshed, "count");
  m["core.refresh.skipped"] = Metric(log.refresh_total.skipped, "count");
  const auto decisions = log[Call::kShouldDrop].calls.load();
  m["core.broker_drop_share"] =
      Metric(decisions == 0 ? 0.0
                            : static_cast<double>(log[Call::kShouldDrop].rejections) /
                                  static_cast<double>(decisions),
             "fraction");
  m["core.priority_transitions"] =
      Metric(static_cast<double>(traced.priority_transitions), "count");
  std::int64_t steals = 0;
  for (int k = 0; k < static_cast<int>(pard::MakeApp(w.app).NumModules()); ++k) {
    steals += reg.GetCounter("module.m" + std::to_string(k) + ".steals")->Value();
  }
  m["serve.steals"] = Metric(static_cast<double>(steals), "count");
  m["serve.stale_fallbacks"] = Metric(static_cast<double>(traced.stale_fallbacks), "count");
  m["serve.worker_threads"] = Metric(traced.worker_threads, "count");
  m["obs.trace_overhead"] =
      Metric(w.serve ? traced.CpuUsPerReq() / base.CpuUsPerReq() : traced.wall_s / base.wall_s,
             "ratio");

  // Layer metrics that exist on one substrate only: reported here, not in
  // the result object, so the result's keys are the same on every workload.
  JsonObject layers;
  if (w.serve) {
    pard::AtomicHistogram* sync =
        reg.GetHistogram("control.sync_duration_us", 0.0, 20000.0, 40);
    layers["serve.ingress.lag_p50_us"] = Metric(Quantile(o.ingress_lag_us, 0.50), "us");
    layers["serve.ingress.lag_p99_us"] = Metric(Quantile(o.ingress_lag_us, 0.99), "us");
    layers["serve.control.sync_us.p50"] = Metric(HistogramQuantileBound(*sync, 0.50), "us");
    layers["serve.control.sync_us.p99"] = Metric(HistogramQuantileBound(*sync, 0.99), "us");
    layers["serve.control.sync_lag_us"] =
        Metric(static_cast<double>(reg.GetGauge("control.sync_lag_us")->Value()), "us");
    layers["core.refresh.ns"] = Metric(log[Call::kRefresh].MeanNs(), "ns");
    layers["core.make_view.ns"] = Metric(log[Call::kMakeView].MeanNs(), "ns");
  } else {
    layers["sim.ns_per_event"] =
        Metric(traced.wall_s * 1e9 / static_cast<double>(traced.sim_events), "ns");
  }

  JsonObject detail;
  detail["counts_traced_pass"] = Counts(o);
  detail["counts_untraced_pass"] = Counts(base.outcome);
  detail["latency_samples_untraced_pass"] =
      static_cast<double>(base.outcome.good_latency_ms.size());
  detail["queue_wait_samples"] = static_cast<double>(o.queue_wait_ms.size());
  detail["layers"] = layers;
  Report(args, detail, failures, base.outcome.offered + o.offered,
         base.outcome.errored + o.errored, m);
  return failures.empty() ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--scale") {
      args.tiny = value == "tiny";
    } else if (flag == "--corrupt") {
      args.corrupt = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0.0;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  e2ebench::Args args;
  if (!e2ebench::ParseArgs(argc, argv, args)) {
    std::cerr << "usage: e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--scale full|tiny] [--corrupt lose|misattribute|hop-order]\n";
    return 2;
  }
  const std::optional<e2ebench::Workload> w = e2ebench::FindWorkload(args.workload, args.tiny);
  if (!w) {
    std::cerr << "e2ebench: unknown workload " << args.workload << "\n";
    return 2;
  }
  try {
    return args.trace ? e2ebench::RunTraced(*w, args) : e2ebench::RunEndToEnd(*w, args);
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: " << e.what() << "\n";
    return 1;
  }
}
