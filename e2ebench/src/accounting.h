// Per-run accounting and correctness checks over the request records.
//
// Open-loop accounting: requests()[i] is the request generated for
// arrivals[i], and latency and goodput are timed from that scheduled send
// time, not from Request::sent. In the serve runtime `sent` is the instant
// the load generator actually injected the request, so timing from it would
// hide every stall of the generator.
#ifndef E2EBENCH_ACCOUNTING_H_
#define E2EBENCH_ACCOUNTING_H_

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "obs/drop_reason.h"
#include "pipeline/pipeline_spec.h"
#include "runtime/request.h"

namespace e2ebench {

struct Outcome {
  std::size_t offered = 0;
  // Completed within the SLO, timed from the scheduled send.
  std::size_t good = 0;
  // Completed within the SLO by the program's own clock (from `sent`).
  std::size_t program_good = 0;
  std::size_t dropped = 0;
  // Lost (never terminal), misattributed (kNone on a drop, or a reason on a
  // completion), out of generation order, or with a hop whose timestamps
  // are out of order.
  std::size_t errored = 0;
  std::array<std::size_t, pard::kNumDropReasons> drops_by_reason{};
  std::size_t hops_executed = 0;
  // Samples, milliseconds / microseconds.
  std::vector<double> good_latency_ms;  // Good requests, from schedule.
  std::vector<double> queue_wait_ms;    // Executed hops: arrive -> batch entry.
  std::vector<double> batch_wait_ms;    // Executed hops: batch entry -> start.
  std::vector<double> ingress_lag_us;   // sent - scheduled, every request.
  double gpu_total_us = 0.0;
  double gpu_wasted_us = 0.0;           // On requests that did not finish good.
  // Human-readable descriptions of failed checks (empty = all passed).
  std::vector<std::string> failures;

  double Goodput() const { return offered == 0 ? 0.0 : double(good) / double(offered); }
  double WastedGpuShare() const {
    return gpu_total_us <= 0.0 ? 0.0 : gpu_wasted_us / gpu_total_us;
  }
  // This outcome without its sample vectors.
  Outcome CountsOnly() const {
    Outcome counts = *this;
    counts.good_latency_ms = {};
    counts.queue_wait_ms = {};
    counts.batch_wait_ms = {};
    counts.ingress_lag_us = {};
    return counts;
  }
  // Outcome identity for determinism/parity checks: good count and every
  // per-reason drop count.
  bool SameCounts(const Outcome& other) const {
    return offered == other.offered && program_good == other.program_good &&
           drops_by_reason == other.drops_by_reason;
  }
};

// Accounts a finished run and runs every per-run check:
//   - mapping: one request per arrival, ids in generation order, and (in the
//     simulator) sent == scheduled;
//   - conservation: every request terminal, program_good + sum of drops by
//     reason == offered, no kNone attribution on a drop;
//   - per executed hop: arrive <= batch_entry <= exec_start <= exec_end;
//   - agreement with RunAnalysis: good, dropped and per-reason counts, and
//     its invalid rate against our wasted-GPU share.
Outcome Account(const std::vector<pard::RequestPtr>& requests,
                const std::vector<pard::SimTime>& arrivals, const pard::PipelineSpec& spec,
                bool simulator);

// Quantile of `values` by linear interpolation (q in [0, 1]); 0 if empty.
// Sorts `values` in place.
double Quantile(std::vector<double>& values, double q);
double Median(std::vector<double> values);

}  // namespace e2ebench

#endif  // E2EBENCH_ACCOUNTING_H_
