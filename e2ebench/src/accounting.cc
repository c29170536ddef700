#include "accounting.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "metrics/analysis.h"

namespace e2ebench {

namespace {

constexpr std::size_t kMaxListedFailures = 5;

void Fail(Outcome& out, std::size_t& listed, const std::string& what) {
  if (listed++ < kMaxListedFailures) {
    out.failures.push_back(what);
  }
}

bool HopsInOrder(const pard::Request& r) {
  for (const pard::HopRecord& h : r.hops) {
    if (!h.executed) {
      continue;
    }
    if (!(h.arrive >= 0 && h.arrive <= h.batch_entry && h.batch_entry <= h.exec_start &&
          h.exec_start <= h.exec_end)) {
      return false;
    }
  }
  return true;
}

}  // namespace

Outcome Account(const std::vector<pard::RequestPtr>& requests,
                const std::vector<pard::SimTime>& arrivals, const pard::PipelineSpec& spec,
                bool simulator) {
  Outcome out;
  std::size_t listed = 0;
  out.offered = arrivals.size();
  if (requests.size() != arrivals.size()) {
    std::ostringstream msg;
    msg << "mapping: " << requests.size() << " request records for " << arrivals.size()
        << " arrivals";
    Fail(out, listed, msg.str());
    out.errored += requests.size() > arrivals.size() ? requests.size() - arrivals.size()
                                                     : arrivals.size() - requests.size();
  }
  const std::size_t n = std::min(requests.size(), arrivals.size());
  out.good_latency_ms.reserve(n);
  out.ingress_lag_us.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const pard::Request& r = *requests[i];
    const pard::SimTime scheduled = arrivals[i];
    bool ok = true;
    if (r.id != i + 1 || (simulator && r.sent != scheduled)) {
      Fail(out, listed, "mapping: record " + std::to_string(i) + " has id " +
                            std::to_string(r.id) + ", not generation order");
      ok = false;
    }
    if (!r.Terminal()) {
      Fail(out, listed, "conservation: request " + std::to_string(r.id) + " never terminal");
      ok = false;
    } else if (r.Good() != (r.drop_reason == pard::DropReason::kNone)) {
      Fail(out, listed, "conservation: request " + std::to_string(r.id) + " misattributed (" +
                            pard::DropReasonName(r.drop_reason) + ")");
      ok = false;
    }
    if (!HopsInOrder(r)) {
      Fail(out, listed, "hop order: request " + std::to_string(r.id));
      ok = false;
    }
    if (!ok) {
      ++out.errored;
      continue;
    }
    out.ingress_lag_us.push_back(static_cast<double>(r.sent - scheduled));
    const double gpu = static_cast<double>(r.TotalGpuTime());
    out.gpu_total_us += gpu;
    if (r.Good()) {
      ++out.program_good;
      const pard::Duration latency = r.finish - scheduled;
      if (latency <= r.slo) {
        ++out.good;
        out.good_latency_ms.push_back(static_cast<double>(latency) / 1000.0);
      }
    } else {
      ++out.dropped;
      ++out.drops_by_reason[static_cast<std::size_t>(r.drop_reason)];
      out.gpu_wasted_us += gpu;
    }
    for (const pard::HopRecord& h : r.hops) {
      if (h.executed) {
        ++out.hops_executed;
        out.queue_wait_ms.push_back(static_cast<double>(h.QueueDelay()) / 1000.0);
        out.batch_wait_ms.push_back(static_cast<double>(h.BatchWait()) / 1000.0);
      }
    }
  }
  if (out.program_good + out.dropped + out.errored != out.offered) {
    Fail(out, listed, "conservation: good + dropped + errored != offered");
  }

  // Cross-check with the program's own analysis of the same records.
  const pard::RunAnalysis analysis(requests, spec);
  const std::vector<std::size_t> reasons = analysis.DropReasonCounts();
  bool agrees = analysis.GoodCount() == out.program_good &&
                analysis.DroppedCount() == out.dropped &&
                std::abs(analysis.InvalidRate() - out.WastedGpuShare()) < 1e-9;
  for (int k = 0; k < pard::kNumDropReasons; ++k) {
    agrees = agrees && reasons[static_cast<std::size_t>(k)] ==
                           out.drops_by_reason[static_cast<std::size_t>(k)];
  }
  if (out.errored == 0 && !agrees) {
    Fail(out, listed, "analysis: RunAnalysis counts disagree with the records");
  }
  return out;
}

double Quantile(std::vector<double>& values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

}  // namespace e2ebench
