// Outside-in timing of the decision layer, used by traced runs only.
//
// TimedPolicy wraps any DropPolicy and TimedView wraps the PolicyView it
// hands out, so every call the runtimes make into the policy is counted and
// timed without touching the program. Both forward every virtual unchanged:
// a traced simulator run must make exactly the decisions an untraced run
// makes, and a traced serve run must stay on the lock-free snapshot path.
//
// Serve brokers and workers call the view concurrently, so per-call tallies
// are relaxed atomics; they stay in memory and are read when the run ends.
// The sync-path calls (OnSync, RefreshEstimates, MakeView) come from one
// thread at a time: the simulator thread, or the serve control thread after
// the constructor's initial MakeView.
#ifndef E2EBENCH_TIMING_SHIM_H_
#define E2EBENCH_TIMING_SHIM_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "runtime/drop_policy.h"

namespace e2ebench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class Call { kShouldDrop, kPopSide, kAdmit, kOnSync, kRefresh, kMakeView };
inline constexpr int kNumCalls = 6;

struct CallTally {
  std::atomic<std::int64_t> calls{0};
  std::atomic<std::int64_t> ns{0};
  // ShouldDrop answered true, or AdmitAtModule answered false.
  std::atomic<std::int64_t> rejections{0};

  double MeanNs() const {
    const std::int64_t n = calls.load(std::memory_order_relaxed);
    return n == 0 ? 0.0 : static_cast<double>(ns.load(std::memory_order_relaxed)) / n;
  }
};

struct CallLog {
  std::array<CallTally, kNumCalls> tally;
  std::int64_t views_built = 0;
  std::int64_t null_views = 0;
  pard::PolicyRefreshStats refresh_total;

  CallTally& operator[](Call c) { return tally[static_cast<std::size_t>(c)]; }
  const CallTally& operator[](Call c) const { return tally[static_cast<std::size_t>(c)]; }

  std::int64_t TotalNs() const {
    std::int64_t total = 0;
    for (const CallTally& t : tally) {
      total += t.ns.load(std::memory_order_relaxed);
    }
    return total;
  }

  template <typename F>
  auto Time(Call c, F&& body) {
    const std::int64_t t0 = NowNs();
    auto result = body();
    const std::int64_t t1 = NowNs();
    CallTally& t = (*this)[c];
    t.calls.fetch_add(1, std::memory_order_relaxed);
    t.ns.fetch_add(t1 - t0, std::memory_order_relaxed);
    return result;
  }

  // Times a yes/no decision and counts the answers equal to `rejecting`.
  template <typename F>
  bool Decide(Call c, bool rejecting, F&& body) {
    const bool answer = Time(c, body);
    if (answer == rejecting) {
      (*this)[c].rejections.fetch_add(1, std::memory_order_relaxed);
    }
    return answer;
  }
};

class TimedView final : public pard::PolicyView {
 public:
  TimedView(std::shared_ptr<const pard::PolicyView> inner, CallLog* log)
      : inner_(std::move(inner)), log_(log) {}

  bool ShouldDrop(const pard::AdmissionContext& ctx) const override {
    return log_->Decide(Call::kShouldDrop, true, [&] { return inner_->ShouldDrop(ctx); });
  }
  pard::PopSide ChoosePopSide(int module_id, pard::SimTime now) const override {
    return log_->Time(Call::kPopSide, [&] { return inner_->ChoosePopSide(module_id, now); });
  }
  bool AdmitAtModule(const pard::Request& request, int module_id, pard::SimTime now,
                     pard::Rng* rng) const override {
    return log_->Decide(Call::kAdmit, false, [&] {
      return inner_->AdmitAtModule(request, module_id, now, rng);
    });
  }
  bool NeedsAdmissionRng() const override { return inner_->NeedsAdmissionRng(); }

 private:
  std::shared_ptr<const pard::PolicyView> inner_;
  CallLog* log_;
};

class TimedPolicy final : public pard::DropPolicy {
 public:
  TimedPolicy(pard::DropPolicy* inner, CallLog* log) : inner_(inner), log_(log) {}

  void Bind(const pard::PipelineSpec* spec, const pard::StateBoard* board) override {
    DropPolicy::Bind(spec, board);
    inner_->Bind(spec, board);
  }
  bool ShouldDrop(const pard::AdmissionContext& ctx) override {
    return log_->Decide(Call::kShouldDrop, true, [&] { return inner_->ShouldDrop(ctx); });
  }
  pard::PopSide ChoosePopSide(int module_id, pard::SimTime now) override {
    return log_->Time(Call::kPopSide, [&] { return inner_->ChoosePopSide(module_id, now); });
  }
  bool AdmitAtModule(const pard::Request& request, int module_id, pard::SimTime now) override {
    return log_->Decide(Call::kAdmit, false,
                        [&] { return inner_->AdmitAtModule(request, module_id, now); });
  }
  bool PurgeExpired() const override { return inner_->PurgeExpired(); }
  void OnSync(pard::SimTime now) override {
    log_->Time(Call::kOnSync, [&] {
      inner_->OnSync(now);
      return 0;
    });
  }
  pard::PolicyRefreshStats RefreshEstimates(pard::ThreadPool* pool) override {
    const pard::PolicyRefreshStats stats =
        log_->Time(Call::kRefresh, [&] { return inner_->RefreshEstimates(pool); });
    log_->refresh_total.refreshed += stats.refreshed;
    log_->refresh_total.skipped += stats.skipped;
    return stats;
  }
  std::shared_ptr<const pard::PolicyView> MakeView() override {
    std::shared_ptr<const pard::PolicyView> view =
        log_->Time(Call::kMakeView, [&] { return inner_->MakeView(); });
    if (view == nullptr) {
      ++log_->null_views;
      return nullptr;
    }
    ++log_->views_built;
    return std::make_shared<TimedView>(std::move(view), log_);
  }
  std::string Name() const override { return inner_->Name(); }

 private:
  pard::DropPolicy* inner_;
  CallLog* log_;
};

}  // namespace e2ebench

#endif  // E2EBENCH_TIMING_SHIM_H_
