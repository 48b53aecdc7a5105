// Closed-loop load generator shared by engine_stream, cpu_only_stream and
// shard_churn: one submitter keeps a fixed window of queries outstanding
// over the workload's query pool and checks every result it gets back.
#ifndef PERFBENCH_RUNNER_CLOSED_LOOP_H_
#define PERFBENCH_RUNNER_CLOSED_LOOP_H_

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "runner/common.h"
#include "src/common/stats.h"

namespace perfbench {

class ClosedLoop {
 public:
  // Hands query `q` to the system under test; `done` must be invoked exactly
  // once with the keys and whether the result is partial.
  using Done = std::function<void(std::vector<Key>, bool partial)>;
  using Submit = std::function<void(size_t q, const tagmatch::obs::TraceContext& ctx, Done done)>;
  // Returns true when the result of query `q`, submitted while the tag
  // source read `tag` (see set_tag_source), is correct.
  using Check = std::function<bool(size_t q, uint64_t tag, const std::vector<Key>& keys,
                                   bool partial)>;

  struct Phase {
    double seconds = 0;
    uint64_t completed = 0;  // completions inside the measured window
    std::vector<double> latency_ms;
    std::vector<std::vector<double>> latency_slices_ms;
    std::vector<double> slice_kqps;  // completions per slice
    std::vector<double> submit_ns;   // traced phases only
    std::vector<BenchSpan> roots;    // traced phases only
    tagmatch::obs::MetricsSnapshot before, after;
    // Medians over slices: the figures the benchmark reports.
    double median_kqps() const { return percentile(slice_kqps, 50); }
    double latency_ms_at(double p) const { return slice_median(latency_slices_ms, p); }
  };

  // The submitter refills the window in chunks of window/8: it sleeps while
  // the window is full and is woken once a chunk has completed, so waking it
  // costs the pipeline's callbacks one notify per chunk, not one per query.
  ClosedLoop(size_t pool, size_t window, Submit submit, Check check, uint64_t corrupt_every)
      : pool_(pool), window_(window), low_water_(window - std::max<size_t>(1, window / 8)),
        submit_(std::move(submit)), check_(std::move(check)), corrupt_every_(corrupt_every) {}

  // Tag stamped on each query at submit time and handed to Check (shard_churn
  // stamps the writer's cycle number).
  void set_tag_source(std::function<uint64_t()> fn) { tag_source_ = std::move(fn); }

  // Warms up for `warmup_s`, then measures for `seconds`, then drains every
  // outstanding query. With `log` enabled, one measured query in
  // `trace_every` carries a TraceContext and gets a root span, and every
  // submit call is timed. `snapshot` reads the program's registry at the
  // window edges.
  Phase run(double warmup_s, double seconds, SpanLog* log, uint64_t trace_every,
            const std::function<tagmatch::obs::MetricsSnapshot()>& snapshot) {
    Phase phase;
    const bool traced = log != nullptr && log->enabled();
    const int64_t start = tagmatch::now_ns();
    Window w(start + static_cast<int64_t>(warmup_s * 1e9), seconds, traced ? log : nullptr);
    bool measuring = false;
    while (true) {
      wait_for_slot();
      const int64_t now = tagmatch::now_ns();
      if (!measuring && now >= w.start_ns) {
        measuring = true;
        phase.before = snapshot();
      }
      if (now >= w.end_ns) break;
      const uint64_t seq = next_seq_++;
      tagmatch::obs::TraceContext ctx;
      if (traced && measuring && seq % trace_every == 0) {
        ctx = {tagmatch::obs::new_trace_id(), tagmatch::obs::new_span_id(), true};
      }
      const size_t q = static_cast<size_t>(seq % pool_);
      Done done = make_done(q, seq, now, measuring ? &w : nullptr, ctx);
      if (traced) {
        const int64_t t0 = tagmatch::now_ns();
        submit_(q, ctx, std::move(done));
        const int64_t t1 = tagmatch::now_ns();
        phase.submit_ns.push_back(static_cast<double>(t1 - t0));
        if (ctx.valid()) log->record({"submit", ctx.trace_id, 0, t0, t1});
      } else {
        submit_(q, ctx, std::move(done));
      }
    }
    phase.after = snapshot();
    phase.seconds = static_cast<double>(w.end_ns - w.start_ns) / 1e9;
    drain();
    phase.completed = w.completed.load();
    phase.latency_ms = w.latency.values_ms();
    phase.latency_slices_ms = w.latency.slices_ms();
    for (size_t i = 0; i < w.slice_done.size(); ++i) {
      const double len = std::min(kSliceS, phase.seconds - static_cast<double>(i) * kSliceS);
      if (len >= kSliceS / 2) {
        phase.slice_kqps.push_back(static_cast<double>(w.slice_done[i]) / len / 1e3);
      }
    }
    if (traced) {
      for (const auto& s : log->spans()) {
        if (s.name == "query") phase.roots.push_back(s);
      }
    }
    return phase;
  }

  // Submits every pool query once with the current tag, waits for all of
  // them, and returns how many failed the check.
  uint64_t verify_pool() {
    const uint64_t failed_before = failed();
    for (size_t q = 0; q < pool_; ++q) {
      wait_for_slot();
      submit_(q, {}, make_done(q, next_seq_++, tagmatch::now_ns(), nullptr, {}));
    }
    drain();
    return failed() - failed_before;
  }

  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }

 private:
  // Bookkeeping of one measured window, written by the callbacks of the
  // queries submitted inside it; run() drains them all before it returns.
  struct Window {
    Window(int64_t start, double seconds, SpanLog* log)
        : start_ns(start), end_ns(start + static_cast<int64_t>(seconds * 1e9)),
          latency(static_cast<size_t>(seconds * 200'000) + 1024),
          slice_done(static_cast<size_t>(std::ceil(seconds / kSliceS))), log(log) {}
    const int64_t start_ns, end_ns;
    LatencySink latency;
    std::vector<std::atomic<uint64_t>> slice_done;
    std::atomic<uint64_t> completed{0};
    SpanLog* const log;
  };

  Done make_done(size_t q, uint64_t seq, int64_t submitted, Window* w,
                 tagmatch::obs::TraceContext ctx) {
    outstanding_.fetch_add(1);
    attempted_.fetch_add(1);
    const uint64_t tag = tag_source_ ? tag_source_() : 0;
    auto fired = std::make_shared<std::atomic<bool>>(false);
    return [this, q, seq, tag, submitted, w, ctx, fired](std::vector<Key> keys, bool partial) {
      if (fired->exchange(true)) {  // a second callback for one query
        failed_.fetch_add(1);
        return;
      }
      const int64_t end = tagmatch::now_ns();
      if (corrupt_every_ != 0 && seq % corrupt_every_ == 0) keys.push_back(0xdeadbeef);
      const bool ok = check_(q, tag, keys, partial);
      if (w != nullptr && end <= w->end_ns) {
        const auto slice =
            static_cast<uint32_t>(static_cast<double>(end - w->start_ns) / (kSliceS * 1e9));
        w->latency.record(end - submitted, slice);
        w->completed.fetch_add(1, std::memory_order_relaxed);
        if (slice < w->slice_done.size()) {
          w->slice_done[slice].fetch_add(1, std::memory_order_relaxed);
        }
      }
      if (ctx.valid() && w != nullptr && w->log != nullptr) {
        w->log->record({"query", ctx.trace_id, ctx.parent_span_id, submitted, end});
      }
      if (!ok) failed_.fetch_add(1);
      // Decrement under the lock: once it is released, drain() may return
      // and the loop be destroyed, so nothing of `this` is touched after.
      std::lock_guard lock(mu_);
      const size_t left = outstanding_.fetch_sub(1) - 1;
      if (left == low_water_ || left == 0) cv_.notify_all();
    };
  }

  // Returns once the window has room: at once while it is not full, else
  // after it has drained to the low-water mark.
  void wait_for_slot() {
    if (outstanding_.load() < window_) return;
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&] { return outstanding_.load() <= low_water_; });
  }

  // Blocks until every submitted query has called back. A query that never
  // calls back breaks the engine's exactly-once contract; the callbacks
  // still reference this loop, so the run cannot go on and the process ends.
  void drain() {
    std::unique_lock lock(mu_);
    if (!cv_.wait_for(lock, std::chrono::seconds(60), [&] { return outstanding_.load() == 0; })) {
      std::fprintf(stderr, "perfbench: %zu queries never called back\n", outstanding_.load());
      std::_Exit(3);
    }
  }

  const size_t pool_;
  const size_t window_;
  const size_t low_water_;
  Submit submit_;
  Check check_;
  const uint64_t corrupt_every_;
  std::function<uint64_t()> tag_source_;
  uint64_t next_seq_ = 0;  // submitter thread only

  std::atomic<size_t> outstanding_{0};
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  std::mutex mu_;
  std::condition_variable cv_;
};

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_CLOSED_LOOP_H_
