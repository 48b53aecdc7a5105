// engine_stream and cpu_only_stream: one TagMatch engine under a closed
// loop. engine_stream runs the paper's hybrid pipeline (prefilter, simulated
// GPU H2D/kernel/D2H, reduce); cpu_only_stream matches the same queries with
// cpu_only = true, so the task pool's CPU fan-out does the subset match and
// gpusim is bypassed.
#include <algorithm>
#include <chrono>
#include <memory>

#include "runner/closed_loop.h"
#include "runner/common.h"
#include "src/common/stats.h"
#include "src/core/tagmatch.h"

namespace perfbench {

namespace {

using tagmatch::TagMatch;
using tagmatch::TagMatchConfig;

constexpr uint32_t kDefaultUsers = 50'000;
constexpr size_t kQueryPool = 4096;
// Outstanding queries: enough to fill batches and keep every stream busy.
constexpr size_t kWindow = 4096;
// Partial batches are closed after this long, so a closed loop never waits
// on a batch that no later query will fill.
constexpr std::chrono::milliseconds kBatchTimeout{5};
constexpr int kSetupReps = 3;
constexpr int kVisibilityReps = 9;
constexpr uint64_t kTraceEvery = 64;
constexpr double kWarmupS = 1.0;
constexpr Key kSentinelKeyBase = 0x40000000;

struct Built {
  std::unique_ptr<TagMatch> engine;
  double setup_s = 0;
  double consolidate_s = 0;
};

// Index build as a user pays it: construct, stage every set, consolidate.
Built build(const Workload& w, const TagMatchConfig& config) {
  Built b;
  const int64_t t0 = tagmatch::now_ns();
  b.engine = std::make_unique<TagMatch>(config);
  for (size_t i = 0; i < w.size(); ++i) {
    b.engine->add_set(BloomFilter192(w.filters[i]), w.ops[i].key);
  }
  b.engine->consolidate();
  b.setup_s = seconds_since(t0);
  b.consolidate_s = b.engine->stats().last_consolidate_seconds;
  return b;
}

ClosedLoop::Phase run_phase(TagMatch& tm, const Workload& w, const Args& args, SpanLog* log,
                            uint64_t* attempted, uint64_t* failed) {
  ClosedLoop loop(
      w.queries.size(), kWindow,
      [&](size_t q, const tagmatch::obs::TraceContext& ctx, ClosedLoop::Done done) {
        auto cb = [done = std::move(done)](std::vector<Key> keys) { done(std::move(keys), false); };
        if (ctx.valid()) {
          tm.match_async(BloomFilter192(w.queries[q]), TagMatch::MatchKind::kMatch, 0, ctx,
                         std::move(cb));
        } else {
          tm.match_async(BloomFilter192(w.queries[q]), TagMatch::MatchKind::kMatch, std::move(cb));
        }
      },
      [&](size_t q, uint64_t, std::vector<Key> keys, bool partial) {
        std::sort(keys.begin(), keys.end());
        return !partial && keys == w.expected[q];
      },
      args.corrupt_every);
  auto phase = loop.run(kWarmupS, args.seconds, log, kTraceEvery,
                        [&] { return tm.metrics_snapshot(); });
  *attempted += loop.attempted();
  *failed += loop.failed();
  return phase;
}

// Stage a fresh set, consolidate, and query until the set is seen.
double visibility_ms(TagMatch& tm, const Workload& w, uint64_t n, uint64_t* attempted,
                     uint64_t* failed) {
  const BitVector192 sentinel = sentinel_filter(w, n);
  const Key key = kSentinelKeyBase + static_cast<Key>(n);
  const int64_t t0 = tagmatch::now_ns();
  tm.add_set(BloomFilter192(sentinel), key);
  tm.consolidate();
  for (int probe = 0; probe < 1000; ++probe) {
    ++*attempted;
    const auto keys = tm.match(BloomFilter192(sentinel));
    if (std::find(keys.begin(), keys.end(), key) != keys.end()) {
      return static_cast<double>(tagmatch::now_ns() - t0) / 1e6;
    }
  }
  ++*failed;  // consolidate() returned but the set never became visible
  return static_cast<double>(tagmatch::now_ns() - t0) / 1e6;
}

int run_engine(const Args& args, Report& report, bool cpu_only) {
  const uint32_t users = args.users ? args.users : kDefaultUsers;
  const Workload w = make_workload(args.seed, users, kQueryPool);
  const unsigned workers = nproc();
  TagMatchConfig config = bench_engine_config(w.size(), workers);
  config.cpu_only = cpu_only;
  config.batch_timeout = kBatchTimeout;
  report.stamp("users", users);
  report.stamp("sets", static_cast<double>(w.size()));
  report.stamp("query_pool", static_cast<double>(w.queries.size()));
  report.stamp("loop", "closed");
  report.stamp("window", static_cast<double>(kWindow));
  report.stamp("workers", workers);
  report.stamp("batch_timeout_ms", static_cast<double>(kBatchTimeout.count()));

  std::vector<double> setup_s, consolidate_s;
  Built built = build(w, config);
  setup_s.push_back(built.setup_s);
  consolidate_s.push_back(built.consolidate_s);
  TagMatch& tm = *built.engine;
  // The remaining set-ups, for the setup_s median, run after the measured
  // phases and after peak RSS is read: repeated set-up in one process
  // leaves allocator state behind that would otherwise show as RSS.
  const auto more_setups = [&] {
    for (int rep = 1; rep < kSetupReps; ++rep) {
      const Built extra = build(w, config);
      setup_s.push_back(extra.setup_s);
      consolidate_s.push_back(extra.consolidate_s);
    }
  };

  uint64_t attempted = 0, failed = 0;
  const ProcSample proc_start = sample_proc();
  const ClosedLoop::Phase e2e = run_phase(tm, w, args, nullptr, &attempted, &failed);
  const ProcSample proc_end = sample_proc();
  stamp_proc(report, "proc_start", proc_start);
  stamp_proc(report, "proc_end", proc_end);

  if (!args.trace) {
    std::vector<double> vis;
    for (int rep = 0; rep < kVisibilityReps; ++rep) {
      vis.push_back(visibility_ms(tm, w, static_cast<uint64_t>(rep), &attempted, &failed));
    }
    // An untraced run records no spans of its own and hands the engine no
    // trace context, so none of the engine's spans carry a trace id.
    size_t traced_program_spans = 0;
    for (const auto& span : tm.trace_snapshot()) traced_program_spans += span.trace_id != 0;
    report.stamp("bench_spans", 0.0);
    report.stamp("traced_program_spans", static_cast<double>(traced_program_spans));
    report.stamp("latency_samples", static_cast<double>(e2e.latency_ms.size()));
    const double peak_rss_mb = sample_proc().vm_hwm_mb;
    more_setups();
    report.metric("throughput_kqps", e2e.median_kqps(), "kq/s");
    report.metric("latency_p50_ms", e2e.latency_ms_at(50), "ms");
    report.metric("latency_p99_ms", e2e.latency_ms_at(99), "ms");
    report.metric("visibility_p50_ms", percentile(vis, 50), "ms");
    report.metric("setup_s", percentile(setup_s, 50), "s");
    report.metric("peak_rss_mb", peak_rss_mb, "MB");
  } else {
    // Traced phase: a TraceContext on one query in kTraceEvery joins the
    // engine's stage spans to the benchmark's root span; a collector drains
    // the engine's bounded span ring while the phase runs.
    SpanLog log(true);
    TraceCollector collector([&] { return tm.trace_snapshot(); });
    const ClosedLoop::Phase traced = run_phase(tm, w, args, &log, &attempted, &failed);
    collector.stop();

    double scaling_x = 0;
    if (cpu_only) {
      // Single-worker baseline on the same database and loop.
      TagMatchConfig one = config;
      one.num_workers = 1;
      one.num_threads = 1;
      Built single = build(w, one);
      const ClosedLoop::Phase base = run_phase(*single.engine, w, args, nullptr, &attempted,
                                               &failed);
      scaling_x = base.median_kqps() > 0 ? e2e.median_kqps() / base.median_kqps() : 0;
    }

    more_setups();
    const RegistryDelta d{traced.before, traced.after};
    put_registry_layers(report, d, traced.completed, traced.seconds, workers, config.batch_size);
    report.metric("core.submit_ns_p50", percentile(traced.submit_ns, 50), "ns");
    report.metric("core.submit_ns_p99", percentile(traced.submit_ns, 99), "ns");
    report.metric("core.consolidate_s", percentile(consolidate_s, 50), "s");
    report.metric("task.scaling_x", scaling_x, "ratio");
    report.metric("shard.consolidate_s", 0, "s");
    report.metric("net.max_rate_qps", 0, "q/s");
    report.metric("net.pub_rtt_us_p50", 0, "us");
    report.metric("net.pub_rtt_us_p99", 0, "us");
    report.metric("net.deliver_residual_ms", 0, "ms");
    report.metric("net.fds_leaked", 0, "count");
    report.metric("net.threads_leaked", 0, "count");
    put_proc_metrics(report, proc_start, proc_end, e2e.completed);
    report.metric("gen.late_p99_ms", 0, "ms");
    report.metric("bench.residual_ms",
                  traced.latency_ms_at(50) - stage_p50_sum_ms(d), "ms");
    report.metric("bench.failed_frac",
                  attempted ? static_cast<double>(failed) / static_cast<double>(attempted) : 0,
                  "ratio");
    report.metric("trace.overhead_frac", 1.0 - traced.median_kqps() / e2e.median_kqps(), "ratio");
    report.metric("trace.covered_frac", median_coverage(traced.roots, collector.by_trace()),
                  "ratio");
    report.metric("trace.spans", static_cast<double>(log.size() + collector.size()), "count");
    report.stamp("traced_roots", static_cast<double>(traced.roots.size()));
  }
  report.attempted = attempted;
  report.failed = failed;
  return 0;
}

}  // namespace

int run_engine_stream(const Args& args, Report& report) { return run_engine(args, report, false); }

int run_cpu_only_stream(const Args& args, Report& report) {
  return run_engine(args, report, true);
}

}  // namespace perfbench
