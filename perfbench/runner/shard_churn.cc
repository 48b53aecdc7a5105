// shard_churn: ShardedTagMatch with 2 shards x 2 replicas and hedged reads,
// read by a closed loop while one writer rolls a 1% slice of the database
// out and back in, plants a sentinel set, and consolidates, in a loop.
//
// Writer cycle j (j = 1, 2, ...): re-add slice j-1, remove slice j, add
// sentinel j, consolidate(), then query until sentinel j is seen. After
// cycle j only slice j is out. A read submitted while cycle s was current
// and finished while cycle e was current may see, per shard, any state from
// after cycle s-1 to after cycle e, so its result must equal the reference
// minus some of its matching entries in slices s-1..e — never anything else.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <iterator>
#include <memory>
#include <thread>

#include "runner/closed_loop.h"
#include "runner/common.h"
#include "src/common/stats.h"
#include "src/shard/sharded_tagmatch.h"

namespace perfbench {

namespace {

using tagmatch::shard::ShardedConfig;
using tagmatch::shard::ShardedTagMatch;

constexpr uint32_t kDefaultUsers = 50'000;
constexpr size_t kQueryPool = 4096;
constexpr size_t kWindow = 256;
constexpr std::chrono::milliseconds kBatchTimeout{5};
// Hedge a shard read once it has taken longer than the gather p95 of this
// workload with hedging off: 62-83 ms over four seeds on a 4-vCPU Xeon (the
// record's gather_p95_ms with a zero delay). A delay below the typical
// gather time hedges ordinary reads; the replica health machinery then
// quarantines healthy replicas in bursts, and throughput turns bimodal.
constexpr std::chrono::milliseconds kHedgeDelay{65};
constexpr int kSetupReps = 3;
constexpr uint64_t kTraceEvery = 16;
constexpr double kWarmupS = 1.0;
constexpr Key kSentinelKeyBase = 0x40000000;

struct Built {
  std::unique_ptr<ShardedTagMatch> engine;
  double setup_s = 0;
  double consolidate_s = 0;
};

Built build(const Workload& w, const ShardedConfig& config) {
  Built b;
  const int64_t t0 = tagmatch::now_ns();
  b.engine = std::make_unique<ShardedTagMatch>(config);
  for (size_t i = 0; i < w.size(); ++i) {
    b.engine->add_set(BloomFilter192(w.filters[i]), w.ops[i].key);
  }
  b.engine->consolidate();
  b.setup_s = seconds_since(t0);
  b.consolidate_s = b.engine->shard_stats().wall_consolidate_seconds;
  return b;
}

// The 1% slice cycle j rolls out: entries [(j-1)*S, j*S) modulo the database.
struct Slices {
  size_t n = 0, size = 0;
  bool contains(uint64_t cycle, uint32_t entry) const {
    if (cycle == 0) return false;
    const size_t begin = ((cycle - 1) * size) % n;
    const size_t offset = (entry + n - begin) % n;
    return offset < size;
  }
};

// True when `keys` equals the reference of `q` minus a sub-multiset of the
// keys of its matching entries that lie in slices [first, last].
bool check_churned(const Workload& w, const Slices& slices, size_t q, uint64_t first,
                   uint64_t last, std::vector<Key> keys) {
  std::sort(keys.begin(), keys.end());
  const std::vector<Key>& want = w.expected[q];
  if (keys == want) return true;
  if (!std::includes(want.begin(), want.end(), keys.begin(), keys.end())) return false;
  std::vector<Key> missing, removable;
  std::set_difference(want.begin(), want.end(), keys.begin(), keys.end(),
                      std::back_inserter(missing));
  for (uint32_t entry : w.matching[q]) {
    for (uint64_t c = first; c <= last; ++c) {
      if (slices.contains(c, entry)) {
        removable.push_back(w.ops[entry].key);
        break;
      }
    }
  }
  std::sort(removable.begin(), removable.end());
  return std::includes(removable.begin(), removable.end(), missing.begin(), missing.end());
}

struct Writer {
  std::atomic<uint64_t> cycle{0};  // cycles started
  std::atomic<bool> stop{false};
  std::vector<double> visibility_ms;
  std::vector<double> consolidate_s;
  uint64_t probes = 0;
  uint64_t invisible = 0;  // sentinels never seen
};

void writer_loop(ShardedTagMatch& tm, const Workload& w, const Slices& slices, Writer& out,
                 SpanLog* log) {
  for (uint64_t j = out.cycle.load() + 1; !out.stop.load(); ++j) {
    out.cycle.store(j);
    for (size_t i = 0; i < w.size(); ++i) {
      if (slices.contains(j - 1, static_cast<uint32_t>(i))) {
        tm.add_set(BloomFilter192(w.filters[i]), w.ops[i].key);
      }
    }
    for (size_t i = 0; i < w.size(); ++i) {
      if (slices.contains(j, static_cast<uint32_t>(i))) {
        tm.remove_set(BloomFilter192(w.filters[i]), w.ops[i].key);
      }
    }
    const BitVector192 sentinel = sentinel_filter(w, j);
    const Key key = kSentinelKeyBase + static_cast<Key>(j);
    const int64_t t0 = tagmatch::now_ns();
    tm.add_set(BloomFilter192(sentinel), key);
    const int64_t c0 = tagmatch::now_ns();
    tm.consolidate();
    const int64_t c1 = tagmatch::now_ns();
    out.consolidate_s.push_back(static_cast<double>(c1 - c0) / 1e9);
    if (log != nullptr) log->record({"consolidate", 0, 0, c0, c1});
    bool seen = false;
    for (int probe = 0; probe < 1000 && !seen; ++probe) {
      ++out.probes;
      // An async probe: a synchronous match() would flush(), which waits
      // out every read in flight.
      std::promise<std::vector<Key>> result;
      tm.match_result_async(BloomFilter192(sentinel), ShardedTagMatch::MatchKind::kMatch,
                            [&result](ShardedTagMatch::MatchResult r) {
                              result.set_value(std::move(r.keys));
                            });
      const auto keys = result.get_future().get();
      seen = std::find(keys.begin(), keys.end(), key) != keys.end();
    }
    if (seen) {
      out.visibility_ms.push_back(static_cast<double>(tagmatch::now_ns() - t0) / 1e6);
    } else {
      ++out.invisible;
    }
  }
}

}  // namespace

int run_shard_churn(const Args& args, Report& report) {
  const uint32_t users = args.users ? args.users : kDefaultUsers;
  const Workload w = make_workload(args.seed, users, kQueryPool);
  // Four replica engines with one pool worker each, plus the router's own
  // worker: five pool workers, the fewest this layout allows, since every
  // engine owns its pool and the router's is distinct (docs/CONCURRENCY.md,
  // blocking rules 2 and 3). One simulated GPU per replica.
  ShardedConfig config;
  config.num_shards = 2;
  config.num_replicas = 2;
  config.hedge_delay = kHedgeDelay;
  config.shard = bench_engine_config(w.size() / config.num_shards, 1);
  config.shard.num_gpus = 1;
  config.shard.batch_timeout = kBatchTimeout;
  const Slices slices{w.size(), std::max<size_t>(1, w.size() / 100)};
  report.stamp("users", users);
  report.stamp("sets", static_cast<double>(w.size()));
  report.stamp("query_pool", static_cast<double>(w.queries.size()));
  report.stamp("loop", "closed");
  report.stamp("window", static_cast<double>(kWindow));
  report.stamp("shards", config.num_shards);
  report.stamp("replicas", config.num_replicas);
  report.stamp("slice", static_cast<double>(slices.size));

  std::vector<double> setup_s, consolidate_s;
  Built built = build(w, config);
  setup_s.push_back(built.setup_s);
  consolidate_s.push_back(built.consolidate_s);
  ShardedTagMatch& tm = *built.engine;
  // The remaining set-ups, for the setup_s median, run after the measured
  // phases and after peak RSS is read (see engine_stream.cc).
  const auto more_setups = [&] {
    for (int rep = 1; rep < kSetupReps; ++rep) {
      const Built extra = build(w, config);
      setup_s.push_back(extra.setup_s);
      consolidate_s.push_back(extra.consolidate_s);
    }
  };

  Writer writer;
  ClosedLoop loop(
      w.queries.size(), kWindow,
      [&](size_t q, const tagmatch::obs::TraceContext& ctx, ClosedLoop::Done done) {
        auto cb = [done = std::move(done)](ShardedTagMatch::MatchResult r) {
          done(std::move(r.keys), r.partial);
        };
        if (ctx.valid()) {
          tm.match_result_async(BloomFilter192(w.queries[q]), ShardedTagMatch::MatchKind::kMatch,
                                0, ctx, std::move(cb));
        } else {
          tm.match_result_async(BloomFilter192(w.queries[q]), ShardedTagMatch::MatchKind::kMatch,
                                std::move(cb));
        }
      },
      [&](size_t q, uint64_t submitted_cycle, const std::vector<Key>& keys, bool partial) {
        if (partial) return false;
        const uint64_t first = submitted_cycle == 0 ? 0 : submitted_cycle - 1;
        return check_churned(w, slices, q, first, writer.cycle.load(), keys);
      },
      args.corrupt_every);
  loop.set_tag_source([&] { return writer.cycle.load(); });

  uint64_t attempted = 0, failed = 0;
  // One measured phase: the closed loop reads while the writer churns.
  const auto churn_phase = [&](SpanLog* log) {
    writer.stop = false;
    writer.visibility_ms.clear();
    writer.consolidate_s.clear();
    std::thread writer_thread([&] { writer_loop(tm, w, slices, writer, log); });
    ClosedLoop::Phase phase = loop.run(kWarmupS, args.seconds, log, kTraceEvery,
                                        [&] { return tm.metrics_snapshot(); });
    writer.stop = true;
    writer_thread.join();
    return phase;
  };

  const ProcSample proc_start = sample_proc();
  const ClosedLoop::Phase e2e = churn_phase(nullptr);
  const ProcSample proc_end = sample_proc();
  stamp_proc(report, "proc_start", proc_start);
  stamp_proc(report, "proc_end", proc_end);
  const std::vector<double> e2e_visibility = writer.visibility_ms;

  // Traced runs add a second phase with the benchmark's spans and a
  // TraceContext on sampled reads; a collector drains the span rings.
  SpanLog log(args.trace);
  ClosedLoop::Phase traced;
  double covered_frac = 0;
  size_t program_spans = 0;
  if (args.trace) {
    TraceCollector collector([&] { return tm.trace_snapshot(); });
    traced = churn_phase(&log);
    collector.stop();
    covered_frac = median_coverage(traced.roots, collector.by_trace());
    program_spans = collector.size();
  }

  // Final state: put the last slice back and check the whole pool exactly.
  const uint64_t last = writer.cycle.load();
  for (size_t i = 0; i < w.size(); ++i) {
    if (slices.contains(last, static_cast<uint32_t>(i))) {
      tm.add_set(BloomFilter192(w.filters[i]), w.ops[i].key);
    }
  }
  tm.consolidate();
  writer.cycle.store(0);  // no churn: results must match the reference exactly
  loop.verify_pool();
  attempted += loop.attempted() + writer.probes;
  failed += loop.failed() + writer.invisible;
  const double peak_rss_mb = sample_proc().vm_hwm_mb;
  more_setups();
  {
    // The gather tail and the replica health traffic behind it, for the
    // record: hedge_delay is set from the gather p95 (see kHedgeDelay).
    const RegistryDelta d{e2e.before, e2e.after};
    report.stamp("gather_p95_ms", d.histogram("stage.gather_ns").percentile(95) / 1e6);
    report.stamp("hedged", static_cast<double>(d.counter("replica.hedged")));
    report.stamp("failovers", static_cast<double>(d.counter("replica.failovers")));
  }
  report.stamp("churn_cycles", static_cast<double>(last));
  report.stamp("latency_samples", static_cast<double>(e2e.latency_ms.size()));
  report.stamp("visibility_samples", static_cast<double>(e2e_visibility.size()));

  if (!args.trace) {
    size_t traced_program_spans = 0;
    for (const auto& span : tm.trace_snapshot()) traced_program_spans += span.trace_id != 0;
    report.stamp("bench_spans", static_cast<double>(log.size()));
    report.stamp("traced_program_spans", static_cast<double>(traced_program_spans));
    report.metric("throughput_kqps", e2e.median_kqps(), "kq/s");
    report.metric("latency_p50_ms", e2e.latency_ms_at(50), "ms");
    report.metric("latency_p99_ms", e2e.latency_ms_at(99), "ms");
    report.metric("visibility_p50_ms", percentile(e2e_visibility, 50), "ms");
    report.metric("setup_s", percentile(setup_s, 50), "s");
    report.metric("peak_rss_mb", peak_rss_mb, "MB");
  } else {
    const ClosedLoop::Phase& phase = traced;
    const RegistryDelta d{phase.before, phase.after};
    // 4 replica engines x 1 worker + the router's worker.
    put_registry_layers(report, d, phase.completed, phase.seconds,
                        config.num_shards * config.num_replicas + 1, config.shard.batch_size);
    report.metric("core.submit_ns_p50", percentile(phase.submit_ns, 50), "ns");
    report.metric("core.submit_ns_p99", percentile(phase.submit_ns, 99), "ns");
    report.metric("core.consolidate_s", percentile(consolidate_s, 50), "s");
    report.metric("task.scaling_x", 0, "ratio");
    report.metric("shard.consolidate_s", percentile(writer.consolidate_s, 50), "s");
    report.metric("net.max_rate_qps", 0, "q/s");
    report.metric("net.pub_rtt_us_p50", 0, "us");
    report.metric("net.pub_rtt_us_p99", 0, "us");
    report.metric("net.deliver_residual_ms", 0, "ms");
    report.metric("net.fds_leaked", 0, "count");
    report.metric("net.threads_leaked", 0, "count");
    put_proc_metrics(report, proc_start, proc_end, e2e.completed);
    report.metric("gen.late_p99_ms", 0, "ms");
    report.metric("bench.residual_ms", phase.latency_ms_at(50) - stage_p50_sum_ms(d),
                  "ms");
    report.metric("bench.failed_frac",
                  attempted ? static_cast<double>(failed) / static_cast<double>(attempted) : 0,
                  "ratio");
    report.metric("trace.overhead_frac", 1.0 - phase.median_kqps() / e2e.median_kqps(), "ratio");
    report.metric("trace.covered_frac", covered_frac, "ratio");
    report.metric("trace.spans", static_cast<double>(log.size() + program_spans), "count");
  }
  report.attempted = attempted;
  report.failed = failed;
  return 0;
}

}  // namespace perfbench
