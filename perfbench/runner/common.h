// Shared plumbing of the TagMatch benchmark runner: command line, the
// workload and its brute-force reference, latency samples, /proc and
// getrusage sampling, registry deltas, the benchmark's own span log and the
// result record printed on stdout.
//
// The runner measures the program from outside: it calls the public API of
// each module (TagMatch, ShardedTagMatch, Broker, BrokerServer/BrokerClient),
// reads the counters and histograms the program exports through
// metrics_snapshot(), and reads /proc/self and getrusage. Nothing here
// reaches into src/ internals.
#ifndef PERFBENCH_RUNNER_COMMON_H_
#define PERFBENCH_RUNNER_COMMON_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "src/bloom/bloom_filter.h"
#include "src/common/bit_vector.h"
#include "src/core/config.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/workload/twitter_workload.h"

namespace perfbench {

using tagmatch::BitVector192;
using tagmatch::BloomFilter192;
using Key = uint32_t;

// ------------------------------------------------------------ command line

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Workload scale. The defaults are the benchmark's; self-tests shrink them.
  uint32_t users = 0;  // 0 = the workload's default
  // Self-test hook: the benchmark corrupts one in every N results it
  // receives before checking them (0 = never), proving the check bites.
  uint64_t corrupt_every = 0;
};

// Parses argv; returns false (after printing why on stderr) on bad input.
bool parse_args(int argc, char** argv, Args* out);

// ------------------------------------------------------------------ record

// What one run prints. The last stdout line is the contract object
// {"correct","attempted","failed","metrics"}; the line before it is the
// full record: host/scale stamp, sample counts and the metrics again.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void stamp(const std::string& key, const std::string& value);
  void stamp(const std::string& key, double value);

  uint64_t attempted = 0;
  uint64_t failed = 0;

  // Prints the record line and the result line on stdout. A metric that is
  // not a finite number (a percentile of no samples) fails the run: print()
  // then names it on stderr, prints nothing on stdout and returns false.
  bool print() const;

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  std::vector<std::pair<std::string, Metric>> metrics_;
  std::vector<std::pair<std::string, std::string>> stamps_;  // value is JSON
};

// nproc, CPU model, build type, seed, scale and the run's knobs.
void stamp_host(Report& report, const Args& args);

// --------------------------------------------------------------- sampling

// Order statistics over a vector of samples (SampleSet's linear
// interpolation). An empty set gives NaN, which Report::print refuses.
double percentile(const std::vector<double>& v, double p);

// Thread-safe latency sink with a fixed capacity: recording never
// allocates, so it is safe from pipeline callbacks. Each sample carries the
// index of the one-second slice of the measured window it completed in.
class LatencySink {
 public:
  explicit LatencySink(size_t capacity) : samples_(capacity) {}
  void record(int64_t ns, uint32_t slice) {
    const size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i < samples_.size()) samples_[i] = {ns, slice};
  }
  std::vector<double> values_ms() const;
  // Samples grouped by slice (slices without samples are left out).
  std::vector<std::vector<double>> slices_ms() const;
  size_t count() const { return std::min(next_.load(), samples_.size()); }
  void reset() { next_ = 0; }

 private:
  struct Sample {
    int64_t ns = 0;
    uint32_t slice = 0;
  };
  std::vector<Sample> samples_;
  std::atomic<size_t> next_{0};
};

// Run-level statistics are medians over one-second slices of the measured
// window, so a burst of contention from outside the process moves a few
// slices and not the reported figure.
constexpr double kSliceS = 1.0;
// Median over slices of the p-th percentile within each slice.
double slice_median(const std::vector<std::vector<double>>& slices, double p);

// One reading of /proc/self and getrusage.
struct ProcSample {
  int64_t threads = 0;
  int64_t fds = 0;
  double vm_hwm_mb = 0;
  double vm_size_mb = 0;
  double cpu_s = 0;  // user + system
  int64_t vol_ctx = 0;
  int64_t invol_ctx = 0;
};
ProcSample sample_proc();
// Puts a sample into the record as <prefix>_threads, <prefix>_fds, ...
void stamp_proc(Report& report, const std::string& prefix, const ProcSample& s);

// Counter / histogram deltas between two snapshots of one registry.
struct RegistryDelta {
  tagmatch::obs::MetricsSnapshot before, after;
  uint64_t counter(const std::string& name) const;
  tagmatch::obs::HistogramSnapshot histogram(const std::string& name) const;
  // The deltas of every histogram whose name starts with `prefix`.
  std::vector<tagmatch::obs::HistogramSnapshot> histograms_with_prefix(
      const std::string& prefix) const;
};

// ------------------------------------------------------------- span log

// The benchmark's own spans (traced runs only), recorded around each call
// into a layer. Kept in memory; its size is reported in the record.
struct BenchSpan {
  std::string name;
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  void record(BenchSpan span);
  std::vector<BenchSpan> spans() const;
  size_t size() const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<BenchSpan> spans_;
};

// Polls a program's trace ring every 2 ms on a thread of its own, from
// construction until stop(), and keeps every span that joined one of the
// benchmark's traces (trace_id != 0). The ring is bounded, so it is read
// often enough not to lose sampled traces.
class TraceCollector {
 public:
  using SnapshotFn = std::function<std::vector<tagmatch::obs::Span>()>;
  explicit TraceCollector(SnapshotFn fn);
  ~TraceCollector() { stop(); }
  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  // Joins the poller and reads the ring one last time. Idempotent.
  void stop();
  // Program spans grouped by trace id; valid after stop().
  const std::map<uint64_t, std::vector<tagmatch::obs::Span>>& by_trace() const { return by_trace_; }
  size_t size() const { return seen_.size(); }

 private:
  void poll();

  SnapshotFn fn_;
  std::map<uint64_t, std::vector<tagmatch::obs::Span>> by_trace_;
  std::unordered_set<uint64_t> seen_;  // span ids already kept
  std::atomic<bool> stopping_{false};
  std::thread poller_;
};

// Fraction of each root span covered by the union of the program spans of
// its trace (clipped to the root), median over roots that have any child.
double median_coverage(const std::vector<BenchSpan>& roots,
                       const std::map<uint64_t, std::vector<tagmatch::obs::Span>>& children);

// -------------------------------------------------------- workload + oracle

// The Twitter workload at the benchmark's scale, deduplicated to unique
// (filter, key) entries — the engine's set semantics — plus a pool of
// queries (a database set + 2..4 extra tags) and, per pool query, the
// brute-force reference answer from the baseline linear scan.
struct Workload {
  std::vector<tagmatch::workload::AddOp> ops;  // unique entries, generator order
  std::vector<BitVector192> filters;           // aligned with ops
  std::vector<tagmatch::workload::QueryOp> query_ops;
  std::vector<BitVector192> queries;
  // Reference, aligned with queries: the sorted key multiset and the
  // matching entry indices.
  std::vector<std::vector<Key>> expected;
  std::vector<std::vector<uint32_t>> matching;

  size_t size() const { return ops.size(); }
};

// Generates the workload for `seed` at `users`, with `pool` queries.
Workload make_workload(uint64_t seed, uint32_t users, size_t pool);

// A set under fresh tags (outside the generator's vocabulary) that matches
// none of the pool queries, for write-visibility probes; `n` picks one of
// many.
BitVector192 sentinel_filter(const Workload& w, uint64_t n);

// The engine configuration of the paper's platform at bench scale: 2
// simulated GPUs x 10 streams, MAX_P = db/200 (the measured knee).
tagmatch::TagMatchConfig bench_engine_config(size_t db_size, unsigned workers);

// --------------------------------------------------------------- workloads

int run_engine_stream(const Args& args, Report& report);
int run_cpu_only_stream(const Args& args, Report& report);
int run_shard_churn(const Args& args, Report& report);
int run_wire_pubsub(const Args& args, Report& report);

// Helpers shared by the workload files.
double seconds_since(int64_t start_ns);
// Emits every per-layer metric derived from the program's own registry
// (core, gpusim, task, epoch, shard, broker layers) over a measured window
// of `queries` operations lasting `window_s` on `workers` pool workers. A
// layer the workload bypasses reads 0.
void put_registry_layers(Report& report, const RegistryDelta& d, uint64_t queries,
                         double window_s, unsigned workers, uint32_t batch_size);
// The part of the end-to-end latency the program's own spans account for,
// in ms: the p50 of the outermost span it records on the path (broker
// publish latency, else shard gather), else the sum of the engine's stage
// p50s. bench.residual_ms is the end-to-end p50 minus this.
double stage_p50_sum_ms(const RegistryDelta& d);
void put_proc_metrics(Report& report, const ProcSample& start, const ProcSample& end,
                      uint64_t operations);
unsigned nproc();

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_COMMON_H_
