#include "runner/common.h"

#include <dirent.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <unordered_set>

#include "src/baselines/scan/scan_matchers.h"
#include "src/common/hash.h"
#include "src/common/stats.h"
#include "src/sig/signature_scheme.h"
#include "src/workload/tags.h"

namespace perfbench {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

bool parse_u64(const char* s, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') return false;
  *out = v;
  return true;
}

}  // namespace

// ------------------------------------------------------------ command line

bool parse_args(int argc, char** argv, Args* out) {
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", flag.c_str());
      return false;
    }
    const char* value = argv[++i];
    uint64_t n = 0;
    if (flag == "--workload") {
      out->workload = value;
      have_workload = true;
    } else if (flag == "--seed" && parse_u64(value, &n)) {
      out->seed = n;
      have_seed = true;
    } else if (flag == "--seconds" && parse_u64(value, &n) && n >= 1 && n <= 600) {
      out->seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (flag == "--trace" &&
               (std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0)) {
      out->trace = value[0] == '1';
      have_trace = true;
    } else if (flag == "--users" && parse_u64(value, &n) && n >= 100 && n <= 10'000'000) {
      out->users = static_cast<uint32_t>(n);
    } else if (flag == "--corrupt-every" && parse_u64(value, &n)) {
      out->corrupt_every = n;
    } else {
      std::fprintf(stderr, "perfbench: bad argument %s %s\n", flag.c_str(), value);
      return false;
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    std::fprintf(stderr,
                 "usage: perfbench_runner --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--users N] [--corrupt-every N]\n");
    return false;
  }
  return true;
}

// ------------------------------------------------------------------ record

void Report::metric(const std::string& name, double value, const std::string& unit) {
  metrics_.emplace_back(name, Metric{value, unit});
}

void Report::stamp(const std::string& key, const std::string& value) {
  stamps_.emplace_back(key, "\"" + json_escape(value) + "\"");
}

void Report::stamp(const std::string& key, double value) {
  stamps_.emplace_back(key, json_number(value));
}

bool Report::print() const {
  bool finite = true;
  for (const auto& [name, m] : metrics_) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: metric %s has no value (no samples)\n", name.c_str());
      finite = false;
    }
  }
  if (!finite) return false;
  std::string metrics = "{";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, m] = metrics_[i];
    metrics += (i ? ", \"" : "\"") + json_escape(name) + "\": {\"value\": " +
               json_number(m.value) + ", \"unit\": \"" + json_escape(m.unit) + "\"}";
  }
  metrics += "}";
  std::string stamps = "{";
  for (size_t i = 0; i < stamps_.size(); ++i) {
    stamps += (i ? ", \"" : "\"") + json_escape(stamps_[i].first) + "\": " + stamps_[i].second;
  }
  stamps += "}";
  const bool correct = failed == 0 && attempted > 0;
  std::printf("{\"record\": %s}\n", stamps.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  std::fflush(stdout);
  return true;
}

unsigned nproc() { return std::max(1u, std::thread::hardware_concurrency()); }

void stamp_host(Report& report, const Args& args) {
  std::string model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) model = line.substr(colon + 2);
      break;
    }
  }
  report.stamp("workload", args.workload);
  report.stamp("seed", static_cast<double>(args.seed));
  report.stamp("seconds", args.seconds);
  report.stamp("trace", args.trace ? 1.0 : 0.0);
  report.stamp("nproc", static_cast<double>(nproc()));
  report.stamp("cpu_model", model);
  report.stamp("build_type", PERFBENCH_BUILD_TYPE);
}

// --------------------------------------------------------------- sampling

double percentile(const std::vector<double>& v, double p) {
  tagmatch::SampleSet s;
  for (double x : v) s.record(x);
  return s.percentile(p);
}

std::vector<double> LatencySink::values_ms() const {
  std::vector<double> out(count());
  for (size_t i = 0; i < out.size(); ++i) out[i] = static_cast<double>(samples_[i].ns) / 1e6;
  return out;
}

std::vector<std::vector<double>> LatencySink::slices_ms() const {
  std::vector<std::vector<double>> out;
  for (size_t i = 0; i < count(); ++i) {
    const Sample& s = samples_[i];
    if (s.slice >= out.size()) out.resize(s.slice + 1);
    out[s.slice].push_back(static_cast<double>(s.ns) / 1e6);
  }
  std::erase_if(out, [](const std::vector<double>& v) { return v.empty(); });
  return out;
}

double slice_median(const std::vector<std::vector<double>>& slices, double p) {
  std::vector<double> per_slice;
  for (const auto& v : slices) per_slice.push_back(percentile(v, p));
  return percentile(per_slice, 50);
}

ProcSample sample_proc() {
  ProcSample s;
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    std::istringstream in(line);
    std::string key;
    int64_t value = 0;
    in >> key >> value;
    if (key == "Threads:") s.threads = value;
    if (key == "VmHWM:") s.vm_hwm_mb = static_cast<double>(value) / 1024.0;
    if (key == "VmSize:") s.vm_size_mb = static_cast<double>(value) / 1024.0;
  }
  if (DIR* dir = opendir("/proc/self/fd")) {
    while (dirent* e = readdir(dir)) {
      if (e->d_name[0] != '.') ++s.fds;
    }
    closedir(dir);
    --s.fds;  // the directory stream itself
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  s.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
  s.vol_ctx = ru.ru_nvcsw;
  s.invol_ctx = ru.ru_nivcsw;
  return s;
}

void stamp_proc(Report& report, const std::string& prefix, const ProcSample& s) {
  report.stamp(prefix + "_threads", static_cast<double>(s.threads));
  report.stamp(prefix + "_fds", static_cast<double>(s.fds));
  report.stamp(prefix + "_vm_hwm_mb", s.vm_hwm_mb);
  report.stamp(prefix + "_cpu_s", s.cpu_s);
  report.stamp(prefix + "_vol_ctx", static_cast<double>(s.vol_ctx));
  report.stamp(prefix + "_invol_ctx", static_cast<double>(s.invol_ctx));
}

void put_proc_metrics(Report& report, const ProcSample& start, const ProcSample& end,
                      uint64_t operations) {
  const double ops = static_cast<double>(std::max<uint64_t>(1, operations));
  report.metric("proc.cpu_s_per_kquery", (end.cpu_s - start.cpu_s) / ops * 1e3, "s");
  report.metric("proc.threads", static_cast<double>(end.threads), "count");
  report.metric("proc.ctx_switches_per_query",
                static_cast<double>((end.vol_ctx - start.vol_ctx) +
                                    (end.invol_ctx - start.invol_ctx)) /
                    ops,
                "count");
}

uint64_t RegistryDelta::counter(const std::string& name) const {
  const auto a = after.counters.find(name);
  if (a == after.counters.end()) return 0;
  const auto b = before.counters.find(name);
  return tagmatch::obs::counter_delta(a->second, b == before.counters.end() ? 0 : b->second);
}

tagmatch::obs::HistogramSnapshot RegistryDelta::histogram(const std::string& name) const {
  const auto a = after.histograms.find(name);
  if (a == after.histograms.end()) return {};
  const auto b = before.histograms.find(name);
  return b == before.histograms.end() ? a->second
                                      : tagmatch::obs::histogram_delta(a->second, b->second);
}

std::vector<tagmatch::obs::HistogramSnapshot> RegistryDelta::histograms_with_prefix(
    const std::string& prefix) const {
  std::vector<tagmatch::obs::HistogramSnapshot> out;
  for (const auto& [name, h] : after.histograms) {
    if (name.rfind(prefix, 0) == 0) out.push_back(histogram(name));
  }
  return out;
}

namespace {

double per(uint64_t n, uint64_t d) {
  return d == 0 ? 0 : static_cast<double>(n) / static_cast<double>(d);
}

constexpr const char* kPathStages[] = {"stage.enqueue_ns", "stage.prefilter_ns", "stage.h2d_ns",
                                       "stage.kernel_ns",  "stage.d2h_ns",       "stage.reduce_ns"};

}  // namespace

void put_registry_layers(Report& report, const RegistryDelta& d, uint64_t queries,
                         double window_s, unsigned workers, uint32_t batch_size) {
  using tagmatch::obs::HistogramSnapshot;
  const auto p = [&](const char* name, double pct) { return d.histogram(name).percentile(pct); };
  const auto busy_s = [&](const char* name) {
    return static_cast<double>(d.histogram(name).sum) / 1e9;
  };
  const uint64_t processed = d.counter("engine.queries_processed");

  // core: work per query, stage times, waste counts.
  report.metric("core.partitions_per_query",
                per(d.counter("engine.partitions_forwarded"), processed), "count");
  report.metric("core.result_pairs_per_query", per(d.counter("engine.result_pairs"), processed),
                "count");
  report.metric("core.prefilter_discard_ratio_p50", p("prefilter.discard_ratio", 50) / 10000.0,
                "ratio");
  report.metric("core.batch_fill",
                per(d.counter("engine.batch_queries"), d.counter("engine.batches_submitted")) /
                    static_cast<double>(batch_size),
                "ratio");
  report.metric("core.enqueue_ns_p50", p("stage.enqueue_ns", 50), "ns");
  report.metric("core.prefilter_ns_p50", p("stage.prefilter_ns", 50), "ns");
  report.metric("core.reduce_ns_p50", p("stage.reduce_ns", 50), "ns");
  report.metric("core.prefilter_busy_s", busy_s("stage.prefilter_ns"), "s");
  report.metric("core.reduce_busy_s", busy_s("stage.reduce_ns"), "s");
  report.metric("core.query_latency_ns_p50", p("query.latency_ns", 50), "ns");
  report.metric("core.query_latency_ns_p99", p("query.latency_ns", 99), "ns");
  report.metric("core.deadline_closes", static_cast<double>(d.counter("engine.deadline_closes")),
                "count");
  report.metric("core.overflow_batches", static_cast<double>(d.counter("engine.batch_overflows")),
                "count");
  report.metric("core.cpu_fallback_batches",
                static_cast<double>(d.counter("engine.cpu_fallback_batches")), "count");
  report.metric("core.stale_snapshot_batches",
                static_cast<double>(d.counter("engine.stale_snapshot_batches")), "count");
  report.metric("sig.encode_ns_p50", p("sig.encode_ns", 50), "ns");

  // gpusim: kernel time and transfers, per query.
  const HistogramSnapshot kernel = d.histogram("stage.kernel_ns");
  report.metric("gpusim.kernel_ns_p50", kernel.percentile(50), "ns");
  report.metric("gpusim.kernel_busy_s", busy_s("stage.kernel_ns"), "s");
  report.metric("gpusim.h2d_busy_s", busy_s("stage.h2d_ns"), "s");
  report.metric("gpusim.d2h_busy_s", busy_s("stage.d2h_ns"), "s");
  report.metric("gpusim.launches_per_query", per(kernel.count, queries), "count");
  report.metric("gpusim.h2d_bytes_per_query", per(d.counter("gpusim.h2d_bytes"), queries), "B");
  report.metric("gpusim.d2h_bytes_per_query", per(d.counter("gpusim.d2h_bytes"), queries), "B");

  // task: pool work, stealing and how evenly workers were busy.
  const uint64_t executed = d.counter("task.executed");
  report.metric("task.executed_per_query", per(executed, queries), "count");
  report.metric("task.stolen_frac", per(d.counter("task.stolen"), executed), "ratio");
  double busy_total = 0, busy_max = 0;
  size_t pools = 0;
  for (const auto& h : d.histograms_with_prefix("task.run_ns.w")) {
    const double s = static_cast<double>(h.sum) / 1e9;
    busy_total += s;
    busy_max = std::max(busy_max, s);
    ++pools;
  }
  report.metric("task.busy_frac",
                window_s > 0 && workers > 0 ? busy_total / (window_s * workers) : 0, "ratio");
  report.metric("task.busy_skew",
                busy_total > 0 ? busy_max / (busy_total / static_cast<double>(pools)) : 0, "ratio");

  // epoch: publications and reclamation backlog.
  report.metric("epoch.advances", static_cast<double>(d.counter("epoch.advances")), "count");
  const auto cumulative = [&](const char* name) {
    const auto it = d.after.counters.find(name);
    return it == d.after.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  report.metric("epoch.reclaim_lag", cumulative("epoch.retired") - cumulative("epoch.reclaimed"),
                "count");

  // shard + replica: gather times, hedging, degraded results.
  report.metric("shard.gather_ns_p50", p("stage.gather_ns", 50), "ns");
  report.metric("shard.gather_ns_p99", p("stage.gather_ns", 99), "ns");
  report.metric("replica.hedged_frac", per(d.counter("replica.hedged"), d.counter("shard.queries")),
                "ratio");
  report.metric("replica.failovers", static_cast<double>(d.counter("replica.failovers")), "count");
  report.metric("replica.repairs", static_cast<double>(d.counter("replica.repairs")), "count");
  report.metric("shard.partial_results", static_cast<double>(d.counter("shard.partial_results")),
                "count");

  // broker: publish-to-delivery time and fan-out.
  report.metric("broker.publish_latency_ns_p50", p("broker.publish_latency_ns", 50), "ns");
  report.metric("broker.publish_latency_ns_p99", p("broker.publish_latency_ns", 99), "ns");
  report.metric("broker.deliveries_per_publish",
                per(d.counter("broker.deliveries"), d.counter("broker.published")), "count");
  report.metric("broker.dropped", static_cast<double>(d.counter("broker.dropped")), "count");
  report.metric("broker.consolidations", static_cast<double>(d.counter("broker.consolidations")),
                "count");
}

double stage_p50_sum_ms(const RegistryDelta& d) {
  // The outermost span the program records on the path: the broker's
  // publish-to-delivery time, else the shard gather (which encloses the
  // shard engines' stages), else the single engine's stage chain.
  for (const char* outer : {"broker.publish_latency_ns", "stage.gather_ns"}) {
    const auto h = d.histogram(outer);
    if (h.count > 0) return h.percentile(50) / 1e6;
  }
  double ns = 0;
  for (const char* name : kPathStages) {
    const auto h = d.histogram(name);
    if (h.count > 0) ns += h.percentile(50);
  }
  return ns / 1e6;
}

double seconds_since(int64_t start_ns) {
  return static_cast<double>(tagmatch::now_ns() - start_ns) / 1e9;
}

// ------------------------------------------------------------- span log

void SpanLog::record(BenchSpan span) {
  if (!enabled_) return;
  std::lock_guard lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<BenchSpan> SpanLog::spans() const {
  std::lock_guard lock(mu_);
  return spans_;
}

size_t SpanLog::size() const {
  std::lock_guard lock(mu_);
  return spans_.size();
}

TraceCollector::TraceCollector(SnapshotFn fn)
    : fn_(std::move(fn)), poller_([this] {
        while (!stopping_.load()) {
          poll();
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      }) {}

void TraceCollector::stop() {
  if (!poller_.joinable()) return;
  stopping_ = true;
  poller_.join();
  poll();
}

void TraceCollector::poll() {
  for (const auto& span : fn_()) {
    if (span.trace_id == 0 || !seen_.insert(span.span_id).second) continue;
    by_trace_[span.trace_id].push_back(span);
  }
}

double median_coverage(const std::vector<BenchSpan>& roots,
                       const std::map<uint64_t, std::vector<tagmatch::obs::Span>>& children) {
  std::vector<double> fractions;
  for (const auto& root : roots) {
    const auto it = children.find(root.trace_id);
    if (it == children.end() || root.end_ns <= root.start_ns) continue;
    std::vector<std::pair<int64_t, int64_t>> iv;
    for (const auto& s : it->second) {
      const int64_t a = std::max(s.start_ns, root.start_ns);
      const int64_t b = std::min(s.end_ns, root.end_ns);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0, cur_a = 0, cur_b = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (open) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    }
    if (open) covered += cur_b - cur_a;
    fractions.push_back(static_cast<double>(covered) /
                        static_cast<double>(root.end_ns - root.start_ns));
  }
  return percentile(fractions, 50);
}

// -------------------------------------------------------- workload + oracle

namespace {

struct FilterKeyHash {
  size_t operator()(const std::pair<BitVector192, Key>& e) const {
    return static_cast<size_t>(tagmatch::mix64(e.first.hash() + e.second));
  }
};

}  // namespace

Workload make_workload(uint64_t seed, uint32_t users, size_t pool) {
  // The bench suite's scaled Twitter configuration, copied from
  // BenchWorkload::make_config in bench/bench_common.h on purpose rather
  // than included, so that a change under bench/ cannot move this
  // benchmark: a large vocabulary with a flattened Zipf head keeps
  // interests selective.
  tagmatch::workload::WorkloadConfig c;
  c.seed = seed;
  c.num_users = users;
  c.num_publishers = std::max(200u, users / 2);
  c.vocabulary_size = std::max(1000u, users * 4);
  c.tag_zipf = 0.8;
  tagmatch::workload::TwitterWorkload gen(c);

  Workload w;
  auto raw = gen.generate_database();
  w.query_ops = gen.generate_queries(raw, pool, 2, 4);
  std::unordered_set<std::pair<BitVector192, Key>, FilterKeyHash> seen;
  seen.reserve(raw.size());
  for (auto& op : raw) {
    const BitVector192 f = tagmatch::workload::encode_tags(op.tags).bits();
    if (!seen.emplace(f, op.key).second) continue;  // the engine dedupes (filter, key)
    w.filters.push_back(f);
    w.ops.push_back(std::move(op));
  }
  for (const auto& q : w.query_ops) {
    w.queries.push_back(tagmatch::workload::encode_tags(q.tags).bits());
  }

  // Brute-force reference: the baseline linear scan over every entry.
  tagmatch::baselines::LinearScanMatcher scan;
  for (size_t i = 0; i < w.size(); ++i) scan.add(w.filters[i], static_cast<Key>(i));
  w.expected.resize(w.queries.size());
  w.matching.resize(w.queries.size());
  const unsigned threads = std::min<unsigned>(nproc(), 4);
  std::vector<std::thread> pool_threads;
  for (unsigned t = 0; t < threads; ++t) {
    pool_threads.emplace_back([&, t] {
      for (size_t q = t; q < w.queries.size(); q += threads) {
        std::vector<Key> idx = scan.match(w.queries[q]);
        std::sort(idx.begin(), idx.end());
        std::vector<Key> keys;
        keys.reserve(idx.size());
        for (Key i : idx) keys.push_back(w.ops[i].key);
        std::sort(keys.begin(), keys.end());
        w.expected[q] = std::move(keys);
        w.matching[q].assign(idx.begin(), idx.end());
      }
    });
  }
  for (auto& t : pool_threads) t.join();
  return w;
}

BitVector192 sentinel_filter(const Workload& w, uint64_t n) {
  // Language 127 never occurs in generated tags (the generator has 12
  // languages); four tags make a chance subset of a pool query negligible,
  // and the loop below rules it out.
  for (uint64_t attempt = 0;; ++attempt) {
    std::vector<tagmatch::workload::TagId> tags;
    for (uint32_t i = 0; i < 4; ++i) {
      tags.push_back(tagmatch::workload::make_hashtag(
          127, static_cast<uint32_t>((n * 64 + attempt * 4 + i) & 0xffffff)));
    }
    const BitVector192 f = tagmatch::workload::encode_tags(tags).bits();
    bool hits = false;
    for (const auto& q : w.queries) {
      if (f.subset_of(q)) {
        hits = true;
        break;
      }
    }
    if (!hits) return f;
  }
}

tagmatch::TagMatchConfig bench_engine_config(size_t db_size, unsigned workers) {
  // Copied from bench_engine_config in bench/bench_common.h on purpose, for
  // the same reason as the workload configuration above.
  tagmatch::TagMatchConfig c;
  c.num_threads = workers;
  c.num_workers = workers;
  c.max_partition_size = std::max<uint32_t>(256, static_cast<uint32_t>(db_size / 200));
  c.num_gpus = 2;
  c.streams_per_gpu = 10;
  c.gpu_sms_per_device = 2;
  c.signature_scheme = &tagmatch::sig::bloom192_scheme();
  return c;
}

}  // namespace perfbench
