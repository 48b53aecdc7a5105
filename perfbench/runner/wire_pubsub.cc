// wire_pubsub: an in-process Broker (default config: 20 ms batch timeout)
// behind a BrokerServer on loopback. Two subscriber connections hold the
// subscriptions (one per database entry, split by user parity); one
// publisher connection sends PUB on a fixed schedule (open loop). A fixed-
// rate phase is followed by a short rate ladder, and a low fixed rate of
// short-lived PING connections runs alongside. The ladder runs in traced
// runs only (net.max_rate_qps): near capacity its pass/fail verdict flips
// with contention from outside the process, so it is not gated.
//
// Latency runs from a PUB's *scheduled* time to MSG receipt at the
// subscriber connection, so a generator stall counts. The expected
// deliveries of every PUB come from a brute-force tag-subset check.
#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "runner/common.h"
#include "src/baselines/scan/scan_matchers.h"
#include "src/broker/broker.h"
#include "src/common/stats.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/sig/signature_scheme.h"
#include "src/workload/tags.h"

namespace perfbench {

namespace {

using tagmatch::broker::Broker;
using tagmatch::broker::BrokerConfig;
using tagmatch::net::BrokerClient;
using tagmatch::net::BrokerServer;

constexpr uint32_t kDefaultUsers = 4'000;
constexpr size_t kMessagePool = 4096;
constexpr double kFixedRate = 2'000;                     // PUB/s
constexpr double kLadder[] = {6'000, 12'000, 24'000};  // PUB/s, after the fixed phase
constexpr double kRungS = 1.5;  // traced runs only
constexpr double kLatencyLimitMs = 100;
constexpr double kPingRate = 5;  // short-lived connections per second
constexpr int kSetupReps = 3;
constexpr int kVisibilityReps = 15;
constexpr uint64_t kTraceEvery = 16;
constexpr auto kDrain = std::chrono::seconds(3);

std::vector<std::string> tag_strings(const std::vector<tagmatch::workload::TagId>& tags) {
  std::vector<std::string> out;
  for (auto t : tags) out.push_back(tagmatch::workload::tag_name(t));
  return out;
}

// Broker + server + the two subscriber connections, subscriptions loaded.
struct Deployment {
  std::unique_ptr<Broker> broker;
  std::unique_ptr<BrokerServer> server;
  BrokerClient subscriber[2];
  uint64_t failed_subs = 0;
};

std::unique_ptr<Deployment> deploy(const Workload& w, bool tracing, double* setup_s) {
  const int64_t t0 = tagmatch::now_ns();
  auto d = std::make_unique<Deployment>();
  BrokerConfig config;
  config.engine.num_workers = nproc();
  config.engine.signature_scheme = bench_engine_config(w.size(), nproc()).signature_scheme;
  config.tracing = tracing;
  d->broker = std::make_unique<Broker>(config);
  d->server = std::make_unique<BrokerServer>(d->broker.get(), 0);
  for (auto& c : d->subscriber) {
    if (!c.connect(d->server->port())) ++d->failed_subs;
  }
  for (size_t i = 0; i < w.size(); ++i) {
    if (!d->subscriber[w.ops[i].key & 1].subscribe(tag_strings(w.ops[i].tags))) ++d->failed_subs;
  }
  d->broker->flush();
  *setup_s = seconds_since(t0);
  return d;
}

// Per-PUB bookkeeping of one open-loop run.
struct Ledger {
  Ledger(uint64_t base, size_t n)
      : base(base), scheduled(n), expected(n), received(n), duplicate(n) {}
  const uint64_t base;  // global sequence number of entry 0
  std::vector<int64_t> scheduled;
  std::vector<uint8_t> expected;  // bit c: connection c must get one MSG
  std::vector<std::atomic<uint8_t>> received;
  std::vector<std::atomic<uint8_t>> duplicate;
};

// Receives MSGs on both subscriber connections until stopped. Stream MSGs
// carry "p<seq>"; visibility probes carry "v<rep>".
class Receivers {
 public:
  Receivers(Deployment& d, size_t capacity) : latency_(capacity) {
    for (int c = 0; c < 2; ++c) {
      threads_.emplace_back([this, &d, c] { loop(d.subscriber[c], c); });
    }
  }
  ~Receivers() { stop(); }

  void attach(Ledger* ledger, SpanLog* log, const std::vector<uint64_t>* trace_ids) {
    std::lock_guard lock(mu_);
    ledger_ = ledger;
    log_ = log;
    trace_ids_ = trace_ids;
    if (ledger != nullptr) latency_.reset();
  }
  void stop() {
    stopping_ = true;
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
  }
  std::vector<double> latency_ms() const { return latency_.values_ms(); }
  std::vector<std::vector<double>> latency_slices_ms() const { return latency_.slices_ms(); }
  std::atomic<int64_t> visible_rep{-1};
  std::atomic<int64_t> visible_ns{0};
  std::atomic<uint64_t> unexpected{0};  // MSGs the benchmark never published
  std::atomic<uint64_t> stray{0};       // MSGs of a phase that already ended

 private:
  void loop(BrokerClient& client, int c) {
    while (!stopping_) {
      auto msg = client.receive(std::chrono::milliseconds(20));
      if (!msg) continue;
      const int64_t now = tagmatch::now_ns();
      const std::string& p = msg->payload;
      uint64_t number = 0;
      const bool numbered =
          p.size() > 1 &&
          std::from_chars(p.data() + 1, p.data() + p.size(), number).ptr == p.data() + p.size();
      if (numbered && p[0] == 'v') {
        const auto rep = static_cast<int64_t>(number);
        if (c == 0 && rep == visible_rep.load()) {
          int64_t zero = 0;
          visible_ns.compare_exchange_strong(zero, now);
        }
        continue;
      }
      if (!numbered || p[0] != 'p') {
        unexpected.fetch_add(1);
        continue;
      }
      std::lock_guard lock(mu_);
      const uint64_t global = number;
      if (ledger_ == nullptr || global < ledger_->base ||
          global - ledger_->base >= ledger_->scheduled.size()) {
        // A MSG of an earlier phase arriving after that phase gave up on
        // it (already counted missing there).
        stray.fetch_add(1);
        continue;
      }
      const size_t seq = static_cast<size_t>(global - ledger_->base);
      const uint8_t bit = static_cast<uint8_t>(1u << c);
      if (ledger_->received[seq].fetch_or(bit) & bit) {
        ledger_->duplicate[seq].fetch_or(bit);
      }
      const int64_t since_start = ledger_->scheduled[seq] - ledger_->scheduled[0];
      latency_.record(now - ledger_->scheduled[seq],
                      static_cast<uint32_t>(static_cast<double>(since_start) / (kSliceS * 1e9)));
      if (log_ != nullptr && (*trace_ids_)[seq] != 0) {
        log_->record({"msg", (*trace_ids_)[seq], 0, ledger_->scheduled[seq], now});
      }
    }
  }

  std::mutex mu_;
  Ledger* ledger_ = nullptr;
  SpanLog* log_ = nullptr;
  const std::vector<uint64_t>* trace_ids_ = nullptr;
  LatencySink latency_;
  std::atomic<bool> stopping_{false};
  std::vector<std::thread> threads_;
};

struct OpenLoopResult {
  double rate = 0;       // achieved PUB/s
  uint64_t published = 0;
  uint64_t failed = 0;   // PUBs with an error or a wrong delivery set
  std::vector<double> latency_ms;
  std::vector<std::vector<double>> latency_slices_ms;
  std::vector<double> late_ms;
  std::vector<double> rtt_us;
  double final_late_ms = 0;
  std::vector<BenchSpan> roots;
  tagmatch::obs::MetricsSnapshot before, after;
  double seconds = 0;
  bool meets_limit() const {
    return failed == 0 && percentile(latency_ms, 99) <= kLatencyLimitMs &&
           final_late_ms <= kLatencyLimitMs;
  }
};

// Publishes `rate` PUB/s for `seconds` on `pub`, then waits for every
// expected MSG (or kDrain). One PUB in kTraceEvery is traced when `log`
// is enabled.
OpenLoopResult open_loop(Deployment& d, BrokerClient& pub, Receivers& rx,
                         const std::vector<std::vector<std::string>>& messages,
                         const std::vector<uint8_t>& expected, double rate, double seconds,
                         SpanLog* log, uint64_t seq_base, uint64_t corrupt_every) {
  OpenLoopResult r;
  const size_t n = static_cast<size_t>(rate * seconds);
  Ledger ledger(seq_base, n);
  std::vector<uint64_t> trace_ids(n, 0);
  const bool traced = log != nullptr && log->enabled();
  rx.attach(&ledger, traced ? log : nullptr, &trace_ids);
  r.before = d.broker->metrics_snapshot();
  const int64_t start = tagmatch::now_ns() + 1'000'000;
  const double period_ns = 1e9 / rate;
  for (size_t i = 0; i < n; ++i) {
    const size_t m = static_cast<size_t>((seq_base + i) % messages.size());
    ledger.expected[i] = expected[m];
    ledger.scheduled[i] = start + static_cast<int64_t>(static_cast<double>(i) * period_ns);
  }
  int64_t last_send = start;
  for (size_t i = 0; i < n; ++i) {
    const size_t m = static_cast<size_t>((seq_base + i) % messages.size());
    while (tagmatch::now_ns() < ledger.scheduled[i]) {
      const int64_t wait = ledger.scheduled[i] - tagmatch::now_ns();
      if (wait > 200'000) std::this_thread::sleep_for(std::chrono::nanoseconds(wait - 100'000));
    }
    const int64_t t0 = tagmatch::now_ns();
    r.late_ms.push_back(static_cast<double>(t0 - ledger.scheduled[i]) / 1e6);
    bool ok;
    const std::string payload = "p" + std::to_string(seq_base + i);
    if (traced && i % kTraceEvery == 0) {
      trace_ids[i] = tagmatch::obs::new_trace_id();
      ok = pub.publish_traced(messages[m], payload, trace_ids[i], tagmatch::obs::new_span_id());
    } else {
      ok = pub.publish(messages[m], payload);
    }
    last_send = tagmatch::now_ns();
    r.rtt_us.push_back(static_cast<double>(last_send - t0) / 1e3);
    if (traced && trace_ids[i] != 0) log->record({"pub", trace_ids[i], 0, t0, last_send});
    if (!ok) ++r.failed;
  }
  r.final_late_ms = r.late_ms.empty() ? 0 : r.late_ms.back();
  r.published = n;
  r.seconds = static_cast<double>(last_send - start) / 1e9;
  r.rate = r.seconds > 0 ? static_cast<double>(n) / r.seconds : 0;
  r.after = d.broker->metrics_snapshot();

  // Drain: wait until every expected MSG arrived, or give up after kDrain.
  const auto deadline = std::chrono::steady_clock::now() + kDrain;
  const auto all_in = [&] {
    for (size_t i = 0; i < n; ++i) {
      if ((ledger.received[i].load() & ledger.expected[i]) != ledger.expected[i]) return false;
    }
    return true;
  };
  while (!all_in() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));  // late extras
  rx.attach(nullptr, nullptr, nullptr);
  r.latency_ms = rx.latency_ms();
  r.latency_slices_ms = rx.latency_slices_ms();
  for (size_t i = 0; i < n; ++i) {
    uint8_t got = ledger.received[i].load();
    if (corrupt_every != 0 && (seq_base + i) % corrupt_every == 0) got ^= 1;
    if (got != ledger.expected[i] || ledger.duplicate[i].load() != 0) ++r.failed;
  }
  if (traced) {
    for (const auto& s : log->spans()) {
      if (s.name == "msg") r.roots.push_back(s);
    }
  }
  return r;
}

// Short-lived connections: connect, PING, close, at kPingRate.
class PingChurn {
 public:
  explicit PingChurn(uint16_t port)
      : thread_([this, port] {
          const int64_t period = static_cast<int64_t>(1e9 / kPingRate);
          int64_t next = tagmatch::now_ns();
          while (!stop_) {
            BrokerClient c;
            ++attempted;
            if (!c.connect(port) || !c.ping()) ++failed;
            c.close();
            next += period;
            while (!stop_ && tagmatch::now_ns() < next) {
              std::this_thread::sleep_for(std::chrono::milliseconds(2));
            }
          }
        }) {}
  ~PingChurn() { stop(); }
  void stop() {
    stop_ = true;
    if (thread_.joinable()) thread_.join();
  }
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace

int run_wire_pubsub(const Args& args, Report& report) {
  const uint32_t users = args.users ? args.users : kDefaultUsers;
  const Workload w = make_workload(args.seed, users, kMessagePool);
  // Reference deliveries: the broker matches string tags on their Bloom
  // signatures (false positives included), so the brute-force scan runs
  // over the same signatures of the same strings.
  const auto& scheme = tagmatch::sig::bloom192_scheme();
  tagmatch::baselines::LinearScanMatcher scan;
  for (size_t i = 0; i < w.size(); ++i) {
    scan.add(scheme.encode(tag_strings(w.ops[i].tags)), static_cast<Key>(i));
  }
  std::vector<std::vector<std::string>> messages;
  std::vector<uint8_t> expected(w.queries.size(), 0);
  for (size_t q = 0; q < w.queries.size(); ++q) {
    messages.push_back(tag_strings(w.query_ops[q].tags));
    scan.match(scheme.encode(messages.back()), [&](Key entry) {
      expected[q] |= static_cast<uint8_t>(1u << (w.ops[entry].key & 1));
    });
  }
  const double fixed_s = args.seconds;
  report.stamp("users", users);
  report.stamp("subscriptions", static_cast<double>(w.size()));
  report.stamp("message_pool", static_cast<double>(messages.size()));
  report.stamp("loop", "open");
  report.stamp("fixed_rate_qps", kFixedRate);
  report.stamp("ladder_qps", "6000,12000,24000");
  report.stamp("latency_limit_ms", kLatencyLimitMs);
  report.stamp("ping_rate", kPingRate);

  std::vector<double> setup_s(1);
  std::unique_ptr<Deployment> d = deploy(w, false, &setup_s[0]);
  uint64_t attempted = w.size(), failed = d->failed_subs;
  // The remaining set-ups, for the setup_s median, run after the measured
  // phases and after peak RSS is read: repeated set-up in one process
  // leaves allocator state behind that would otherwise show as RSS.
  const auto more_setups = [&] {
    for (int rep = 1; rep < kSetupReps; ++rep) {
      double s = 0;
      auto extra = deploy(w, false, &s);
      setup_s.push_back(s);
      attempted += w.size();
      failed += extra->failed_subs;
    }
  };

  BrokerClient pub;
  if (!pub.connect(d->server->port())) return 4;
  auto rx = std::make_unique<Receivers>(
      *d, static_cast<size_t>(std::max(kFixedRate * args.seconds, kLadder[2] * kRungS)) * 2);
  // Short-lived connections run through the fixed-rate phase.
  const ProcSample proc_start = sample_proc();
  auto pings = std::make_unique<PingChurn>(d->server->port());
  uint64_t seq_base = 0;
  const auto run = [&](Deployment& dep, BrokerClient& p, Receivers& r, double rate, double secs,
                       SpanLog* log) {
    OpenLoopResult res = open_loop(dep, p, r, messages, expected, rate, secs, log, seq_base,
                                   args.corrupt_every);
    seq_base += res.published;
    return res;
  };
  const OpenLoopResult fixed = run(*d, pub, *rx, kFixedRate, fixed_s, nullptr);
  attempted += fixed.published;
  failed += fixed.failed;

  // Every short-lived connection is closed by now; whatever fds and threads
  // the process gained since proc_start, the server kept.
  pings->stop();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const ProcSample proc_end = sample_proc();
  stamp_proc(report, "proc_start", proc_start);
  stamp_proc(report, "proc_end", proc_end);
  attempted += pings->attempted;
  failed += pings->failed;
  const uint64_t ping_count = pings->attempted;
  report.stamp("short_lived_connections", static_cast<double>(ping_count));
  report.stamp("vm_size_growth_mb", proc_end.vm_size_mb - proc_start.vm_size_mb);

  if (!args.trace) {
    // Visibility: SUB under fresh tags, then one PUB of them; the broker
    // promises the subscription is effective for messages published after
    // SUB returns, so that PUB's MSG must land.
    std::vector<double> vis;
    for (int rep = 0; rep < kVisibilityReps; ++rep) {
      const std::vector<std::string> tags = {"sentinel" + std::to_string(rep) + "a",
                                             "sentinel" + std::to_string(rep) + "b"};
      rx->visible_ns = 0;
      rx->visible_rep = rep;
      const int64_t t0 = tagmatch::now_ns();
      ++attempted;
      if (!d->subscriber[0].subscribe(tags)) ++failed;
      if (!pub.publish(tags, "v" + std::to_string(rep))) ++failed;
      while (rx->visible_ns.load() == 0 && seconds_since(t0) < 1.0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      const int64_t seen = rx->visible_ns.load();
      if (seen == 0) ++failed;
      vis.push_back(static_cast<double>((seen ? seen : tagmatch::now_ns()) - t0) / 1e6);
    }
    const double peak_rss_mb = sample_proc().vm_hwm_mb;
    failed += rx->unexpected;
    report.stamp("stray_msgs", static_cast<double>(rx->stray));
    more_setups();

    report.stamp("latency_samples", static_cast<double>(fixed.latency_ms.size()));
    report.stamp("bench_spans", 0.0);
    size_t traced_program_spans = 0;
    for (const auto& span : d->broker->trace_snapshot()) traced_program_spans += span.trace_id != 0;
    report.stamp("traced_program_spans", static_cast<double>(traced_program_spans));
    report.metric("throughput_kqps", fixed.rate / 1e3, "kq/s");
    report.metric("latency_p50_ms", slice_median(fixed.latency_slices_ms, 50), "ms");
    report.metric("latency_p99_ms", slice_median(fixed.latency_slices_ms, 99), "ms");
    report.metric("visibility_p50_ms", percentile(vis, 50), "ms");
    report.metric("setup_s", percentile(setup_s, 50), "s");
    report.metric("peak_rss_mb", peak_rss_mb, "MB");
  } else {
    failed += rx->unexpected;
    report.stamp("stray_msgs", static_cast<double>(rx->stray));
    // Rate ladder: the highest rung whose p99 meets the limit with every
    // MSG delivered and no growing backlog. A rung past capacity may lose
    // MSGs to the broker's bounded queues; that fails the rung, not the run.
    double max_rate = fixed.meets_limit() ? fixed.rate : 0;
    std::string rungs;
    for (double rate : kLadder) {
      const OpenLoopResult rung = run(*d, pub, *rx, rate, kRungS, nullptr);
      rungs += (rungs.empty() ? "" : ",") + std::to_string(static_cast<int>(rate)) + ":" +
               std::to_string(percentile(rung.latency_ms, 99)).substr(0, 6) + "ms/" +
               std::to_string(rung.failed) + "f";
      if (rung.meets_limit()) max_rate = std::max(max_rate, rung.rate);
    }
    report.stamp("ladder", rungs);
    report.metric("net.max_rate_qps", max_rate, "q/s");
    rx->stop();
    pub.close();
    // Traced phase on a fresh deployment with broker tracing on: sampled
    // PUBs carry a trace context that the broker adopts for its spans.
    rx.reset();
    d.reset();
    double traced_setup = 0;
    d = deploy(w, true, &traced_setup);
    failed += d->failed_subs;
    BrokerClient tpub;
    if (!tpub.connect(d->server->port())) return 4;
    Receivers trx(*d, static_cast<size_t>(kFixedRate * args.seconds) * 2);
    SpanLog log(true);
    TraceCollector collector([&] { return d->broker->trace_snapshot(); });
    const OpenLoopResult traced = run(*d, tpub, trx, kFixedRate, fixed_s, &log);
    collector.stop();
    attempted += traced.published;
    failed += traced.failed + trx.unexpected;

    const RegistryDelta delta{traced.before, traced.after};
    put_registry_layers(report, delta, traced.published, traced.seconds, nproc(),
                        BrokerConfig{}.engine.batch_size);
    report.metric("core.submit_ns_p50", 0, "ns");
    report.metric("core.submit_ns_p99", 0, "ns");
    report.metric("core.consolidate_s", 0, "s");
    report.metric("task.scaling_x", 0, "ratio");
    report.metric("shard.consolidate_s", 0, "s");
    report.metric("net.pub_rtt_us_p50", percentile(traced.rtt_us, 50), "us");
    report.metric("net.pub_rtt_us_p99", percentile(traced.rtt_us, 99), "us");
    const double e2e_p50 = slice_median(traced.latency_slices_ms, 50);
    report.metric("net.deliver_residual_ms",
                  e2e_p50 - delta.histogram("broker.publish_latency_ns").percentile(50) / 1e6,
                  "ms");
    report.metric("net.fds_leaked", static_cast<double>(proc_end.fds - proc_start.fds), "count");
    report.metric("net.threads_leaked", static_cast<double>(proc_end.threads - proc_start.threads),
                  "count");
    put_proc_metrics(report, proc_start, proc_end, fixed.published);
    report.metric("gen.late_p99_ms", percentile(traced.late_ms, 99), "ms");
    report.metric("bench.residual_ms", e2e_p50 - stage_p50_sum_ms(delta), "ms");
    report.metric("bench.failed_frac",
                  attempted ? static_cast<double>(failed) / static_cast<double>(attempted) : 0,
                  "ratio");
    const double base_p50 = slice_median(fixed.latency_slices_ms, 50);
    report.metric("trace.overhead_frac", base_p50 > 0 ? e2e_p50 / base_p50 - 1.0 : 0, "ratio");
    report.metric("trace.covered_frac", median_coverage(traced.roots, collector.by_trace()),
                  "ratio");
    report.metric("trace.spans", static_cast<double>(log.size() + collector.size()), "count");
  }
  report.attempted = attempted;
  report.failed = failed;
  return 0;
}

}  // namespace perfbench
