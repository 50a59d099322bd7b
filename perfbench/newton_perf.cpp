// newton_perf: the monitoring-path benchmark program (perfbench/README.md).
//
//   newton_perf --workload backbone|pcap_detectors|tenant_churn --seed N
//               --seconds S --trace 0|1
//
// Every workload is a closed loop from one process: this thread pulls
// packets through ingest::IngestPump into a ShardedRuntime with three shard
// workers.  The runtime backpressures instead of dropping, so the unpaced
// loop runs at the ceiling rate.  Layers are timed from outside, around
// calls into public functions only: Source::pull (MeteredSource), the gap
// between pulls (pump + ShardedRuntime::process, window barriers included),
// ReportSink::report (FanoutSink), Controller::admit and
// ShardedRuntime::finish.
//
// --trace 0 prints the end-to-end metrics of untraced passes.  --trace 1
// alternates untraced and traced passes: the traced ones take one clock
// pair per burst (never per packet), keep spans in memory and write them to
// .perf_out/ at exit; per-layer metrics come from them, and the pps gap
// between the two kinds of pass is the tracing overhead.  The last stdout
// line is the result object; a failed output check exits 1.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analyzer/analyzer.h"
#include "analyzer/ground_truth.h"
#include "analyzer/metrics.h"
#include "core/newton_switch.h"
#include "core/queries.h"
#include "core/query.h"
#include "detectors/detector.h"
#include "ingest/pcap_source.h"
#include "ingest/pump.h"
#include "ingest/trace_source.h"
#include "runtime/sharded_runtime.h"
#include "trace/attacks.h"
#include "trace/pcap.h"
#include "trace/trace_gen.h"

namespace perf {
using namespace newton;

constexpr std::size_t kShards = 3;  // + this thread = 4 busy threads
// Set-up is sampled at least this often, between timed passes whenever it
// has taken less than this share of the passes' time.
constexpr std::size_t kSetupMinRepeats = 3;
constexpr double kSetupShare = 0.5;
constexpr const char* kOutDir = ".perf_out";

// Backbone accuracy bounds, per q1/q3/q5 branch, summed over windows against
// exact_truth.  Precision must stay exact.  Recall is a floor, not a goal:
// under 5-tuple sharding a dip- or sip-keyed counter is split across shards,
// so threshold-crossing reports that one shard would emit are lost (on a
// 28k-flow trace, one shard reaches recall 1.00 on q1 and 0.61 on q3 for
// seed 1; three reach 0.23-0.33 and 0.20-0.34 over 26 seeds).  README.md
// records the finding.
struct AccuracyBound {
  const char* query;
  double min_precision;
  double min_recall;
};
constexpr AccuracyBound kBackboneBounds[] = {
    {"q1_new_tcp", 0.95, 0.15},
    {"q3_super_spreader", 0.95, 0.15},
    {"q5_udp_ddos", 0.95, 0.95},
};

uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

// Resets the process's peak resident set to its current size.
void reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  if (!f) throw std::runtime_error("cannot reset /proc/self/clear_refs");
}

// Peak resident set since the last reset_peak_rss(), in MiB (VmHWM).
double peak_rss_mib() {
  std::ifstream f("/proc/self/status");
  std::string key;
  while (f >> key) {
    if (key == "VmHWM:") {
      double kib = 0;
      f >> kib;
      return kib / 1024.0;
    }
    f.ignore(1 << 12, '\n');
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// The highest whole percentile that still has at least ten samples beyond
// it (0 when the sample is too small for any).
int highest_supported_percentile(std::size_t n) {
  if (n < 10) return 0;
  return static_cast<int>(
      std::floor(100.0 * (1.0 - 10.0 / static_cast<double>(n))));
}

uint64_t fnv1a(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t trace_digest(const Trace& t) {
  uint64_t h = 1469598103934665603ull;
  for (const Packet& p : t.packets) {
    h = fnv1a(h, p.ts_ns);
    h = fnv1a(h, p.wire_len);
    for (uint32_t f : p.fields) h = fnv1a(h, f);
  }
  return h;
}

// An inert tenant query: it filters its own destination port and its
// threshold is unreachable, so it adds rules and state but never reports.
// The tenant_churn storm and the update probes are built from it.
Query tenant_query(const std::string& name, uint16_t dport,
                   std::size_t width = 256) {
  QueryBuilder b(name);
  b.sketch(2, width);
  b.filter(Predicate{}.where(Field::DstPort, Cmp::Eq, dport))
      .map({Field::SrcIp})
      .reduce({Field::SrcIp}, Agg::Sum)
      .when(Cmp::Ge, 1'000'000'000u);
  Query q = b.build();
  q.window_ns = 100'000'000;
  q.row_partitions = 1;
  return q;
}

// ---------------------------------------------------------------- tracing

struct Span {
  const char* name;
  uint64_t start;
  uint64_t end;
  int64_t parent;  // index into the span list, -1 for a root
  uint64_t id;     // burst index for per-burst spans, window for barriers
};

// Everything one pass measured.  Timing fields stay zero in untraced
// passes, except the window-crossing samples, which both kinds take (two
// clock reads per window).
struct PassResult {
  bool traced = false;
  uint64_t packets = 0;  // source packets handed to the runtimes
  uint64_t reports = 0;
  uint64_t wall_ns = 0;  // first pull -> finish() return, summed over runtimes
  uint64_t cpu_ns = 0;   // process CPU over the same intervals
  // traced layer times
  uint64_t pull_ns = 0, demux_ns = 0, demux_pkts = 0, barrier_ns = 0,
           update_ns = 0, sink_ns = 0, sink_calls = 0, finish_ns = 0,
           control_ns = 0;
  // crossing-burst gaps without / with queued mutations, finish() calls,
  // Controller::admit calls
  std::vector<double> lag_ms, update_ms, finish_ms, admit_us;
  // runtime / source counters
  uint64_t worker_pkts = 0, worker_busy_ns = 0, jit_pkts = 0, fused_pkts = 0,
           hash_lanes = 0, prefetch = 0, recompiles = 0, ring_stalls = 0,
           abandoned = 0, dropped = 0, skipped = 0, rule_updates = 0,
           installs_rejected = 0;
  double worker_skew = 0.0;  // max over runtimes of max/mean worker packets
  // control-path accounting
  uint64_t admits = 0, admitted = 0, admissible_installs = 0,
           expected_rejections = 0;
};

// Per-runtime timing state shared by the metered source and the sink.
class Meter {
 public:
  Meter(PassResult& pr, std::vector<Span>* spans, int64_t parent)
      : pr_(pr), spans_(spans), parent_(parent) {}

  bool traced() const { return spans_ != nullptr; }
  PassResult& pass() { return pr_; }

  int64_t add_span(const char* name, uint64_t a, uint64_t b, int64_t parent,
                   uint64_t id) {
    spans_->push_back({name, a, b, parent, id});
    return static_cast<int64_t>(spans_->size()) - 1;
  }

  // A sink call inside the current gap or finish().
  void on_sink(uint64_t a, uint64_t b) {
    if (sink_calls_ == 0) sink_first_ = a;
    sink_last_ = b;
    sink_busy_ += b - a;
    ++sink_calls_;
  }

  // Close out sink activity under span `parent`; returns the busy time.
  uint64_t flush_sink(int64_t parent, uint64_t id) {
    if (sink_calls_ == 0) return 0;
    add_span("analyzer.sink", sink_first_, sink_last_, parent, id);
    const uint64_t busy = sink_busy_;
    pr_.sink_ns += busy;
    pr_.sink_calls += sink_calls_;
    sink_calls_ = 0;
    sink_busy_ = 0;
    return busy;
  }

  int64_t parent() const { return parent_; }

 private:
  PassResult& pr_;
  std::vector<Span>* spans_;
  int64_t parent_;
  uint64_t sink_first_ = 0, sink_last_ = 0, sink_busy_ = 0, sink_calls_ = 0;
};

// The timing wrapper handed to ShardedRuntime::set_report_sink.  Both kinds
// of pass route reports through it, so they do the same dispatch work;
// only traced passes read the clock.
class FanoutSink final : public ReportSink {
 public:
  FanoutSink(Analyzer& an, ReportSink* values) : an_(an), values_(values) {}
  void bind(Meter* m) { meter_ = m; }

  void report(const ReportRecord& r) override {
    if (meter_ == nullptr || !meter_->traced()) {
      an_.report(r);
      if (values_ != nullptr) values_->report(r);
      return;
    }
    const uint64_t a = now_ns();
    an_.report(r);
    if (values_ != nullptr) values_->report(r);
    meter_->on_sink(a, now_ns());
  }

 private:
  Analyzer& an_;
  ReportSink* values_;
  Meter* meter_ = nullptr;
};

// Control actions queued when a burst opens a new window.  Called with the
// 0-based index of the crossing within the runtime's stream; returns true
// when it queued mutations (the barrier in this burst applies them).
using CrossingHook = std::function<bool(std::size_t crossing, Meter& m)>;

// Decorator Source: times the inner pull and the gap until the next pull,
// notices bursts that open a new window, and runs the workload's control
// hook for them.
class MeteredSource final : public ingest::Source {
 public:
  MeteredSource(ingest::Source& inner, uint64_t window_ns, Meter& m,
                CrossingHook hook)
      : inner_(inner), wns_(window_ns), m_(m), hook_(std::move(hook)) {}

  std::size_t pull(Packet* out, std::size_t max) override {
    const uint64_t t_in = (m_.traced() || gap_crossing_) ? now_ns() : 0;
    close_gap(t_in);
    const std::size_t n = inner_.pull(out, max);
    const uint64_t t_pulled = m_.traced() ? now_ns() : 0;
    PassResult& pr = m_.pass();
    if (m_.traced()) {
      pr.pull_ns += t_pulled - t_in;
      m_.add_span("ingest.pull", t_in, t_pulled, m_.parent(), burst_);
    }
    ++burst_;
    gap_pkts_ = n;
    gap_crossing_ = false;
    gap_mutating_ = false;
    if (n > 0) {
      const uint64_t epoch = wns_ == 0 ? 0 : out[n - 1].ts_ns / wns_;
      if (epoch != epoch_) {
        epoch_ = epoch;
        gap_crossing_ = true;
        gap_window_ = epoch;
        gap_mutating_ = hook_ && hook_(crossings_, m_);
        ++crossings_;
      }
    }
    if (m_.traced()) {
      gap_start_ = now_ns();
      pr.control_ns += gap_start_ - t_pulled;
    } else if (gap_crossing_) {
      gap_start_ = now_ns();
    }
    return n;
  }

  // Closes the gap left open by the last pull (call when the pump returns).
  void close_gap(uint64_t t) {
    if (burst_ == 0) return;
    PassResult& pr = m_.pass();
    if (m_.traced()) {
      const char* name = !gap_crossing_   ? "runtime.demux"
                         : gap_mutating_ ? "runtime.update_barrier"
                                         : "runtime.barrier";
      const int64_t span = m_.add_span(name, gap_start_, t, m_.parent(),
                                       gap_crossing_ ? gap_window_ : burst_);
      const uint64_t sink = m_.flush_sink(span, gap_window_);
      const uint64_t self = t - gap_start_ - sink;
      if (!gap_crossing_) {
        pr.demux_ns += self;
        pr.demux_pkts += gap_pkts_;
      } else if (gap_mutating_) {
        pr.update_ns += self;
      } else {
        pr.barrier_ns += self;
      }
    }
    if (gap_crossing_) {
      // A crossing that applies mutations prices the update; the others
      // price report delivery.  Mixing the two would put the median on the
      // seam between two clusters.
      const double ms = static_cast<double>(t - gap_start_) / 1e6;
      (gap_mutating_ ? pr.update_ms : pr.lag_ms).push_back(ms);
    }
    gap_crossing_ = false;
    gap_pkts_ = 0;
  }

  bool done() const override { return inner_.done(); }
  uint64_t ns_until_ready() const override { return inner_.ns_until_ready(); }
  const ingest::SourceStats& stats() const override { return inner_.stats(); }
  std::string name() const override { return inner_.name(); }

 private:
  ingest::Source& inner_;
  uint64_t wns_;
  Meter& m_;
  CrossingHook hook_;
  uint64_t epoch_ = 0;  // ShardedRuntime starts every stream in window 0
  uint64_t burst_ = 0;
  std::size_t crossings_ = 0;
  // state of the gap opened by the last pull
  uint64_t gap_start_ = 0;
  uint64_t gap_window_ = 0;
  std::size_t gap_pkts_ = 0;
  bool gap_crossing_ = false;
  bool gap_mutating_ = false;
};

// One runtime with its sinks, built before a pass (set-up work).
struct Runner {
  std::unique_ptr<NewtonSwitch> sw;
  std::unique_ptr<Analyzer> an;
  std::unique_ptr<detectors::ValueSink> values;
  std::unique_ptr<FanoutSink> sink;
  std::unique_ptr<ShardedRuntime> rt;
  std::vector<const detectors::Detector*> members;  // pcap_detectors only

  Runner(std::size_t stages, std::size_t bank_registers, RuntimeOptions ro,
         uint64_t value_window_ns) {
    sw = std::make_unique<NewtonSwitch>(1, stages, nullptr, bank_registers);
    an = std::make_unique<Analyzer>();
    if (value_window_ns != 0)
      values = std::make_unique<detectors::ValueSink>(value_window_ns);
    sink = std::make_unique<FanoutSink>(*an, values.get());
    ro.num_shards = kShards;
    ro.record_snapshots = false;
    rt = std::make_unique<ShardedRuntime>(*sw, ro, nullptr);
    rt->set_report_sink(sink.get());
  }

  // Pre-start installs apply immediately; the runtime registers no qids
  // because the analyzer sits behind the timing wrapper instead.
  void register_installed() {
    for (const auto& qi : rt->controller().list_queries())
      for (std::size_t bi = 0; bi < qi.qids.size(); ++bi)
        an->register_qid_any(qi.qids[bi], qi.name, bi);
  }
};

// Stream `src` through `r` and finish it; accumulates into `pr`.
void drive(Runner& r, ingest::Source& src, PassResult& pr,
           std::vector<Span>* spans, int64_t parent, uint64_t id,
           const CrossingHook& hook) {
  const uint64_t w0 = now_ns();
  const uint64_t c0 = process_cpu_ns();
  int64_t root = parent;
  if (spans != nullptr) {
    spans->push_back({"runtime.stream", w0, 0, parent, id});
    root = static_cast<int64_t>(spans->size()) - 1;
  }
  Meter meter(pr, spans, root);
  r.sink->bind(&meter);
  MeteredSource ms(src, r.sw->window_ns(), meter, hook);
  ingest::PumpOptions po;
  po.burst = 64;
  ingest::IngestPump pump(*r.rt, po);
  const ingest::PumpStats ps = pump.run(ms);
  const uint64_t f0 = now_ns();
  ms.close_gap(f0);
  r.rt->finish();
  const uint64_t f1 = now_ns();
  const uint64_t c1 = process_cpu_ns();
  r.sink->bind(nullptr);

  pr.wall_ns += f1 - w0;
  pr.cpu_ns += c1 - c0;
  pr.packets += ps.packets;
  pr.dropped += ps.source.dropped;
  pr.skipped += ps.source.skipped();
  if (spans != nullptr) {
    const int64_t fs = meter.add_span("runtime.finish", f0, f1, root, id);
    const uint64_t sink = meter.flush_sink(fs, id);
    pr.finish_ns += f1 - f0 - sink;
    pr.finish_ms.push_back(static_cast<double>(f1 - f0) / 1e6);
    (*spans)[static_cast<std::size_t>(root)].end = f1;
  }

  const RuntimeStats& st = r.rt->stats();
  pr.reports += st.reports;
  pr.ring_stalls += st.backpressure_stalls;
  pr.abandoned += st.abandoned_packets;
  pr.rule_updates += st.rule_updates_applied;
  pr.installs_rejected += st.installs_rejected;
  pr.recompiles += st.jit_recompiles;
  uint64_t max_w = 0, sum_w = 0;
  for (const WorkerStats& ws : st.workers) {
    pr.worker_pkts += ws.packets;
    pr.worker_busy_ns += ws.busy_ns;
    pr.jit_pkts += ws.jit_packets;
    pr.fused_pkts += ws.jit_fused_packets;
    pr.hash_lanes += ws.jit_hash_lanes;
    pr.prefetch += ws.jit_prefetch_issued;
    max_w = std::max(max_w, ws.packets);
    sum_w += ws.packets;
  }
  if (sum_w > 0)
    pr.worker_skew = std::max(
        pr.worker_skew, static_cast<double>(max_w) *
                            static_cast<double>(st.workers.size()) /
                            static_cast<double>(sum_w));
}

// Time Controller::admit on `q` (a span in traced passes) and count it.
bool timed_admit(Runner& r, Meter& m, const Query& q,
                 const std::string& tenant) {
  PassResult& pr = m.pass();
  const uint64_t a = m.traced() ? now_ns() : 0;
  const bool ok = r.rt->controller().admit(q, {}, tenant).admitted();
  if (m.traced()) {
    const uint64_t b = now_ns();
    m.add_span("core.admit", a, b, m.parent(), pr.admits);
    pr.admit_us.push_back(static_cast<double>(b - a) / 1e3);
  }
  ++pr.admits;
  pr.admitted += ok ? 1 : 0;
  return ok;
}

// Queue an admissible install+withdraw pair of an inert query.
void queue_pair(Runner& r, Meter& m, const std::string& name, uint16_t dport,
                const std::string& tenant) {
  const Query q = tenant_query(name, dport);
  timed_admit(r, m, q, tenant);
  ++m.pass().admissible_installs;
  r.rt->install(q, {}, tenant);
  r.rt->withdraw(name);
}

// Update probe for the read-mostly workloads: one inert install+withdraw
// pair per runtime stream, queued at window crossing `at`, so the update
// stall is priced on the switch each workload loads.  The cadence is
// synthetic, not drawn from measured traffic; the runtime keeps its default
// options, so the window after the probe runs on the interpreter until the
// debounced rebuild.
bool probe_at(Runner& r, std::size_t crossing, std::size_t at, Meter& m) {
  if (crossing != at) return false;
  queue_pair(r, m, "probe" + std::to_string(crossing), 1, "probe-tenant");
  return true;
}

// ------------------------------------------------------------- workloads

struct Check {
  explicit Check(std::string n) : name(std::move(n)) {}
  std::string name;
  bool ok = true;
  std::string detail;
};

// Every probe pair was admitted and applied, and only the workload's own
// queries are left installed.
Check probes_check(const std::string& workload, const PassResult& pr,
                   const std::vector<const Runner*>& runners,
                   std::size_t expect_installed) {
  Check c{workload + ".probes_applied"};
  std::size_t installed = 0;
  for (const Runner* r : runners) {
    installed += r->rt->controller().num_installed();
    for (const auto& rj : r->rt->rejections())
      c.detail +=
          "rejected " + rj.query + ": " + rj.decision.to_string() + "; ";
  }
  c.ok = pr.admissible_installs > 0 &&
         pr.rule_updates == 2 * pr.admissible_installs &&
         pr.installs_rejected == 0 && pr.admitted == pr.admits &&
         installed == expect_installed;
  c.detail += std::to_string(pr.rule_updates) + " updates for " +
              std::to_string(pr.admissible_installs) + " probe pairs";
  return c;
}

template <typename... Args>
std::string fmt(const char* f, Args... args) {
  char buf[200];
  std::snprintf(buf, sizeof buf, f, args...);
  return buf;
}

class Workload {
 public:
  virtual ~Workload() = default;
  // Generate the inputs from the seed (set-up work).
  virtual void make_inputs(uint32_t seed) = 0;
  // Store the generated inputs where the program reads them; once per run.
  virtual void write_inputs() {}
  // Build and load the runtimes of one pass (set-up work).
  virtual void build() = 0;
  // Stream the built runtimes to completion; they are consumed.
  virtual void run(PassResult& pr, std::vector<Span>* spans,
                   int64_t parent) = 0;
  // Cheap checks on the pass just run.
  virtual void check_pass(const PassResult& pr, std::vector<Check>& out) = 0;
  // Full output checks on the last pass (accuracy against exact truth).
  virtual void check_outputs(std::vector<Check>& out) = 0;
  virtual const Trace& input() const = 0;
  // Packets one pass hands to the runtimes.
  virtual uint64_t packets_per_pass() const { return input().size(); }
  virtual std::string input_summary() const = 0;
};

class Backbone final : public Workload {
 public:
  void make_inputs(uint32_t seed) override {
    TraceProfile prof = caida_like(seed);
    prof.num_flows = 30'000;
    trace_ = Trace{};  // keep one copy resident across set-up repeats
    trace_ = generate_trace(prof);
    std::mt19937 rng(seed + 1000);
    inject_syn_flood(trace_, ipv4(172, 16, 200, 1), 300, 1, 50'000'000, rng);
    inject_udp_flood(trace_, ipv4(172, 16, 200, 3), 120, 2, 250'000'000, rng);
    inject_super_spreader(trace_, ipv4(198, 18, 4, 4), 150, 550'000'000, rng);
    trace_.sort_by_time();
    uint64_t epoch = 0;
    std::size_t crossings = 0;
    for (const Packet& p : trace_.packets)
      if (p.ts_ns / kWindowNs != epoch) {
        epoch = p.ts_ns / kWindowNs;
        ++crossings;
      }
    if (crossings < 2)
      throw std::runtime_error("backbone: trace spans too few windows");
    probe_crossing_ = crossings - 1;
  }

  void build() override {
    RuntimeOptions ro;
    ro.shard_key = ShardKey::five_tuple();
    // q1/q3/q5 share traffic and chain through the stages; 32 leave room
    // for the chained probe.
    next_ = std::make_unique<Runner>(32, kStateBankRegisters, ro, 0);
    for (const Query& q : queries()) next_->rt->install(q);
    next_->register_installed();
  }

  void run(PassResult& pr, std::vector<Span>* spans, int64_t parent) override {
    last_ = std::move(next_);
    Runner& r = *last_;
    ingest::TraceSource src(trace_);
    // At the last crossing, so the debounced JIT rebuild that follows the
    // probe falls in finish().  Mid-stream, the rebuild barrier was one in
    // ten report-lag samples and put their p90 on the seam between two
    // clusters.
    drive(r, src, pr, spans, parent, 0,
          [this, &r](std::size_t c, Meter& m) {
            return probe_at(r, c, probe_crossing_, m);
          });
  }

  void check_pass(const PassResult& pr, std::vector<Check>& out) override {
    out.push_back(probes_check("backbone", pr, {last_.get()},
                               queries().size()));
  }

  void check_outputs(std::vector<Check>& out) override {
    for (const Query& q : queries()) {
      const QueryTruth truth = exact_truth(q, trace_);
      for (std::size_t b = 0; b < truth.branches.size(); ++b) {
        const BranchTruth& bt = truth.branches[b];
        Accuracy acc;
        for (const auto& [w, universe] : bt.universe) {
          const auto it = bt.passing.find(w);
          const Accuracy a = score(
              last_->an->detected_in_window(q.name, b, w, q.window_ns),
              it == bt.passing.end() ? KeySet{} : it->second, universe);
          acc.tp += a.tp;
          acc.fp += a.fp;
          acc.fn += a.fn;
          acc.tn += a.tn;
        }
        const AccuracyBound* bound = nullptr;
        for (const AccuracyBound& ab : kBackboneBounds)
          if (q.name == ab.query) bound = &ab;
        Check c{"backbone." + q.name + ".branch" + std::to_string(b)};
        c.ok = bound != nullptr && acc.tp > 0 &&
               acc.precision() >= bound->min_precision &&
               acc.recall() >= bound->min_recall;
        c.detail = fmt("precision %.4f (>= %.2f) recall %.4f (>= %.2f)",
                       acc.precision(), bound ? bound->min_precision : 1.0,
                       acc.recall(), bound ? bound->min_recall : 1.0) +
                   " tp " + std::to_string(acc.tp) + " fn " +
                   std::to_string(acc.fn);
        out.push_back(c);
      }
    }
  }

  const Trace& input() const override { return trace_; }
  std::string input_summary() const override {
    return std::to_string(trace_.size()) + " packets over " +
           std::to_string(trace_.duration_ns() / 1'000'000) + " ms";
  }

 private:
  static constexpr uint64_t kWindowNs = 100'000'000;  // the switch default
  static std::vector<Query> queries() {
    const QueryParams p;
    return {make_q1(p), make_q3(p), make_q5(p)};
  }
  Trace trace_;
  std::size_t probe_crossing_ = 0;
  std::unique_ptr<Runner> next_, last_;
};

class PcapDetectors final : public Workload {
 public:
  static constexpr uint64_t kWindowNs = 100'000'000;  // every detector's
  static constexpr uint64_t kWindows = 5;
  PcapDetectors() : lib_(detectors::detector_library()) {
    std::vector<const detectors::Detector*> all;
    for (const auto& d : lib_) all.push_back(&d);
    groups_ = detectors::group_by_shard_key(all);
  }

  void make_inputs(uint32_t seed) override {
    LabeledAttackTrace labeled = make_labeled_attack_trace(seed, 2'000);
    // Drop the few background packets past the fifth window, so every seed
    // closes the same windows (barrier work dominates this workload).
    auto& pk = labeled.trace.packets;
    pk.erase(std::find_if(pk.begin(), pk.end(),
                          [](const Packet& p) {
                            return p.ts_ns >= kWindows * kWindowNs;
                          }),
             pk.end());
    generated_ = std::move(labeled.trace);
  }

  // The pcap write and read-back run once, outside the sampled set-up:
  // page-cache writes of the 4.8 MB file varied by 60% between runs on one
  // host, and swamped the rest of set-up.
  void write_inputs() override {
    path_ = std::string(kOutDir) + "/labeled.pcap";
    save_pcap(generated_, path_);
    // The evaluators score against the capture exactly as written.
    trace_ = load_pcap(path_);
  }

  void build() override {
    next_.clear();
    for (const auto& g : groups_) {
      RuntimeOptions ro;
      ro.shard_key = g.key;
      auto r = std::make_unique<Runner>(64, kStateBankRegisters, ro,
                                        g.members.front()->query.window_ns);
      for (const auto* d : g.members) r->rt->install(d->query);
      r->register_installed();
      r->members = g.members;
      next_.push_back(std::move(r));
    }
  }

  void run(PassResult& pr, std::vector<Span>* spans, int64_t parent) override {
    last_ = std::move(next_);
    for (std::size_t gi = 0; gi < last_.size(); ++gi) {
      Runner& r = *last_[gi];
      ingest::PcapFileSource src(path_);
      // The last of the four crossings, so plain barriers still outnumber
      // update barriers three to one.
      drive(r, src, pr, spans, parent, gi,
            [&r](std::size_t c, Meter& m) { return probe_at(r, c, 3, m); });
    }
  }

  void check_pass(const PassResult& pr, std::vector<Check>& out) override {
    std::vector<const Runner*> rs;
    for (const auto& r : last_) rs.push_back(r.get());
    out.push_back(probes_check("pcap_detectors", pr, rs, lib_.size()));
  }

  // Every detector must meet its own precision/recall bounds.  On a few
  // seeds (51, 54 and 104 of 1-110) a background host sits on the
  // superspreader threshold and the Bloom filter undercounts it in the
  // single-switch interpreter over the same capture too; that miss is the
  // sketch's, not the monitoring path's, so there the runtime must only do
  // at least as well as the interpreter on both precision and recall.
  // Exact equality with the interpreter is not required: per-shard sketch
  // replicas see fewer colliding keys, so Count-Min estimates differ.
  void check_outputs(std::vector<Check>& out) override {
    for (const auto& r : last_) {
      const auto ref = reference(r->members);
      const detectors::EvalInput in{trace_, *r->an, *r->values};
      for (std::size_t i = 0; i < r->members.size(); ++i) {
        const detectors::Detector& d = *r->members[i];
        const detectors::Evaluation ev = d.evaluate(in);
        const auto meets = [&d](const detectors::Evaluation& e) {
          return e.truth_keys > 0 && e.acc.precision() >= d.min_precision &&
                 e.acc.recall() >= d.min_recall;
        };
        Check c{"pcap_detectors." + d.id};
        c.ok = meets(ev) ||
               (!meets(ref[i]) && ev.truth_keys > 0 &&
                ev.acc.precision() >= ref[i].acc.precision() &&
                ev.acc.recall() >= ref[i].acc.recall());
        c.detail = fmt("precision %.4f (>= %.2f) recall %.4f (>= %.2f)",
                       ev.acc.precision(), d.min_precision, ev.acc.recall(),
                       d.min_recall) +
                   " truth keys " + std::to_string(ev.truth_keys);
        if (!meets(ev))
          c.detail += fmt("; interpreter: precision %.4f recall %.4f",
                          ref[i].acc.precision(), ref[i].acc.recall());
        out.push_back(c);
      }
    }
  }

  const Trace& input() const override { return trace_; }
  uint64_t packets_per_pass() const override {
    return trace_.size() * groups_.size();
  }
  std::string input_summary() const override {
    std::error_code ec;
    const auto bytes = std::filesystem::file_size(path_, ec);
    return std::to_string(trace_.size()) + " packets, " +
           std::to_string(ec ? 0 : bytes) + " pcap bytes, " +
           std::to_string(groups_.size()) + " shard-key groups";
  }

 private:
  // Evaluations of `members` when the capture runs through one
  // NewtonSwitch: no runtime, no compiled executors.
  std::vector<detectors::Evaluation> reference(
      const std::vector<const detectors::Detector*>& members) const {
    Analyzer an;
    detectors::ValueSink values(members.front()->query.window_ns);
    FanoutSink sink(an, &values);
    NewtonSwitch sw(1, 64, &sink);
    Controller ctl(sw);
    for (const auto* d : members) {
      const auto st = ctl.install(d->query);
      for (std::size_t bi = 0; bi < st.qids.size(); ++bi)
        an.register_qid_any(st.qids[bi], d->query.name, bi);
    }
    for (const Packet& p : trace_.packets) sw.process(p);
    std::vector<detectors::Evaluation> out;
    const detectors::EvalInput in{trace_, an, values};
    for (const auto* d : members) out.push_back(d->evaluate(in));
    return out;
  }

  std::vector<detectors::Detector> lib_;
  std::vector<detectors::DetectorGroup> groups_;
  Trace generated_;
  std::string path_;
  Trace trace_;
  std::vector<std::unique_ptr<Runner>> next_, last_;
};

class TenantChurn final : public Workload {
 public:
  static constexpr std::size_t kBaseQueries = 110;
  static constexpr std::size_t kPairsPerWindow = 3;
  static constexpr uint64_t kWindowNs = 10'000'000;
  static constexpr uint64_t kWindows = 28;
  static constexpr uint64_t kPacketsPerWindow = 7'000;

  // Barrier work dominates this workload, so every seed must close the
  // same windows over the same packet count: the first packets of the
  // background trace are re-timed to a constant rate (order kept).  The
  // unpaced loop reads timestamps only to assign windows.
  void make_inputs(uint32_t seed) override {
    TraceProfile prof = caida_like(seed);
    prof.num_flows = 6'000;
    trace_ = generate_trace(prof);
    const uint64_t n = kWindows * kPacketsPerWindow;
    if (trace_.size() < n)
      throw std::runtime_error("tenant_churn: background trace too short");
    trace_.packets.resize(n);
    for (uint64_t i = 0; i < n; ++i)
      trace_.packets[i].ts_ns = i * kWindowNs / kPacketsPerWindow;
  }

  void build() override {
    RuntimeOptions ro;  // default debounce: the storm coalesces rebuilds
    next_ = std::make_unique<Runner>(64, std::size_t{1} << 18, ro, 0);
    next_->sw->set_window_ns(kWindowNs);
    for (std::size_t i = 0; i < kBaseQueries; ++i)
      next_->rt->install(tenant_query("base" + std::to_string(i),
                                      static_cast<uint16_t>(20'000 + i)),
                         {}, "tenant" + std::to_string(i % 8));
    next_->register_installed();
  }

  void run(PassResult& pr, std::vector<Span>* spans, int64_t parent) override {
    last_ = std::move(next_);
    Runner& r = *last_;
    ingest::TraceSource src(trace_);
    std::size_t churn = 0;
    doomed_.clear();
    doomed_admitted_ = 0;
    // Every other window queues the churn batch; every other mutating
    // window adds one install no bank can hold, which admission rejects.
    drive(r, src, pr, spans, parent, 0, [&](std::size_t c, Meter& m) {
      if (c % 2 != 0) return false;
      for (std::size_t j = 0; j < kPairsPerWindow; ++j, ++churn)
        queue_pair(r, m, "churn" + std::to_string(churn),
                   static_cast<uint16_t>(30'000 + churn % 1024),
                   "churn-tenant");
      if (c % 4 == 0) {
        const std::string name = "doomed" + std::to_string(churn);
        const Query q = tenant_query(name, 50'000, std::size_t{1} << 21);
        doomed_admitted_ += timed_admit(r, m, q, "churn-tenant") ? 1 : 0;
        ++m.pass().expected_rejections;
        doomed_.push_back(name);
        r.rt->install(q, {}, "churn-tenant");
      }
      return true;
    });
  }

  void check_pass(const PassResult& pr, std::vector<Check>& out) override {
    const Controller& ctl = last_->rt->controller();
    Check base{"tenant_churn.base_installed"};
    std::size_t present = 0;
    for (std::size_t i = 0; i < kBaseQueries; ++i)
      present += ctl.installed("base" + std::to_string(i)) ? 1 : 0;
    base.ok = present == kBaseQueries && ctl.num_installed() == kBaseQueries;
    base.detail = std::to_string(present) + "/" +
                  std::to_string(kBaseQueries) + " base queries present, " +
                  std::to_string(ctl.num_installed()) + " installed";
    out.push_back(base);

    Check applied{"tenant_churn.churn_applied"};
    applied.ok = pr.admissible_installs > 0 &&
                 pr.rule_updates == 2 * pr.admissible_installs &&
                 pr.admitted == pr.admissible_installs;
    applied.detail = std::to_string(pr.rule_updates) + " updates for " +
                     std::to_string(pr.admissible_installs) +
                     " admissible pairs";
    out.push_back(applied);

    Check rejected{"tenant_churn.oversized_rejected"};
    const auto& rej = last_->rt->rejections();
    bool names_match = rej.size() == doomed_.size();
    for (std::size_t i = 0; names_match && i < rej.size(); ++i)
      names_match = rej[i].query == doomed_[i];
    rejected.ok = names_match && doomed_admitted_ == 0 &&
                  pr.expected_rejections > 0 &&
                  pr.installs_rejected == pr.expected_rejections;
    rejected.detail = std::to_string(pr.installs_rejected) + " rejected of " +
                      std::to_string(pr.expected_rejections) + " oversized";
    out.push_back(rejected);
  }

  void check_outputs(std::vector<Check>&) override {}

  const Trace& input() const override { return trace_; }
  std::string input_summary() const override {
    return std::to_string(trace_.size()) + " packets over " +
           std::to_string(trace_.duration_ns() / 1'000'000) + " ms, " +
           std::to_string(kBaseQueries) + " base queries";
  }

 private:
  Trace trace_;
  std::unique_ptr<Runner> next_, last_;
  std::vector<std::string> doomed_;
  std::size_t doomed_admitted_ = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "backbone") return std::make_unique<Backbone>();
  if (name == "pcap_detectors") return std::make_unique<PcapDetectors>();
  if (name == "tenant_churn") return std::make_unique<TenantChurn>();
  return nullptr;
}

// ---------------------------------------------------------------- report

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Pooled view over the passes of one kind.
struct Pool {
  std::vector<const PassResult*> passes;

  uint64_t sum(uint64_t PassResult::*f) const {
    uint64_t s = 0;
    for (const PassResult* p : passes) s += p->*f;
    return s;
  }
  std::vector<double> cat(std::vector<double> PassResult::*f) const {
    std::vector<double> v;
    for (const PassResult* p : passes)
      v.insert(v.end(), (p->*f).begin(), (p->*f).end());
    return v;
  }
  std::vector<double> per_pass(double (*f)(const PassResult&)) const {
    std::vector<double> v;
    for (const PassResult* p : passes) v.push_back(f(*p));
    return v;
  }
  double median_pps() const {
    return quantile(per_pass([](const PassResult& p) {
                      return static_cast<double>(p.packets) * 1e9 /
                             static_cast<double>(p.wall_ns);
                    }),
                    0.5);
  }
};

double ratio(uint64_t num, uint64_t den, double scale = 1.0) {
  return den == 0 ? 0.0
                  : scale * static_cast<double>(num) / static_cast<double>(den);
}

// A timing sample's summary line: median, the highest percentile with ten
// samples beyond it, and the sample count.
std::string timing_line(const std::string& name, const std::vector<double>& v,
                        const char* unit) {
  const int p = highest_supported_percentile(v.size());
  char buf[256];
  if (p <= 50)  // too few samples for a tail percentile
    std::snprintf(buf, sizeof buf, "%s: p50 %.4f %s, n=%zu", name.c_str(),
                  quantile(v, 0.5), unit, v.size());
  else
    std::snprintf(buf, sizeof buf, "%s: p50 %.4f %s, p%d %.4f %s, n=%zu",
                  name.c_str(), quantile(v, 0.5), unit, p,
                  quantile(v, p / 100.0), unit, v.size());
  return buf;
}

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    o += c;
  }
  return o + "\"";
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string o = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", ms[i].value);
    o += (i ? ", " : "") + json_str(ms[i].name) + ": {\"value\": " + buf +
         ", \"unit\": " + json_str(ms[i].unit) + "}";
  }
  return o + "}";
}

// End-to-end metrics of the untraced passes (BENCHMARK.json end_to_end).
std::vector<Metric> end_to_end_metrics(const Pool& u,
                                       const std::vector<double>& setup_s,
                                       double rss_mib,
                                       std::vector<std::string>& lines) {
  const auto lag = u.cat(&PassResult::lag_ms);
  const auto upd = u.cat(&PassResult::update_ms);
  lines.push_back(timing_line("report_lag", lag, "ms"));
  lines.push_back(timing_line("update_stall", upd, "ms"));
  lines.push_back(timing_line("setup", setup_s, "s"));
  const auto cpu_per_pkt = [](const PassResult& p) {
    return static_cast<double>(p.cpu_ns) / static_cast<double>(p.packets);
  };
  return {
      {"pps", u.median_pps(), "packets/s"},
      {"cpu_ns_per_pkt", quantile(u.per_pass(cpu_per_pkt), 0.5), "ns"},
      {"report_lag_ms_p50", quantile(lag, 0.5), "ms"},
      {"report_lag_ms_p90", quantile(lag, 0.9), "ms"},
      {"update_stall_ms_p50", quantile(upd, 0.5), "ms"},
      {"update_stall_ms_p90", quantile(upd, 0.9), "ms"},
      {"rss_mb", rss_mib, "MiB"},
      {"setup_s", quantile(setup_s, 0.5), "s"},
  };
}

// Per-layer metrics of the traced passes (BENCHMARK.json per_layer), plus
// the tracing overhead against the untraced passes of the same run.
std::vector<Metric> layer_metrics(const Pool& t, const Pool& u,
                                  std::vector<std::string>& lines) {
  using P = PassResult;
  const uint64_t pkts = t.sum(&P::packets);
  const uint64_t wall = t.sum(&P::wall_ns);
  const uint64_t wpk = t.sum(&P::worker_pkts);
  const uint64_t layered = t.sum(&P::pull_ns) + t.sum(&P::demux_ns) +
                           t.sum(&P::barrier_ns) + t.sum(&P::update_ns) +
                           t.sum(&P::sink_ns) + t.sum(&P::finish_ns) +
                           t.sum(&P::control_ns);
  const double untraced_pps = u.median_pps();
  const double traced_pps = t.median_pps();
  const auto share = [&](uint64_t P::*f) { return ratio(t.sum(f), wall); };
  const auto p50 = [&](std::vector<double> P::*f) {
    return quantile(t.cat(f), 0.5);
  };
  lines.push_back(timing_line("runtime.barrier", t.cat(&P::lag_ms), "ms"));
  lines.push_back(
      timing_line("runtime.update_barrier", t.cat(&P::update_ms), "ms"));
  lines.push_back(timing_line("runtime.finish", t.cat(&P::finish_ms), "ms"));
  lines.push_back(timing_line("core.admit", t.cat(&P::admit_us), "us"));
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "tracing overhead: untraced %.0f pps (%zu passes) vs traced "
                "%.0f pps (%zu passes)",
                untraced_pps, u.passes.size(), traced_pps, t.passes.size());
  lines.push_back(buf);
  return {
      {"ingest.pull_ns_per_pkt", ratio(t.sum(&P::pull_ns), pkts), "ns"},
      {"runtime.demux_ns_per_pkt",
       ratio(t.sum(&P::demux_ns), t.sum(&P::demux_pkts)), "ns"},
      {"runtime.ring_stalls_per_kpkt", ratio(t.sum(&P::ring_stalls), pkts, 1e3),
       "1/kpkt"},
      {"runtime.worker_busy_ns_per_pkt", ratio(t.sum(&P::worker_busy_ns), wpk),
       "ns"},
      {"runtime.worker_skew",
       quantile(t.per_pass([](const P& p) { return p.worker_skew; }), 0.5),
       "ratio"},
      {"runtime.barrier_ms_p50", p50(&P::lag_ms), "ms"},
      {"runtime.update_barrier_ms_p50", p50(&P::update_ms), "ms"},
      {"runtime.finish_ms", p50(&P::finish_ms), "ms"},
      {"compile.jit_share", ratio(t.sum(&P::jit_pkts), wpk), "ratio"},
      {"compile.fused_share", ratio(t.sum(&P::fused_pkts), wpk), "ratio"},
      {"compile.hash_lanes_per_pkt", ratio(t.sum(&P::hash_lanes), wpk),
       "1/pkt"},
      {"compile.prefetch_per_pkt", ratio(t.sum(&P::prefetch), wpk), "1/pkt"},
      {"compile.recompiles",
       quantile(t.per_pass([](const P& p) {
                  return static_cast<double>(p.recompiles);
                }),
                0.5),
       "count"},
      {"analyzer.reports_per_kpkt", ratio(t.sum(&P::reports), pkts, 1e3),
       "1/kpkt"},
      {"analyzer.sink_ns_per_report",
       ratio(t.sum(&P::sink_ns), t.sum(&P::sink_calls)), "ns"},
      {"core.admit_us_p50", p50(&P::admit_us), "us"},
      {"core.admitted_frac", ratio(t.sum(&P::admitted), t.sum(&P::admits)),
       "ratio"},
      {"share.pull", share(&P::pull_ns), "ratio"},
      {"share.demux", share(&P::demux_ns), "ratio"},
      {"share.barrier", share(&P::barrier_ns), "ratio"},
      {"share.update_barrier", share(&P::update_ns), "ratio"},
      {"share.sink", share(&P::sink_ns), "ratio"},
      {"share.finish", share(&P::finish_ns), "ratio"},
      {"share.control", share(&P::control_ns), "ratio"},
      {"share.other", ratio(wall - std::min(wall, layered), wall), "ratio"},
      {"trace.overhead_frac",
       traced_pps > 0 ? untraced_pps / traced_pps - 1.0 : 0.0, "ratio"},
  };
}

void write_spans(const std::string& path, const std::vector<Span>& spans,
                 uint64_t t0) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "index\tname\tstart_ns\tend_ns\tparent\tid\n");
  for (std::size_t i = 0; i < spans.size(); ++i)
    std::fprintf(f, "%zu\t%s\t%llu\t%llu\t%lld\t%llu\n", i, spans[i].name,
                 static_cast<unsigned long long>(spans[i].start - t0),
                 static_cast<unsigned long long>(spans[i].end - t0),
                 static_cast<long long>(spans[i].parent),
                 static_cast<unsigned long long>(spans[i].id));
  std::fclose(f);
}

struct Args {
  std::string workload;
  uint32_t seed = 1;
  double seconds = 10;
  int trace = 0;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload")
      a.workload = v;
    else if (k == "--seed")
      a.seed = static_cast<uint32_t>(std::strtoul(v, nullptr, 10));
    else if (k == "--seconds")
      a.seconds = std::atof(v);
    else if (k == "--trace")
      a.trace = std::atoi(v);
    else
      return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0 &&
         (a.trace == 0 || a.trace == 1);
}

int run(const Args& args) {
  std::unique_ptr<Workload> w = make_workload(args.workload);
  if (!w) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  std::filesystem::create_directories(kOutDir);

  // Set-up: input generation + runtime construction and install; the build
  // feeds the next pass.  The first one runs cold (fresh heap, first page
  // faults) and is not sampled.  The samples are taken between the timed
  // passes, so that, like the passes, they span the whole run and not one
  // moment of the host's load.  Same seed, same inputs: regenerating them
  // between passes changes nothing the passes see.
  std::vector<double> setup_s;
  uint64_t setup_ns = 0, pass_ns = 0;
  double rss_mib = 0;
  const auto set_up = [&] {
    const uint64_t a = now_ns();
    w->make_inputs(args.seed);
    reset_peak_rss();  // rss_mb is the peak of the passes, not of set-up
    w->build();
    const uint64_t d = now_ns() - a;
    setup_ns += d;
    setup_s.push_back(static_cast<double>(d) / 1e9);
  };
  w->make_inputs(args.seed);
  w->write_inputs();
  w->build();
  std::printf("workload %s seed %u: %s\n", args.workload.c_str(), args.seed,
              w->input_summary().c_str());

  // One warm-up pass first: the first runtime pays page faults and cold
  // caches that later passes (and a long-running deployment) do not.  Then
  // timed passes until they have taken --seconds; traced runs alternate
  // untraced and traced passes so the overhead is measured within one
  // process, with >= 1 pass of each kind.
  const std::size_t min_passes = args.trace ? 2 : 1;
  const auto budget_ns = static_cast<uint64_t>(args.seconds * 1e9);
  const uint64_t t0 = now_ns();
  std::vector<PassResult> passes;
  std::vector<Span> spans;
  std::vector<Check> pass_checks;
  for (std::size_t i = 0;; ++i) {
    const bool warmup = i == 0;
    if (!warmup) {
      if (static_cast<double>(setup_ns) <
          kSetupShare * static_cast<double>(pass_ns)) {
        rss_mib = std::max(rss_mib, peak_rss_mib());
        set_up();
      } else {
        w->build();
      }
    }
    const uint64_t pass_start = now_ns();
    PassResult pr;
    pr.traced = args.trace == 1 && !warmup && passes.size() % 2 == 1;
    int64_t root = -1;
    if (pr.traced) {
      spans.push_back({"pass", now_ns(), 0, -1, i});
      root = static_cast<int64_t>(spans.size()) - 1;
    }
    w->run(pr, pr.traced ? &spans : nullptr, root);
    if (pr.traced) spans[static_cast<std::size_t>(root)].end = now_ns();
    std::vector<Check> cs;
    w->check_pass(pr, cs);
    for (Check& c : cs)
      if (!c.ok || warmup) pass_checks.push_back(std::move(c));
    if (warmup) {
      reset_peak_rss();
      continue;
    }
    pass_ns += now_ns() - pass_start;
    passes.push_back(std::move(pr));
    if (passes.size() >= min_passes && pass_ns >= budget_ns) break;
  }
  // Before more set-up and the output checks, whose exact-truth pass
  // allocates too.
  rss_mib = std::max(rss_mib, peak_rss_mib());
  while (setup_s.size() < kSetupMinRepeats) set_up();
  std::vector<Check> checks = pass_checks;
  w->check_outputs(checks);
  {
    // Every pass streams the same input, so counts must repeat exactly.
    Check c{"passes.consistent"};
    for (const PassResult& p : passes)
      c.ok = c.ok && p.packets == passes[0].packets &&
             p.reports == passes[0].reports &&
             p.packets == w->packets_per_pass();
    c.detail = std::to_string(passes.size()) + " passes of " +
               std::to_string(passes[0].packets) + " packets, " +
               std::to_string(passes[0].reports) + " reports";
    checks.push_back(c);
  }
  bool correct = true;
  for (const Check& c : checks) {
    correct = correct && c.ok;
    std::printf("check %-36s %s  %s\n", c.name.c_str(),
                c.ok ? "ok  " : "FAIL", c.detail.c_str());
  }

  Pool untraced, traced, all;
  for (const PassResult& p : passes) {
    (p.traced ? traced : untraced).passes.push_back(&p);
    all.passes.push_back(&p);
  }

  // Failed operations against attempted ones: packets offered plus the
  // admissible installs; abandoned, dropped or skipped packets and
  // admissible installs rejected fail.  Oversized installs are expected to
  // be rejected and count for neither.
  const uint64_t attempted = all.sum(&PassResult::packets) +
                             all.sum(&PassResult::admissible_installs);
  const uint64_t rejected_admissible =
      all.sum(&PassResult::installs_rejected) -
      std::min(all.sum(&PassResult::installs_rejected),
               all.sum(&PassResult::expected_rejections));
  const uint64_t failed = all.sum(&PassResult::abandoned) +
                          all.sum(&PassResult::dropped) +
                          all.sum(&PassResult::skipped) + rejected_admissible;

  std::vector<std::string> lines;
  std::vector<Metric> metrics;
  if (args.trace == 0) {
    metrics = end_to_end_metrics(untraced, setup_s, rss_mib, lines);
  } else {
    metrics = layer_metrics(traced, untraced, lines);
    // One file per workload, overwritten by each traced run.
    const std::string path =
        std::string(kOutDir) + "/spans-" + args.workload + ".tsv";
    write_spans(path, spans, t0);
    lines.push_back("spans: " + std::to_string(spans.size()) + " -> " + path);
  }

  {
    std::string l = "pass pps:";
    for (const PassResult& p : passes) {
      char buf[32];
      std::snprintf(buf, sizeof buf, " %s%.0f", p.traced ? "t" : "",
                    static_cast<double>(p.packets) * 1e9 /
                        static_cast<double>(p.wall_ns));
      l += buf;
    }
    lines.push_back(l);
  }

  char fail_line[200];
  std::snprintf(fail_line, sizeof fail_line,
                "fail_frac: %.6g (failed %llu / attempted %llu)",
                ratio(failed, attempted),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
  lines.push_back(fail_line);

  char stamp[400];
  std::snprintf(stamp, sizeof stamp,
                "{\"nproc\": %u, \"compiler\": %s, \"build_type\": %s, "
                "\"shards\": %zu, \"seed\": %u, \"workload\": %s, "
                "\"trace\": %d, \"seconds\": %g, \"passes\": %zu, "
                "\"input_digest\": \"%016llx\", \"packets_per_pass\": %llu, "
                "\"reports_per_pass\": %llu, \"crossings_per_pass\": %zu}",
                std::thread::hardware_concurrency(),
                json_str(PERF_COMPILER).c_str(),
                json_str(PERF_BUILD_TYPE).c_str(), kShards, args.seed,
                json_str(args.workload).c_str(), args.trace, args.seconds,
                passes.size(),
                static_cast<unsigned long long>(trace_digest(w->input())),
                static_cast<unsigned long long>(passes[0].packets),
                static_cast<unsigned long long>(passes[0].reports),
                passes[0].lag_ms.size() + passes[0].update_ms.size());

  for (const std::string& l : lines) std::printf("%s\n", l.c_str());
  for (const Metric& m : metrics)
    std::printf("metric %-32s %14.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  std::printf("stamp %s\n", stamp);

  const std::string result =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(attempted) +
      ", \"failed\": " + std::to_string(failed) +
      ", \"metrics\": " + metrics_json(metrics) + "}";
  const std::string rpath = std::string(kOutDir) + "/result-" + args.workload +
                            "-" + std::to_string(args.seed) + "-trace" +
                            std::to_string(args.trace) + ".json";
  if (FILE* f = std::fopen(rpath.c_str(), "w")) {
    std::fprintf(f, "{\"stamp\": %s, \"checks\": [", stamp);
    for (std::size_t i = 0; i < checks.size(); ++i)
      std::fprintf(f, "%s{\"name\": %s, \"ok\": %s, \"detail\": %s}",
                   i ? ", " : "", json_str(checks[i].name).c_str(),
                   checks[i].ok ? "true" : "false",
                   json_str(checks[i].detail).c_str());
    std::fprintf(f, "], \"lines\": [");
    for (std::size_t i = 0; i < lines.size(); ++i)
      std::fprintf(f, "%s%s", i ? ", " : "", json_str(lines[i]).c_str());
    std::fprintf(f, "], \"result\": %s}\n", result.c_str());
    std::fclose(f);
  }
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace perf

int main(int argc, char** argv) {
  perf::Args args;
  if (!perf::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: newton_perf --workload backbone|pcap_detectors|"
                 "tenant_churn --seed N --seconds S --trace 0|1\n");
    return 2;
  }
  try {
    return perf::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "newton_perf: %s\n", e.what());
    return 1;
  }
}
