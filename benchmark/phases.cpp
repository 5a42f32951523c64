#include "phases.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <span>
#include <string>
#include <thread>
#include <utility>

#include "core/offline_dp.h"
#include "core/online_sc.h"
#include "engine/ingress.h"
#include "engine/spsc_ring.h"
#include "engine/streaming_engine.h"
#include "model/schedule_validator.h"
#include "scenlab/network_sim.h"
#include "service/data_service.h"
#include "util/stats.h"

namespace mcdc::bench {

namespace {

using Clock = std::chrono::steady_clock;

double secs(Clock::time_point from, Clock::time_point to = Clock::now()) {
  return std::chrono::duration<double>(to - from).count();
}

Clock::duration span_of(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

double median(std::vector<double> v) {
  return v.empty() ? 0.0 : percentile(std::move(v), 50.0);
}

/// Host CPU time in clock ticks from /proc/stat: all of it, and the part
/// the hypervisor gave to other guests (steal). Zeros when unreadable.
struct CpuTicks {
  double total = 0.0;
  double steal = 0.0;
};

CpuTicks cpu_ticks() {
  CpuTicks t;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  double v = 0.0;
  for (int field = 0; field < 8 && stat >> v; ++field) {
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

constexpr std::size_t kServiceChunk = 4096;  ///< records per request_span
constexpr std::size_t kSubmitSpan = 1024;    ///< closed-loop span size
constexpr std::size_t kPacedSpan = 64;       ///< open-loop span size
constexpr std::size_t kTraceCapacity = 1u << 20;

// The host's speed drifts and stalls for stretches of seconds, so every
// measurement is taken as one short sample per round, open-loop segments
// included, and the rounds repeat across the whole budget: each median then
// mixes samples from the whole run.
constexpr int kMinRounds = 5;
constexpr int kProbeReps = 5;

// Open-loop accounting.
constexpr double kSegmentS = 0.5;  ///< open-loop time per round
constexpr double kWindowS = 0.25;  ///< p99 window; the first one is dropped
constexpr std::size_t kMinWindowSpans = 1000;  ///< >= 10 samples past p99
constexpr double kSloUs = 1000.0;   ///< loadgen.slo_miss_frac limit
constexpr double kMaxLagUs = 50.0;  ///< generator lag p99 validity limit
constexpr double kDrainTimeoutS = 30.0;
constexpr double kMaxStealFrac = 0.01;  ///< host steal above this flags the run

/// validate_schedule is quadratic in the worst case; longer items are
/// validated on their first kValidateMaxN requests (and always repriced).
constexpr RequestIndex kValidateMaxN = 20000;

/// Runs `body(p)` on `n` threads that start together once all exist, each
/// adopting the caller's current span as parent. Returns the wall time from
/// the common start until every thread has joined; rethrows the first
/// exception a thread raised.
double run_threads(const Tracer& tr, int n, const std::function<void(int)>& body) {
  const std::int64_t parent = Tracer::current();
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(n));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  for (int p = 0; p < n; ++p) {
    threads.emplace_back([&, p] {
      tr.adopt(parent, static_cast<std::uint32_t>(p + 1));
      ready.fetch_add(1, std::memory_order_release);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      try {
        body(p);
      } catch (...) {
        errors[static_cast<std::size_t>(p)] = std::current_exception();
      }
    });
  }
  while (ready.load(std::memory_order_acquire) < n) std::this_thread::yield();
  const auto t0 = Clock::now();
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  const double elapsed = secs(t0);
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return elapsed;
}

/// What service_instances(stream) yields, without the per-server index a
/// RequestSequence builds: each item's requests in item-local time.
struct ItemRuns {
  struct Item {
    ServerId origin = kNoServer;
    std::size_t begin = 0;  ///< into requests
    std::size_t end = 0;
  };
  std::vector<Request> requests;
  std::vector<Item> items;  ///< ascending item id
};

ItemRuns group_by_item(const std::vector<MultiItemRequest>& stream,
                       int num_items) {
  // Counting sort by item id; an item's first record is its birth.
  std::vector<std::size_t> start(static_cast<std::size_t>(num_items) + 1, 0);
  for (const MultiItemRequest& r : stream) ++start[static_cast<std::size_t>(r.item) + 1];
  for (std::size_t i = 1; i < start.size(); ++i) start[i] += start[i - 1];
  std::vector<MultiItemRequest> sorted(stream.size());
  std::vector<std::size_t> next(start.begin(), start.end() - 1);
  for (const MultiItemRequest& r : stream) {
    sorted[next[static_cast<std::size_t>(r.item)]++] = r;
  }
  ItemRuns out;
  out.requests.reserve(stream.size());
  for (std::size_t item = 0; item + 1 < start.size(); ++item) {
    const std::size_t b = start[item];
    const std::size_t e = start[item + 1];
    if (b == e) continue;
    ItemRuns::Item run{sorted[b].server, out.requests.size(), 0};
    for (std::size_t k = b + 1; k < e; ++k) {
      out.requests.push_back({sorted[k].server, sorted[k].time - sorted[b].time});
    }
    run.end = out.requests.size();
    out.items.push_back(run);
  }
  return out;
}

struct EngineSummary {
  double producer_stalls = 0, queue_max_depth = 0, batch_mean = 0,
         shard_skew = 0, merge_ties = 0, merge_stalls = 0, merge_depth_max = 0;
};

EngineSummary summarize(const EngineStats& s) {
  EngineSummary out;
  out.producer_stalls = static_cast<double>(s.stalls);
  double batches = 0, batched = 0, most = 0, total = 0;
  for (const ShardStats& sh : s.shards) {
    out.queue_max_depth =
        std::max(out.queue_max_depth, static_cast<double>(sh.queue.max_depth));
    batches += static_cast<double>(sh.batches.batches);
    batched += static_cast<double>(sh.batches.requests);
    most = std::max(most, static_cast<double>(sh.requests));
    total += static_cast<double>(sh.requests);
    out.merge_ties += static_cast<double>(sh.ties_broken);
    out.merge_stalls += static_cast<double>(sh.merge_stalls);
    out.merge_depth_max =
        std::max(out.merge_depth_max, static_cast<double>(sh.merge_depth_max));
  }
  out.batch_mean = batches > 0 ? batched / batches : 0.0;
  out.shard_skew =
      total > 0 ? most * static_cast<double>(s.shards.size()) / total : 0.0;
  return out;
}

/// Repeated passes of one check: how many ran, over how many records, and
/// the first failure seen.
struct Tally {
  int passes = 0;
  std::uint64_t records = 0;
  std::string failure;

  void add(std::uint64_t n, const std::string& diff) {
    ++passes;
    records += n;
    if (failure.empty()) failure = diff;
  }
};

/// The open loop: one warm engine, and the calling thread as its load
/// generator, separate from the engine's workers. Each segment() sends
/// 64-record spans of the cycled stream on a fixed schedule, span k through
/// session k mod producers, at its due time, late or not. While it waits
/// it polls every session's in_flight(): completion-order pairing counts a
/// session's j-th span complete once the session has retired j + 1 spans'
/// worth of records, and times it from its due time.
class OpenLoop {
 public:
  OpenLoop(const WorkloadSpec& w, const ServingCostModel& cm, const EngineConfig& cfg,
           const std::vector<MultiItemRequest>& stream, Tracer& tr)
      : engine_(w.servers, cm, cfg),
        cycled_(stream),
        tr_(tr),
        interval_s_(static_cast<double>(kPacedSpan) / (w.paced_mreq_s * 1e6)) {
    for (int p = 0; p < w.producers; ++p) sessions_.push_back(engine_.open_producer());
    const std::size_t producers = sessions_.size();
    base_.assign(producers, 0);
    sent_.assign(producers, 0);
    done_.assign(producers, 0);
    // Warm-up: one pass over the stream as fast as the engine takes it, so
    // every item is born and its state touched before any span is timed.
    Tracer::Span span(tr_, "open.warmup", stream.size());
    std::vector<MultiItemRequest> buf(kSubmitSpan);
    for (std::size_t k = 0; next_record_ < stream.size(); ++k) {
      const std::size_t len = std::min<std::size_t>(kSubmitSpan, stream.size() - next_record_);
      cycled_.fill(next_record_, 1, {buf.data(), len});
      sessions_[k % producers].submit_span({buf.data(), len});
      next_record_ += len;
    }
    // Wait until at most a span per session is in flight: the merge holds
    // each session's newest records until the others move on.
    const auto limit = Clock::now() + span_of(1.0);
    while (in_flight() > kSubmitSpan * producers && Clock::now() < limit) {
      std::this_thread::yield();
    }
    for (std::size_t p = 0; p < producers; ++p) base_[p] = sessions_[p].in_flight();
  }

  /// Sends `seconds` worth of spans, then waits for them to retire, except
  /// the newest span of each other session, which the merge may hold until
  /// the next segment (such a span is not timed; see held).
  void segment(double seconds, double window_s) {
    Tracer::Span span(tr_, "open.segment");
    ++segment_;
    const auto origin = Clock::now();
    const std::size_t first_window = windows.size();
    const auto n = static_cast<std::uint64_t>(std::max(1.0, std::floor(seconds / interval_s_)));
    windows.resize(first_window + static_cast<std::size_t>(
                                      std::ceil(static_cast<double>(n) * interval_s_ / window_s)));
    const std::size_t producers = sessions_.size();
    std::vector<MultiItemRequest> buf(kPacedSpan);
    for (std::uint64_t j = 0; j < n; ++j) {
      const double offset = static_cast<double>(j) * interval_s_;
      const auto at = origin + span_of(offset);
      while (Clock::now() < at) poll();
      lag_us.push_back(secs(at) * 1e6);
      cycled_.fill(next_record_, 1, buf);
      next_record_ += kPacedSpan;
      const std::size_t p = due_.size() % producers;
      due_.push_back(at);
      window_.push_back(first_window + static_cast<std::size_t>(offset / window_s));
      segment_of_.push_back(segment_);
      {
        Tracer::Span submit(tr_, "engine.submit_span", kPacedSpan);
        sessions_[p].submit_span(buf);
      }
      ++sent_[p];
      poll();
    }
    const auto limit = Clock::now() + span_of(1.0);
    while (pending() + 1 > producers && Clock::now() < limit) poll();
  }

  /// Closes the sessions, waits for every span, and finishes the engine.
  /// `drained` is false if spans were still in flight at the drain limit.
  ServiceReport finish(bool& drained) {
    ++segment_;
    for (IngressSession& s : sessions_) s.close();
    const auto limit = Clock::now() + span_of(kDrainTimeoutS);
    while (pending() > 0 && Clock::now() < limit) poll();
    drained = pending() == 0;
    Tracer::Span span(tr_, "engine.finish");
    return engine_.finish();
  }

  const StreamingEngine& engine() const { return engine_; }
  /// Records submitted so far, warm-up included: a prefix of the cycled stream.
  std::uint64_t records() const { return next_record_; }

  std::vector<std::vector<double>> windows;  ///< span latency (us) per window
  std::vector<double> lag_us;                ///< send time minus due time
  std::uint64_t backlog_max = 0;             ///< peak in_flight() over sessions
  std::uint64_t held = 0;  ///< spans that retired after their segment ended

 private:
  std::uint64_t in_flight() const {
    std::uint64_t n = 0;
    for (const IngressSession& s : sessions_) n += s.in_flight();
    return n;
  }
  std::uint64_t pending() const {
    std::uint64_t n = 0;
    for (std::size_t p = 0; p < sessions_.size(); ++p) n += sent_[p] - done_[p];
    return n;
  }
  void poll() {
    const std::size_t producers = sessions_.size();
    std::uint64_t backlog = 0;
    for (std::size_t p = 0; p < producers; ++p) {
      const std::uint64_t in_flight = sessions_[p].in_flight();
      const auto now = Clock::now();
      backlog += in_flight;
      // Warm-up records still in flight retire first (FIFO per shard).
      const std::uint64_t owed = base_[p] + sent_[p] * kPacedSpan;
      const std::uint64_t retired = owed > in_flight ? owed - in_flight : 0;
      while (done_[p] < sent_[p] && retired >= base_[p] + (done_[p] + 1) * kPacedSpan) {
        const std::uint64_t k = done_[p] * producers + p;
        if (segment_of_[k] == segment_) {
          windows[window_[k]].push_back(secs(due_[k], now) * 1e6);
        } else {
          ++held;
        }
        ++done_[p];
      }
    }
    backlog_max = std::max(backlog_max, backlog);
  }

  StreamingEngine engine_;
  std::vector<IngressSession> sessions_;
  const CycledStream cycled_;
  Tracer& tr_;
  const double interval_s_;
  std::uint64_t next_record_ = 0;
  std::vector<std::uint64_t> base_, sent_, done_;  ///< per session
  // Per span, in send order.
  std::vector<Clock::time_point> due_;
  std::vector<std::size_t> window_;
  std::vector<std::uint32_t> segment_of_;
  std::uint32_t segment_ = 0;
};

/// Everything a run shares between its phases.
class Run {
 public:
  Run(const WorkloadSpec& w, const RunOptions& opt)
      : w_(w), opt_(opt), tr_(opt.trace, opt.trace ? kTraceCapacity : 0) {
    sc_opts_.recording = RecordingMode::kCostsOnly;
    ecfg_.num_shards = w.shards;
    ecfg_.service_options = sc_opts_;
  }

  RunResult go();

 private:
  void e2e(const char* name, const char* unit, double v) {
    e2e_.push_back({name, unit, v});
  }
  void layer(const char* name, const char* unit, double v) {
    layer_.push_back({name, unit, v});
  }
  /// Book `records` attempted; on failure, as failed with the reason.
  void check(bool ok, std::uint64_t records, const std::string& what) {
    out_.attempted += records;
    if (ok) {
      out_.checks.push_back(what);
    } else {
      out_.failed += records;
      out_.failures.push_back(what);
    }
  }
  void check(const Tally& t, const std::string& what) {
    check(t.failure.empty(), t.records,
          std::to_string(t.passes) + " " + what +
              (t.failure.empty() ? "" : " — " + t.failure));
  }

  ServiceReport serve_serially(std::span<const MultiItemRequest> records) {
    OnlineDataService svc(w_.servers, cm_, sc_opts_);
    for (std::size_t k = 0; k < records.size(); k += kServiceChunk) {
      svc.request_span(records.subspan(k, std::min(kServiceChunk, records.size() - k)));
    }
    return svc.finish();
  }

  // One sample each; go() interleaves them in rounds.
  void setup_sample();
  void serial_sample();
  double engine_pass(Tracer& tr, bool telemetry);
  void engine_sample();
  void plan_sample();
  void sim_sample();

  void finish_open_loop(OpenLoop& open);
  void verify_plan();
  void probe_phase();
  void report();
  void finish_trace();

  const WorkloadSpec& w_;
  const RunOptions& opt_;
  Tracer tr_;
  Tracer off_{false, 0};
  const CostModel cm_{1.0, 1.0};
  SpeculativeCachingOptions sc_opts_;
  EngineConfig ecfg_;

  // Inputs.
  std::vector<MultiItemRequest> stream_;
  std::vector<std::vector<MultiItemRequest>> slices_;  ///< producers > 1
  std::vector<MultiItemRequest> plan_prefix_;
  std::vector<ItemInstance> instances_;  ///< of plan_prefix_, rebuilt by setup
  double cells_ = 0.0;                   ///< sum of n * m over instances_
  SimWindow sim_;
  scenlab::ScenarioConfig sim_cfg_;

  // Samples, one per round unless noted.
  std::vector<double> setup_s_, model_s_;
  std::vector<double> serial_rate_, chunk_ns_;  ///< chunk_ns_: per call
  std::vector<double> engine_s_, traced_s_, submit_ns_;
  std::vector<EngineSummary> engine_sums_;
  std::vector<double> plan_full_s_, plan_forward_s_;
  std::vector<double> sim_rate_, sim_events_;
  ServiceReport reference_;  ///< serial report of the whole stream (untimed)
  std::size_t resident_ = 0, live_ = 0, local_ = 0;
  Cost opt_total_ = 0.0;
  double latency_p50_us_ = 0.0, latency_p99_us_ = 0.0, cost_ratio_ = 0.0;
  scenlab::NetworkRunResult sim_first_;
  Tally serial_tally_, engine_tally_, sim_tally_;

  std::vector<Metric> e2e_;
  std::vector<Metric> layer_;
  RunResult out_;
};

RunResult Run::go() {
  stream_ = make_stream(w_, opt_.seed);
  for (int p = 0; w_.producers > 1 && p < w_.producers; ++p) {
    slices_.push_back(producer_slice(stream_, p, w_.producers));
  }
  const auto plan_n = std::min<std::size_t>(static_cast<std::size_t>(w_.plan_requests),
                                            stream_.size());
  plan_prefix_.assign(stream_.begin(), stream_.begin() + static_cast<std::ptrdiff_t>(plan_n));
  sim_ = sim_window(stream_, w_.sim_requests, w_.servers);
  sim_cfg_.load.num_servers = w_.servers;
  sim_cfg_.load.num_items = sim_.items;
  sim_cfg_.load.duration = sim_.requests.back().time;
  // Size the links to the stream: every server's transfer slots together
  // carry four times the arrival rate, so links stay well under saturation.
  const double xfer =
      std::min(0.5, 0.25 * w_.servers * sim_cfg_.transfer_slots / w_.arrival_rate);
  sim_cfg_.bandwidth = sim_cfg_.item_size / xfer;
  sim_cfg_.slo = 1.5 * xfer;
  reference_ = serve_serially(stream_);

  const CpuTicks before = cpu_ticks();
  {
    Tracer::Span root(tr_, w_.name);
    EngineConfig open_cfg = ecfg_;
    open_cfg.telemetry = opt_.trace;
    OpenLoop open(w_, cm_, open_cfg, stream_, tr_);
    // Short budgets (--quick) shrink the open-loop segments and windows.
    const double segment_s = std::min(kSegmentS, opt_.seconds / 10);
    const double window_s = std::min(kWindowS, segment_s / 2);
    {
      Tracer::Span rounds(tr_, "phase.rounds");
      const auto start = Clock::now();
      for (int r = 0; r < kMinRounds || secs(start) < opt_.seconds; ++r) {
        setup_sample();
        serial_sample();
        engine_sample();
        plan_sample();
        sim_sample();
        open.segment(segment_s, window_s);
      }
    }
    finish_open_loop(open);
    verify_plan();
    if (opt_.trace) probe_phase();
  }
  const CpuTicks after = cpu_ticks();
  const double ticks = after.total - before.total;
  const double steal = ticks > 0 ? (after.steal - before.steal) / ticks : 0.0;
  layer("host.steal_frac", "ratio", steal);
  if (steal > kMaxStealFrac) {
    char note[160];
    std::snprintf(note, sizeof(note),
                  "host: the hypervisor took %.1f %% of CPU time during the "
                  "run; its timings are suspect",
                  100.0 * steal);
    out_.warnings.push_back(note);
  }
  report();
  if (opt_.trace) {
    finish_trace();
    std::sort(layer_.begin(), layer_.end(),
              [](const Metric& a, const Metric& b) { return a.name < b.name; });
    out_.metrics = std::move(layer_);
  } else {
    out_.metrics = std::move(e2e_);
    out_.also = std::move(layer_);
  }
  return std::move(out_);
}

void Run::setup_sample() {
  // Construction of the serving stack and the planner's inputs; torn down
  // (untimed) before the next sample.
  instances_.clear();
  const auto t0 = Clock::now();
  OnlineDataService svc(w_.servers, cm_, sc_opts_);
  StreamingEngine engine(w_.servers, cm_, ecfg_);
  std::vector<IngressSession> sessions;
  for (int p = 0; p < w_.producers; ++p) sessions.push_back(engine.open_producer());
  const auto t1 = Clock::now();
  {
    Tracer::Span s(tr_, "model.service_instances", plan_prefix_.size());
    instances_ = service_instances(plan_prefix_, w_.servers);
  }
  const auto t2 = Clock::now();
  setup_s_.push_back(secs(t0, t2));
  model_s_.push_back(secs(t1, t2));
  cells_ = 0.0;
  for (const ItemInstance& inst : instances_) {
    cells_ += static_cast<double>(inst.sequence.n()) * inst.sequence.m();
  }
}

void Run::serial_sample() {
  const std::size_t n = stream_.size();
  Tracer::Span pass(tr_, "serial.pass", n);
  OnlineDataService svc(w_.servers, cm_, sc_opts_);
  std::size_t local = 0;
  const auto t0 = Clock::now();
  for (std::size_t k = 0; k < n; k += kServiceChunk) {
    const std::size_t len = std::min(kServiceChunk, n - k);
    const auto c0 = Clock::now();
    {
      Tracer::Span s(tr_, "service.request_span", len);
      local += svc.request_span({stream_.data() + k, len});
    }
    chunk_ns_.push_back(secs(c0) * 1e9 / static_cast<double>(len));
  }
  serial_rate_.push_back(static_cast<double>(n) / secs(t0) / 1e6);
  resident_ = svc.resident_bytes();
  live_ = svc.live_items();
  local_ = local;
  serial_tally_.add(n, report_diff(reference_, svc.finish()));
}

double Run::engine_pass(Tracer& tr, bool telemetry) {
  Tracer::Span pass(tr, "engine.pass", stream_.size());
  EngineConfig cfg = ecfg_;
  cfg.telemetry = telemetry;
  StreamingEngine engine(w_.servers, cm_, cfg);
  std::vector<IngressSession> sessions;
  for (int p = 0; p < w_.producers; ++p) sessions.push_back(engine.open_producer());
  std::vector<double> submit_ns(sessions.size(), 0.0);
  const double produce_s = run_threads(tr, w_.producers, [&](int p) {
    const auto& src = w_.producers == 1 ? stream_ : slices_[static_cast<std::size_t>(p)];
    IngressSession& s = sessions[static_cast<std::size_t>(p)];
    double ns = 0.0;
    for (std::size_t k = 0; k < src.size(); k += kSubmitSpan) {
      const std::size_t len = std::min(kSubmitSpan, src.size() - k);
      const auto a = Clock::now();
      {
        Tracer::Span span(tr, "engine.submit_span", len);
        s.submit_span({src.data() + k, len});
      }
      ns += secs(a) * 1e9;
    }
    s.close();
    submit_ns[static_cast<std::size_t>(p)] = ns;
  });
  const auto t0 = Clock::now();
  ServiceReport rep;
  {
    Tracer::Span span(tr, "engine.finish");
    rep = engine.finish();
  }
  const double pass_s = produce_s + secs(t0);
  std::string diff = report_diff(reference_, rep);
  if (diff.empty() && engine.stats().dropped > 0) {
    diff = std::to_string(engine.stats().dropped) + " records dropped";
  }
  engine_tally_.add(stream_.size(), diff);
  if (telemetry) {
    double ns = 0.0;
    for (const double v : submit_ns) ns += v;
    submit_ns_.push_back(ns / static_cast<double>(stream_.size()));
    engine_sums_.push_back(summarize(engine.stats()));
  }
  return pass_s;
}

void Run::engine_sample() {
  // The traced run adds a traced pass per round: the time ratio of the two
  // is the tracing overhead, and the per-layer numbers come from it.
  engine_s_.push_back(engine_pass(off_, false));
  if (opt_.trace) traced_s_.push_back(engine_pass(tr_, true));
}

void Run::plan_sample() {
  // The traced run alternates rounds with and without reconstruction.
  OfflineDpOptions options;
  options.reconstruct_schedule = !opt_.trace || plan_full_s_.size() <= plan_forward_s_.size();
  Tracer::Span span(tr_, "core.solve_offline", static_cast<std::uint64_t>(cells_));
  const auto t0 = Clock::now();
  Cost total = 0.0;
  for (const ItemInstance& inst : instances_) {
    total += solve_offline(inst.sequence, cm_, options).optimal_cost;
  }
  (options.reconstruct_schedule ? plan_full_s_ : plan_forward_s_).push_back(secs(t0));
  opt_total_ = total;
}

void Run::sim_sample() {
  Tracer::Span span(tr_, "scenlab.run_network_sim", sim_.requests.size());
  const auto t0 = Clock::now();
  scenlab::NetworkRunResult res = scenlab::run_network_sim(sim_cfg_, cm_, sim_.requests);
  const double dt = secs(t0);
  sim_rate_.push_back(static_cast<double>(sim_.requests.size()) / dt / 1e6);
  sim_events_.push_back(static_cast<double>(res.events) / dt);
  std::string diff;
  if (!res.feasible) diff = "infeasible: " + res.violations.front();
  if (res.total_cost != res.caching_cost + res.transfer_cost) {
    diff = "caching + transfer != total";
  }
  if (sim_tally_.passes > 0 &&
      (res.total_cost != sim_first_.total_cost || res.events != sim_first_.events)) {
    diff = "replay differs from the first run";
  }
  sim_tally_.add(sim_.requests.size(), diff);
  if (sim_tally_.passes == 1) sim_first_ = std::move(res);
}

void Run::finish_open_loop(OpenLoop& open) {
  bool drained = false;
  const ServiceReport rep = open.finish(drained);

  // Verification: the serial service on the same cycled prefix.
  const std::uint64_t total = open.records();
  {
    Tracer::Span span(tr_, "verify.open_serial", total);
    const CycledStream cycled(stream_);
    OnlineDataService svc(w_.servers, cm_, sc_opts_);
    std::vector<MultiItemRequest> chunk(kServiceChunk);
    for (std::uint64_t first = 0; first < total; first += kServiceChunk) {
      const std::size_t len =
          static_cast<std::size_t>(std::min<std::uint64_t>(kServiceChunk, total - first));
      cycled.fill(first, 1, {chunk.data(), len});
      svc.request_span({chunk.data(), len});
    }
    const std::string diff = report_diff(svc.finish(), rep);
    check(diff.empty() && drained && open.engine().stats().dropped == 0, total,
          "open loop: report bit-identical to serial (" + std::to_string(open.held) +
              " spans held by the merge across a pause, not timed)" +
              std::string(drained ? "" : " — spans still in flight at the drain limit") +
              (diff.empty() ? "" : " — " + diff));
  }

  // p50 over every span after the first window; p99 per window and the
  // median over windows, so one bad stretch of the host moves few windows.
  std::vector<double> lat, p99s;
  for (std::size_t i = 1; i < open.windows.size(); ++i) {
    lat.insert(lat.end(), open.windows[i].begin(), open.windows[i].end());
    if (open.windows[i].size() >= kMinWindowSpans) {
      p99s.push_back(percentile(open.windows[i], 99.0));
    }
  }
  if (p99s.empty() && !lat.empty()) p99s.push_back(percentile(lat, 99.0));
  const double lag_p99 = open.lag_us.empty() ? 0.0 : percentile(open.lag_us, 99.0);
  if (lag_p99 > kMaxLagUs) {
    char note[160];
    std::snprintf(note, sizeof(note),
                  "open loop: generator lag p99 %.1f us > %.0f us; the latency "
                  "numbers of this run are suspect",
                  lag_p99, kMaxLagUs);
    out_.warnings.push_back(note);
  }
  std::size_t misses = 0;
  for (const double v : lat) misses += v > kSloUs ? 1 : 0;
  latency_p50_us_ = median(lat);
  latency_p99_us_ = median(p99s);
  const StreamingEngine& engine = open.engine();
  layer("engine.backlog_max", "count", static_cast<double>(open.backlog_max));
  layer("engine.paced_batch_mean", "count", summarize(engine.stats()).batch_mean);
  layer("loadgen.lag_p99_us", "us", lag_p99);
  layer("loadgen.slo_miss_frac", "ratio",
        lat.empty() ? 0.0 : static_cast<double>(misses) / static_cast<double>(lat.size()));
  if (!opt_.trace) return;
  layer("engine.queue_wait_p50_us", "us", engine.queue_wait_snapshot().p50_ns() / 1e3);
  layer("engine.queue_wait_p99_us", "us", engine.queue_wait_snapshot().p99_ns() / 1e3);
  layer("engine.apply_p50_us", "us", engine.apply_snapshot().p50_ns() / 1e3);
  layer("engine.apply_p99_us", "us", engine.apply_snapshot().p99_ns() / 1e3);
  layer("engine.merge_stall_p99_us", "us", engine.merge_stall_snapshot().p99_ns() / 1e3);
  layer("engine.e2e_p50_us", "us", engine.e2e_snapshot().p50_ns() / 1e3);
  layer("engine.e2e_p99_us", "us", engine.e2e_snapshot().p99_ns() / 1e3);
}

void Run::verify_plan() {
  // Every optimal schedule is feasible and reprices to the optimum; SC on
  // the same prefix lies within [OPT, 3 OPT].
  Tracer::Span span(tr_, "verify.plan", plan_prefix_.size());
  OfflineDpOptions options;
  std::size_t bad = 0;
  for (const ItemInstance& inst : instances_) {
    const OfflineDpResult res = solve_offline(inst.sequence, cm_, options);
    bool ok = std::abs(res.schedule.cost(cm_) - res.optimal_cost) <=
              1e-9 * std::max(1.0, res.optimal_cost);
    if (inst.sequence.n() <= kValidateMaxN) {
      ok = ok && validate_schedule(res.schedule, inst.sequence).ok;
    } else {
      std::vector<Request> head;
      for (RequestIndex i = 1; i <= kValidateMaxN; ++i) head.push_back(inst.sequence.request(i));
      const RequestSequence seq(inst.sequence.m(), std::move(head), inst.sequence.origin());
      const OfflineDpResult part = solve_offline(seq, cm_, options);
      ok = ok && validate_schedule(part.schedule, seq).ok &&
           std::abs(part.schedule.cost(cm_) - part.optimal_cost) <=
               1e-9 * std::max(1.0, part.optimal_cost);
    }
    bad += ok ? 0 : 1;
  }
  check(bad == 0, plan_prefix_.size(),
        "plan: " + std::to_string(instances_.size()) +
            " optimal schedules validate and reprice to the optimum" +
            (bad == 0 ? "" : " — " + std::to_string(bad) + " items fail"));
  const Cost sc_total = plan_prefix_.size() == stream_.size()
                            ? reference_.total_cost
                            : serve_serially(plan_prefix_).total_cost;
  const double ratio = sc_total / opt_total_;
  const bool bounded = opt_total_ <= sc_total * (1 + 1e-12) &&
                       sc_total <= 3.0 * opt_total_ * (1 + 1e-12);
  char buf[160];
  std::snprintf(buf, sizeof(buf), "plan: OPT <= SC <= 3 OPT (SC/OPT = %.6f)", ratio);
  check(bounded, plan_prefix_.size(), buf);
  cost_ratio_ = ratio;
}

void Run::probe_phase() {
  Tracer::Span phase(tr_, "phase.probes");
  // The SC kernel alone: every item's requests replayed back to back.
  const ItemRuns runs = group_by_item(stream_, w_.items);
  const double n = static_cast<double>(runs.requests.size());
  std::vector<double> sc_s;
  Cost sc_total = 0.0;
  std::size_t hits = 0, expirations = 0;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    Tracer::Span span(tr_, "core.sc_replay", runs.requests.size());
    const auto t0 = Clock::now();
    Cost total = 0.0;
    hits = expirations = 0;
    for (const ItemRuns::Item& item : runs.items) {
      SpeculativeCache sc(w_.servers, item.origin, cm_, sc_opts_);
      Time last = 0.0;
      for (std::size_t k = item.begin; k < item.end; ++k) {
        sc.observe(runs.requests[k].server, runs.requests[k].time);
        last = runs.requests[k].time;
      }
      sc.finish(last);
      total += sc.result().total_cost;
      hits += sc.result().hits;
      expirations += sc.result().expirations;
    }
    sc_s.push_back(secs(t0));
    sc_total = total;
  }
  check(sc_total == reference_.total_cost, runs.requests.size(),
        "core: SC replayed item by item costs exactly what the service booked");
  const double sc_ns = median(sc_s) * 1e9 / n;
  layer("core.sc_ns_per_req", "ns", sc_ns);
  layer("core.sc_hit_frac", "ratio", static_cast<double>(hits) / n);
  layer("core.sc_expirations_per_req", "ratio", static_cast<double>(expirations) / n);
  layer("service.lookup_ns_per_req", "ns", percentile(chunk_ns_, 50.0) - sc_ns);

  // The ring alone: one thread pushes the stream in submit-sized spans
  // through one SpscRing of the engine's lane capacity, another drains it.
  std::vector<IngressRecord> recs(stream_.size());
  std::uint64_t want = 0;
  for (std::size_t i = 0; i < stream_.size(); ++i) {
    recs[i].item = stream_[i].item;
    recs[i].server = stream_[i].server;
    recs[i].time = stream_[i].time;
    recs[i].seq = i + 1;
    want += i + 1;
  }
  std::vector<double> ring_s;
  bool ring_ok = true;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    Tracer::Span span(tr_, "engine.ring_probe", recs.size());
    SpscRing<IngressRecord> ring(ecfg_.queue_capacity);
    std::uint64_t got = 0;
    ring_s.push_back(run_threads(tr_, 2, [&](int role) {
      if (role == 0) {
        for (std::size_t k = 0; k < recs.size(); k += kSubmitSpan) {
          const std::size_t len = std::min(kSubmitSpan, recs.size() - k);
          std::size_t pushed = 0;
          while (pushed < len) {
            pushed += ring.try_push_span(recs.data() + k + pushed, len - pushed);
          }
        }
      } else {
        std::size_t seen = 0;
        while (seen < recs.size()) {
          seen += ring.consume_all([&](const IngressRecord& r) { got += r.seq; });
        }
      }
    }));
    ring_ok = ring_ok && got == want;
  }
  check(ring_ok, recs.size() * kProbeReps, "ring: every record arrives exactly once");
  layer("engine.ring_ns_per_req", "ns",
        median(ring_s) * 1e9 / static_cast<double>(recs.size()));
}

void Run::report() {
  check(serial_tally_, "serial passes give the reference report");
  check(engine_tally_, "closed-loop engine reports bit-identical to serial");
  check(sim_tally_, "simulations feasible, caching + transfer == total, replays identical");
  const double n = static_cast<double>(stream_.size());
  e2e("throughput_mreq_s", "Mreq/s", n / median(engine_s_) / 1e6);
  e2e("latency_p50_us", "us", latency_p50_us_);
  e2e("latency_p99_us", "us", latency_p99_us_);
  e2e("cost_ratio", "ratio", cost_ratio_);
  e2e("resident_mb", "MB", static_cast<double>(resident_) / 1e6);
  e2e("setup_s", "s", median(setup_s_));

  // Single-threaded timings: on a shared host they swing by a third from
  // run to run (see README), too much for a regression bound, so they are
  // per-layer numbers.
  layer("service.serial_mreq_s", "Mreq/s", median(serial_rate_));
  layer("core.dp_ns_per_cell", "ns", median(plan_full_s_) * 1e9 / cells_);
  layer("scenlab.sim_mreq_s", "Mreq/s", median(sim_rate_));
  layer("model.seq_build_ns_per_req", "ns",
        median(model_s_) * 1e9 / static_cast<double>(plan_prefix_.size()));
  layer("service.ns_per_req.p50", "ns", percentile(chunk_ns_, 50.0));
  layer("service.ns_per_req.p99", "ns", percentile(chunk_ns_, 99.0));
  layer("service.bytes_per_item", "B",
        static_cast<double>(resident_) / static_cast<double>(live_));
  layer("service.local_frac", "ratio", static_cast<double>(local_) / n);
  layer("scenlab.events_per_s", "1/s", median(sim_events_));
  layer("scenlab.slo_attain", "ratio",
        static_cast<double>(sim_first_.slo_met) / static_cast<double>(sim_first_.requests));
  layer("scenlab.event_queue_max", "count", static_cast<double>(sim_first_.max_queue));
  if (!opt_.trace) return;
  layer("core.dp_forward_ns_per_cell", "ns", median(plan_forward_s_) * 1e9 / cells_);
  layer("core.dp_reconstruct_ms", "ms",
        (median(plan_full_s_) - median(plan_forward_s_)) * 1e3);
  auto med = [&](double EngineSummary::*field) {
    std::vector<double> v;
    for (const EngineSummary& s : engine_sums_) v.push_back(s.*field);
    return median(v);
  };
  layer("trace.overhead_frac", "ratio", median(traced_s_) / median(engine_s_) - 1.0);
  layer("engine.submit_ns_per_req", "ns", median(submit_ns_));
  layer("engine.producer_stalls", "count", med(&EngineSummary::producer_stalls));
  layer("engine.queue_max_depth", "count", med(&EngineSummary::queue_max_depth));
  layer("engine.batch_mean", "count", med(&EngineSummary::batch_mean));
  layer("engine.shard_skew", "ratio", med(&EngineSummary::shard_skew));
  layer("engine.merge_ties", "count", med(&EngineSummary::merge_ties));
  layer("engine.merge_stalls", "count", med(&EngineSummary::merge_stalls));
  layer("engine.merge_depth_max", "count", med(&EngineSummary::merge_depth_max));
}

void Run::finish_trace() {
  out_.layers = tr_.layer_times();
  if (tr_.dropped() > 0) {
    out_.warnings.push_back("trace: " + std::to_string(tr_.dropped()) +
                            " spans past the buffer were not kept");
  }
  // Chrome-trace document, with self time per span name under otherData.
  std::string doc = tr_.chrome_json(std::string("mcdc-bench ") + w_.name);
  doc.pop_back();
  doc += ",\"otherData\":{\"self_ms\":{";
  for (std::size_t i = 0; i < out_.layers.size(); ++i) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%.6f", i ? "," : "",
                  out_.layers[i].name.c_str(), out_.layers[i].self_ms);
    doc += buf;
  }
  doc += "}}}";
  out_.trace_file = opt_.trace_dir + "/trace_" + w_.name + ".json";
  std::ofstream f(out_.trace_file);
  f << doc;
  if (!f) out_.warnings.push_back("trace: cannot write " + out_.trace_file);
}

}  // namespace

RunResult run_workload(const WorkloadSpec& w, const RunOptions& opt) {
  Run run(w, opt);
  return run.go();
}

}  // namespace mcdc::bench
