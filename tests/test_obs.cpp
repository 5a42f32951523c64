// Tests for the mcdc::obs subsystem: metrics registry, histograms, sinks,
// the scoped timer, and end-to-end instrumentation of SC / the DP / the
// service / the executor.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "core/offline_dp.h"
#include "core/online_sc.h"
#include "obs/observer.h"
#include "obs/scoped_timer.h"
#include "obs/sinks.h"
#include "service/data_service.h"
#include "sim/executor.h"
#include "util/rng.h"
#include "util/timer.h"
#include "workload/generators.h"

namespace mcdc {
namespace {

using obs::Event;
using obs::EventKind;

// --- tiny JSONL field extractors (the round-trip half of the sink test) ---

std::string json_field(const std::string& line, const std::string& name) {
  const std::string key = "\"" + name + "\":";
  const auto pos = line.find(key);
  if (pos == std::string::npos) return {};
  auto start = pos + key.size();
  auto end = start;
  if (line[start] == '"') {
    end = line.find('"', start + 1);
    return line.substr(start + 1, end - start - 1);
  }
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  return line.substr(start, end - start);
}

double json_number(const std::string& line, const std::string& name) {
  const std::string f = json_field(line, name);
  EXPECT_FALSE(f.empty()) << "missing field " << name << " in " << line;
  return std::strtod(f.c_str(), nullptr);
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

// The named latency histogram in a snapshot, or null when it is missing.
const obs::LatencyHistogramSnapshot* find_latency(
    const obs::MetricsSnapshot& snap, const std::string& name) {
  for (const auto& [n, h] : snap.latency) {
    if (n == name) return &h;
  }
  return nullptr;
}

// --- metrics registry ------------------------------------------------------

TEST(Metrics, CountersGaugesRegisterAndSnapshot) {
  obs::MetricsRegistry reg;
  reg.counter("a").inc();
  reg.counter("a").inc(4);
  reg.gauge("g").set(2.5);
  reg.gauge("g").add(0.5);

  // Re-registration returns the same object.
  EXPECT_EQ(&reg.counter("a"), &reg.counter("a"));
  EXPECT_EQ(&reg.gauge("g"), &reg.gauge("g"));

  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].first, "a");
  EXPECT_EQ(snap.counters[0].second, 5u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].second, 3.0);
}

TEST(Metrics, JsonAndCsvExport) {
  obs::MetricsRegistry reg;
  reg.counter("hits").inc(3);
  reg.gauge("replicas").set(2.0);
  reg.latency("lat_ns").record(4);  // bucket 2: [4, 8)

  const std::string json = reg.to_json();
  EXPECT_TRUE(json.starts_with(
      "{\"counters\":{\"hits\":3},\"gauges\":{\"replicas\":2},"
      "\"latency\":{\"lat_ns\":{\"counts\":[0,0,1,0,"))
      << json;
  EXPECT_NE(json.find("\"count\":1,\"sum_ns\":4,\"max_ns\":4,"),
            std::string::npos)
      << json;

  std::ostringstream csv;
  reg.write_csv(csv);
  // header + counter + gauge + (one occupied bucket + count/sum_ns/max_ns).
  EXPECT_EQ(split_lines(csv.str()),
            (std::vector<std::string>{
                "kind,name,key,value", "counter,hits,value,3",
                "gauge,replicas,value,2", "latency,lat_ns,le_8,1",
                "latency,lat_ns,count,1", "latency,lat_ns,sum_ns,4",
                "latency,lat_ns,max_ns,4"}));
}

// --- sinks -----------------------------------------------------------------

TEST(Sinks, JsonlRoundTrip) {
  std::ostringstream out;
  obs::JsonlSink sink(out);

  Event transfer;
  transfer.kind = EventKind::kTransferIssued;
  transfer.item = 3;
  transfer.request = 7;
  transfer.from = 1;
  transfer.server = 2;
  transfer.at = 4.25;
  transfer.cost_delta = 1.5;
  sink.on_event(transfer);

  Event served;
  served.kind = EventKind::kRequestServed;
  served.request = 7;
  served.server = 2;
  served.at = 4.25;
  served.hit = false;
  served.cost_delta = 1.5;
  sink.on_event(served);

  Event stage;
  stage.kind = EventKind::kDpStageDone;
  stage.stage = "forward";
  stage.micros = 12.5;
  sink.on_event(stage);

  EXPECT_EQ(sink.written(), 3u);
  const auto lines = split_lines(out.str());
  ASSERT_EQ(lines.size(), 3u);
  for (const auto& l : lines) {
    EXPECT_EQ(l.front(), '{');
    EXPECT_EQ(l.back(), '}');
  }
  EXPECT_EQ(json_field(lines[0], "ev"), "transfer_issued");
  EXPECT_DOUBLE_EQ(json_number(lines[0], "item"), 3.0);
  EXPECT_DOUBLE_EQ(json_number(lines[0], "from"), 1.0);
  EXPECT_DOUBLE_EQ(json_number(lines[0], "to"), 2.0);
  EXPECT_DOUBLE_EQ(json_number(lines[0], "t"), 4.25);
  EXPECT_DOUBLE_EQ(json_number(lines[0], "cost_delta"), 1.5);
  EXPECT_EQ(json_field(lines[1], "ev"), "request_served");
  EXPECT_EQ(json_field(lines[1], "hit"), "false");
  // item = -1 (single-instance) is omitted from the line.
  EXPECT_EQ(lines[1].find("\"item\""), std::string::npos);
  EXPECT_EQ(json_field(lines[2], "stage"), "forward");
  EXPECT_DOUBLE_EQ(json_number(lines[2], "micros"), 12.5);
}

TEST(Sinks, RingBufferKeepsNewestAndCountsAll) {
  obs::RingBufferSink ring(3);
  for (int i = 0; i < 5; ++i) {
    Event e;
    e.kind = i % 2 ? EventKind::kTransferIssued : EventKind::kRequestServed;
    e.request = i;
    ring.on_event(e);
  }
  EXPECT_EQ(ring.seen(), 5u);
  EXPECT_EQ(ring.dropped(), 2u);
  EXPECT_EQ(ring.count(EventKind::kRequestServed), 3u);
  EXPECT_EQ(ring.count(EventKind::kTransferIssued), 2u);
  const auto ev = ring.events();
  ASSERT_EQ(ev.size(), 3u);
  EXPECT_EQ(ev[0].request, 2);
  EXPECT_EQ(ev[2].request, 4);

  ring.clear();
  EXPECT_EQ(ring.seen(), 0u);
  EXPECT_TRUE(ring.events().empty());
}

// --- scoped timer ----------------------------------------------------------

TEST(ScopedTimer, FeedsHistogram) {
  obs::LatencyHistogram h;
  {
    obs::ScopedTimer t(&h);
    volatile double x = 0;
    for (int i = 0; i < 1000; ++i) x = x + 1.0;
  }
  { obs::ScopedTimer off(nullptr); }  // null histogram: no-op
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 1u);
  EXPECT_GT(s.sum_ns, 0u);
  EXPECT_EQ(s.max_ns, s.sum_ns);
}

TEST(ScopedTimer, TimerElapsedNsMonotone) {
  Timer t;
  const auto a = t.elapsed_ns();
  const auto b = t.elapsed_ns();
  EXPECT_GE(a, 0);
  EXPECT_GE(b, a);
}

// --- SC integration: events reconcile with the result ----------------------

TEST(ObsIntegration, ScEventsReconcileWithResult) {
  Rng rng(77);
  MobilityConfig cfg;
  cfg.num_servers = 6;
  cfg.num_requests = 400;
  const auto seq = gen_markov_mobility(rng, cfg);
  const CostModel cm(1.0, 2.0);

  obs::MetricsRegistry reg;
  obs::RingBufferSink ring(1 << 16);
  obs::Observer observer(&reg, &ring);

  SpeculativeCachingOptions opt;
  opt.epoch_transfers = 16;
  opt.observer = &observer;
  const auto res = run_speculative_caching(seq, cm, opt);

  // Exactly one TransferIssued per miss; one RequestServed per request.
  EXPECT_EQ(ring.count(EventKind::kTransferIssued), res.misses);
  EXPECT_EQ(ring.count(EventKind::kRequestServed),
            static_cast<std::uint64_t>(seq.n()));
  EXPECT_EQ(ring.count(EventKind::kEpochReset), res.epochs_completed);
  // Every copy born (initial + per transfer) eventually dies.
  EXPECT_EQ(ring.count(EventKind::kCopyBorn), 1 + res.misses);
  EXPECT_EQ(ring.count(EventKind::kCopyExpired), ring.count(EventKind::kCopyBorn));

  // Booked cost reconciles exactly: transfers book lambda, copy deaths book
  // mu * lifetime, summed in emission order (identical to the accumulators).
  Cost transfer_sum = 0.0, caching_sum = 0.0, served_sum = 0.0;
  for (const auto& e : ring.events()) {
    switch (e.kind) {
      case EventKind::kTransferIssued: transfer_sum += e.cost_delta; break;
      case EventKind::kCopyExpired: caching_sum += e.cost_delta; break;
      case EventKind::kRequestServed: served_sum += e.cost_delta; break;
      default: break;
    }
  }
  EXPECT_EQ(transfer_sum, res.transfer_cost);
  EXPECT_EQ(caching_sum, res.caching_cost);
  EXPECT_EQ(transfer_sum + caching_sum, res.total_cost);
  EXPECT_EQ(served_sum, res.transfer_cost);  // per-request attribution mirror
  // ... and with the replayable schedule's own meter.
  EXPECT_NEAR(res.total_cost, res.schedule.cost(cm), 1e-9);

  // Registry counters agree with the result structs.
  const auto snap = reg.snapshot();
  for (const auto& [name, v] : snap.counters) {
    if (name == "cache_hits") { EXPECT_EQ(v, res.hits); }
    if (name == "cache_misses") { EXPECT_EQ(v, res.misses); }
    if (name == "transfers_issued") { EXPECT_EQ(v, res.misses); }
    if (name == "epoch_resets") { EXPECT_EQ(v, res.epochs_completed); }
  }
}

TEST(ObsIntegration, ObserverDoesNotChangeScResults) {
  Rng rng(123);
  BurstyConfig cfg;
  cfg.num_servers = 5;
  cfg.num_requests = 300;
  const auto seq = gen_bursty_pareto(rng, cfg);
  const CostModel cm(1.0, 1.0);

  const auto bare = run_speculative_caching(seq, cm);

  obs::MetricsRegistry reg;
  obs::Observer observer(&reg);
  SpeculativeCachingOptions opt;
  opt.observer = &observer;
  const auto traced = run_speculative_caching(seq, cm, opt);

  EXPECT_EQ(bare.total_cost, traced.total_cost);
  EXPECT_EQ(bare.hits, traced.hits);
  EXPECT_EQ(bare.misses, traced.misses);
}

// --- DP integration --------------------------------------------------------

TEST(ObsIntegration, DpEmitsStageEvents) {
  Rng rng(5);
  PoissonZipfConfig cfg;
  cfg.num_servers = 4;
  cfg.num_requests = 120;
  const auto seq = gen_poisson_zipf(rng, cfg);
  const CostModel cm(1.0, 1.0);

  obs::MetricsRegistry reg;
  obs::RingBufferSink ring;
  obs::Observer observer(&reg, &ring);
  OfflineDpOptions opt;
  opt.observer = &observer;
  const auto res = solve_offline(seq, cm, opt);
  ASSERT_TRUE(res.has_schedule);

  EXPECT_EQ(ring.count(EventKind::kDpStageDone), 3u);
  std::vector<std::string> stages;
  for (const auto& e : ring.events()) {
    if (e.kind == EventKind::kDpStageDone) stages.emplace_back(e.stage);
  }
  ASSERT_EQ(stages.size(), 3u);
  EXPECT_EQ(stages[0], "bounds");
  EXPECT_EQ(stages[1], "forward");
  EXPECT_EQ(stages[2], "reconstruct");
  const auto snap = reg.snapshot();
  const auto* stage_ns = find_latency(snap, "dp_stage_ns");
  ASSERT_NE(stage_ns, nullptr);
  EXPECT_EQ(stage_ns->count, 3u);

  // Skipping reconstruction drops that stage.
  obs::RingBufferSink ring2;
  obs::Observer observer2(nullptr, &ring2);
  OfflineDpOptions opt2;
  opt2.observer = &observer2;
  opt2.reconstruct_schedule = false;
  solve_offline(seq, cm, opt2);
  EXPECT_EQ(ring2.count(EventKind::kDpStageDone), 2u);
}

// --- service integration ---------------------------------------------------

TEST(ObsIntegration, ServiceEventStreamCarriesItemsAndAbsoluteTime) {
  Rng rng(31);
  const CostModel cm(1.0, 1.0);
  MultiItemConfig cfg;
  cfg.num_servers = 5;
  cfg.num_items = 12;
  cfg.num_requests = 600;
  const auto stream = gen_multi_item(rng, cfg);

  obs::MetricsRegistry reg;
  obs::RingBufferSink ring(1 << 17);
  obs::Observer observer(&reg, &ring);
  SpeculativeCachingOptions opt;
  opt.observer = &observer;

  OnlineDataService service(cfg.num_servers, cm, opt);
  for (const auto& r : stream) service.request(r.item, r.server, r.time);
  const auto rep = service.finish();
  ASSERT_EQ(ring.dropped(), 0u);

  // One RequestServed per stream request (births included), stamped with
  // the item id and the absolute stream time.
  EXPECT_EQ(ring.count(EventKind::kRequestServed), stream.size());
  std::size_t at = 0;
  Cost transfer_sum = 0.0, caching_sum = 0.0;
  for (const auto& e : ring.events()) {
    if (e.kind == EventKind::kRequestServed) {
      ASSERT_LT(at, stream.size());
      EXPECT_EQ(e.item, stream[at].item);
      EXPECT_EQ(e.server, stream[at].server);
      EXPECT_DOUBLE_EQ(e.at, stream[at].time);
      ++at;
    } else if (e.kind == EventKind::kTransferIssued) {
      transfer_sum += e.cost_delta;
    } else if (e.kind == EventKind::kCopyExpired) {
      caching_sum += e.cost_delta;
    }
  }
  EXPECT_EQ(at, stream.size());
  EXPECT_NEAR(transfer_sum, rep.transfer_cost, 1e-9);
  EXPECT_NEAR(caching_sum, rep.caching_cost, 1e-9);
  EXPECT_NEAR(transfer_sum + caching_sum, rep.total_cost, 1e-9);

  // items_live gauge saw every birth; the resident-bytes gauge sampled a
  // non-trivial footprint (at least the service struct itself) at finish.
  bool saw_items_live = false;
  bool saw_resident = false;
  for (const auto& [name, v] : reg.snapshot().gauges) {
    if (name == "items_live") {
      saw_items_live = true;
      EXPECT_DOUBLE_EQ(v, static_cast<double>(rep.items));
    } else if (name == "service_resident_bytes") {
      saw_resident = true;
      EXPECT_GT(v, 0.0);
    }
  }
  EXPECT_TRUE(saw_items_live);
  EXPECT_TRUE(saw_resident);
  // Latency histogram sampled once per request.
  const auto snap = reg.snapshot();
  const auto* latency = find_latency(snap, "request_latency_ns");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count, stream.size());
}

// --- executor integration --------------------------------------------------

TEST(ObsIntegration, ExecutorEmitsReplayEvents) {
  Rng rng(9);
  CommuterConfig cfg;
  cfg.num_servers = 4;
  cfg.num_requests = 150;
  const auto seq = gen_commuter(rng, cfg);
  const CostModel cm(1.0, 1.0);
  const auto sc = run_speculative_caching(seq, cm);

  obs::MetricsRegistry reg;
  obs::RingBufferSink ring(1 << 15);
  obs::Observer observer(&reg, &ring);
  const auto rep = execute_schedule(sc.schedule, seq, cm, &observer);
  ASSERT_TRUE(rep.ok) << rep.to_string();

  EXPECT_EQ(ring.count(EventKind::kRequestServed),
            static_cast<std::uint64_t>(seq.n()));
  EXPECT_EQ(ring.count(EventKind::kTransferIssued),
            sc.schedule.transfers().size());
  EXPECT_EQ(ring.count(EventKind::kCopyBorn), sc.schedule.caches().size());
  EXPECT_EQ(ring.count(EventKind::kCopyExpired), sc.schedule.caches().size());

  Cost booked = 0.0;
  for (const auto& e : ring.events()) {
    if (e.kind == EventKind::kTransferIssued ||
        e.kind == EventKind::kCopyExpired) {
      booked += e.cost_delta;
    }
  }
  EXPECT_NEAR(booked, rep.measured_total_cost, 1e-9);
  const auto snap = reg.snapshot();
  const auto* replay = find_latency(snap, "executor_replay_ns");
  ASSERT_NE(replay, nullptr);
  EXPECT_EQ(replay->count, 1u);
}

// --- report formatting (satellite) -----------------------------------------

TEST(ServiceReportFormat, ToStringAndItemSummary) {
  Rng rng(31);
  const CostModel cm(1.0, 1.0);
  MultiItemConfig cfg;
  cfg.num_servers = 4;
  cfg.num_items = 6;
  cfg.num_requests = 300;
  const auto stream = gen_multi_item(rng, cfg);

  OnlineDataService service(cfg.num_servers, cm);
  for (const auto& r : stream) service.request(r.item, r.server, r.time);
  const auto rep = service.finish();

  const std::string s = rep.to_string(3);
  EXPECT_NE(s.find("total cost"), std::string::npos) << s;
  EXPECT_NE(s.find("| item"), std::string::npos) << s;
  EXPECT_NE(s.find("more items by cost"), std::string::npos) << s;
  EXPECT_NE(s.find(std::to_string(rep.items) + " items"), std::string::npos) << s;

  const std::string full = rep.to_string(0);  // 0 = all items
  EXPECT_EQ(full.find("more items by cost"), std::string::npos) << full;

  ASSERT_FALSE(rep.per_item.empty());
  const auto& it = rep.per_item.front();
  const std::string line = it.summary();
  EXPECT_NE(line.find("item " + std::to_string(it.item)), std::string::npos);
  EXPECT_NE(line.find("born s" + std::to_string(it.origin + 1)), std::string::npos);
  EXPECT_NE(line.find(std::to_string(it.transfers) + " transfers"),
            std::string::npos);
}

}  // namespace
}  // namespace mcdc
