// Tests for the sharded concurrent streaming engine (ctest label: engine).
//
// The load-bearing property is the determinism contract: on any stream, a
// policy=block engine at any shard count produces per-item outcomes
// and aggregate totals BIT-IDENTICAL to the serial OnlineDataService (the
// fuzz harness sweeps this over random seeds; here we pin it plus the
// ring/lane/backpressure machinery the contract rests on).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/ingress.h"
#include "engine/shard.h"
#include "engine/spsc_ring.h"
#include "engine/streaming_engine.h"
#include "obs/observer.h"
#include "obs/sinks.h"
#include "config_generators.h"
#include "service/data_service.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace mcdc {
namespace {

std::vector<MultiItemRequest> make_stream(std::uint64_t seed, int servers,
                                          int items, int requests) {
  Rng rng(seed);
  MultiItemConfig cfg;
  cfg.num_servers = servers;
  cfg.num_items = items;
  cfg.num_requests = requests;
  return gen_multi_item(rng, cfg);
}

ServiceReport run_serial(const std::vector<MultiItemRequest>& stream,
                         int servers, const CostModel& cm) {
  OnlineDataService service(servers, cm);
  for (const auto& r : stream) service.request(r.item, r.server, r.time);
  return service.finish();
}

/// Submit one record as a one-element span.
/// Returns records accepted (0 or 1).
std::size_t submit_one(IngressSession& session, int item, ServerId server,
                       Time time) {
  const MultiItemRequest r{item, server, time};
  return session.submit_span(std::span<const MultiItemRequest>(&r, 1));
}

/// Feed the whole stream through one ingestion session as a single span.
void submit_all(StreamingEngine& engine,
                const std::vector<MultiItemRequest>& stream) {
  IngressSession session = engine.open_producer();
  session.submit_span(std::span<const MultiItemRequest>(stream));
  session.close();
}

/// Round-robin the stream across `producers` barrier-started threads, each
/// feeding its own session in short spans: real concurrent interleavings,
/// one per run. Each thread's slice inherits the stream's increasing
/// times, so the deterministic merge must reproduce the original global
/// order exactly. `stats`, when given, receives the engine's statistics.
ServiceReport run_engine_producers(const std::vector<MultiItemRequest>& stream,
                                   int servers, const CostModel& cm,
                                   const EngineConfig& cfg,
                                   std::size_t producers,
                                   EngineStats* stats = nullptr) {
  StreamingEngine engine(servers, cm, cfg);
  std::vector<IngressSession> sessions;
  sessions.reserve(producers);
  for (std::size_t p = 0; p < producers; ++p) {
    sessions.push_back(engine.open_producer());
  }
  std::vector<std::vector<MultiItemRequest>> slices(producers);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    slices[i % producers].push_back(stream[i]);
  }
  std::atomic<std::size_t> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(producers);
  for (std::size_t p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      const auto& slice = slices[p];
      constexpr std::size_t kSpan = 8;  // short spans keep threads interleaving
      for (std::size_t k = 0; k < slice.size(); k += kSpan) {
        sessions[p].submit_span(std::span<const MultiItemRequest>(
            slice.data() + k, std::min(kSpan, slice.size() - k)));
      }
      sessions[p].close();
    });
  }
  while (ready.load() < producers) std::this_thread::yield();
  go.store(true);
  for (auto& t : threads) t.join();
  ServiceReport rep = engine.finish();
  if (stats != nullptr) *stats = engine.stats();
  return rep;
}

// Bit-identical comparison: EXPECT_EQ on doubles is exact equality.
void expect_reports_identical(const ServiceReport& a, const ServiceReport& b) {
  EXPECT_EQ(a.total_cost, b.total_cost);
  EXPECT_EQ(a.caching_cost, b.caching_cost);
  EXPECT_EQ(a.transfer_cost, b.transfer_cost);
  EXPECT_EQ(a.items, b.items);
  EXPECT_EQ(a.requests, b.requests);
  ASSERT_EQ(a.per_item.size(), b.per_item.size());
  for (std::size_t i = 0; i < a.per_item.size(); ++i) {
    const ItemOutcome& x = a.per_item[i];
    const ItemOutcome& y = b.per_item[i];
    EXPECT_EQ(x.item, y.item);
    EXPECT_EQ(x.origin, y.origin);
    EXPECT_EQ(x.birth, y.birth);
    EXPECT_EQ(x.requests, y.requests);
    EXPECT_EQ(x.cost, y.cost) << "item " << x.item;
    EXPECT_EQ(x.caching_cost, y.caching_cost) << "item " << x.item;
    EXPECT_EQ(x.transfer_cost, y.transfer_cost) << "item " << x.item;
    EXPECT_EQ(x.transfers, y.transfers);
    EXPECT_EQ(x.hits, y.hits);
  }
}

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(1).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(2).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(1000).capacity(), 1024u);
}

TEST(SpscRing, FifoAcrossWraparound) {
  SpscRing<int> ring(4);
  std::vector<int> out;
  int next = 0;
  // Push/drain in odd-sized steps so head and tail wrap repeatedly.
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 3; ++i) EXPECT_TRUE(ring.try_push(next++));
    ring.consume_all([&](const int& v) { out.push_back(v); });
  }
  ASSERT_EQ(out.size(), 150u);
  for (int i = 0; i < 150; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i);
  EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, PushSpanTakesPrefixWhenFull) {
  SpscRing<int> ring(4);
  const int a[6] = {0, 1, 2, 3, 4, 5};
  EXPECT_EQ(ring.try_push_span(a, 6), 4u);  // capacity 4: prefix only
  EXPECT_EQ(ring.free_slots(), 0u);
  EXPECT_FALSE(ring.try_push(99));
  std::vector<int> out;
  EXPECT_EQ(ring.consume_all([&](const int& v) { out.push_back(v); }), 4u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(ring.try_push_span(a + 4, 2), 2u);  // room again after drain
  EXPECT_EQ(ring.size_approx(), 2u);
}

TEST(SpscRing, SingleProducerSingleConsumerThreaded) {
  SpscRing<int> ring(8);
  constexpr int kCount = 20000;
  std::vector<int> out;
  out.reserve(kCount);
  std::thread consumer([&] {
    while (out.size() < static_cast<std::size_t>(kCount)) {
      if (ring.consume_all([&](const int& v) { out.push_back(v); }) == 0) {
        std::this_thread::yield();
      }
    }
  });
  int pushed = 0;
  while (pushed < kCount) {
    if (ring.try_push(pushed)) {
      ++pushed;
    } else {
      std::this_thread::yield();
    }
  }
  consumer.join();
  ASSERT_EQ(out.size(), static_cast<std::size_t>(kCount));
  for (int i = 0; i < kCount; ++i) {
    ASSERT_EQ(out[static_cast<std::size_t>(i)], i);
  }
}

TEST(ShardOf, StableAndInRange) {
  for (int shards : {1, 2, 3, 7, 16}) {
    for (int item = -3; item < 100; ++item) {
      const std::size_t s = StreamingEngine::shard_of(item, shards);
      EXPECT_LT(s, static_cast<std::size_t>(shards));
      EXPECT_EQ(s, StreamingEngine::shard_of(item, shards)) << "unstable hash";
    }
  }
  // Pinned values: the assignment is part of the determinism contract, so
  // a hash change must be a conscious decision that shows up here.
  EXPECT_EQ(StreamingEngine::shard_of(0, 4),
            StreamingEngine::shard_of(0, 4));
  int spread[4] = {0, 0, 0, 0};
  for (int item = 0; item < 64; ++item) ++spread[StreamingEngine::shard_of(item, 4)];
  for (int s = 0; s < 4; ++s) EXPECT_GT(spread[s], 0) << "shard " << s << " starved";
}

TEST(StreamingEngine, BitIdenticalToSerialAcrossShardCounts) {
  const CostModel cm(1.0, 1.0);
  const auto stream = make_stream(97, 5, 23, 1200);
  const auto serial = run_serial(stream, 5, cm);
  for (int shards : {1, 2, 4, 7}) {
    EngineConfig cfg;
    cfg.num_shards = shards;
    cfg.queue_capacity = 32;  // small: force backpressure blocking
    StreamingEngine engine(5, cm, cfg);
    submit_all(engine, stream);
    const auto rep = engine.finish();
    SCOPED_TRACE("shards=" + std::to_string(shards));
    expect_reports_identical(serial, rep);
  }
}

TEST(StreamingEngine, DropPolicyBoundsQueueAndCountsLosses) {
  const CostModel cm(1.0, 1.0);
  const auto stream = make_stream(11, 4, 6, 4000);
  EngineConfig cfg;
  cfg.num_shards = 2;
  cfg.queue_capacity = 2;  // tiny: guarantee drops under a fast producer
  cfg.policy = BackpressurePolicy::kDrop;
  StreamingEngine engine(4, cm, cfg);
  IngressSession session = engine.open_producer();
  std::uint64_t accepted = 0;
  constexpr std::size_t kSpan = 16;  // span tails get dropped wholesale
  for (std::size_t k = 0; k < stream.size(); k += kSpan) {
    accepted += session.submit_span(std::span<const MultiItemRequest>(
        stream.data() + k, std::min(kSpan, stream.size() - k)));
  }
  session.close();
  const auto rep = engine.finish();
  const auto& st = engine.stats();
  EXPECT_EQ(st.submitted, stream.size());
  EXPECT_EQ(st.dropped, stream.size() - accepted);
  EXPECT_EQ(rep.requests + rep.items, static_cast<std::size_t>(accepted));
  // One producer: one lane per shard, never deeper than its ring.
  for (const auto& s : st.shards) {
    EXPECT_LE(s.queue.max_depth, cfg.queue_capacity);
  }
}

TEST(StreamingEngine, DropPolicyMultiProducerMergeStaysOrdered) {
  // kDrop under the cross-producer merge: dropped records never reach the
  // merge, and each span still advances its producer's watermark. With
  // contracts on, the shard's merge-order invariant checks every emitted
  // record and finish() checks submitted - dropped == requests + births.
  const CostModel cm(1.0, 1.0);
  const auto stream = make_stream(17, 4, 12, 4000);
  const auto serial = run_serial(stream, 4, cm);
  EngineConfig cfg;
  cfg.num_shards = 2;
  cfg.queue_capacity = 2;  // tiny: an 8-record span overflows a lane
  cfg.policy = BackpressurePolicy::kDrop;
  EngineStats st;
  const auto rep = run_engine_producers(stream, 4, cm, cfg, 4, &st);
  EXPECT_EQ(st.submitted, stream.size());
  EXPECT_GT(st.dropped, 0u) << "no lane overflowed — shrink the ring";
  EXPECT_EQ(rep.requests + rep.items, st.submitted - st.dropped);
  ASSERT_EQ(st.producers.size(), 4u);
  std::uint64_t producer_drops = 0;
  for (const auto& p : st.producers) {
    EXPECT_EQ(p.submitted, stream.size() / 4);
    EXPECT_EQ(p.retired, p.submitted - p.dropped);
    producer_drops += p.dropped;
  }
  EXPECT_EQ(producer_drops, st.dropped);
  std::uint64_t lane_drops = 0;
  for (const auto& s : st.shards) {
    lane_drops += s.queue.dropped;
    EXPECT_EQ(s.producers, 4u);
    EXPECT_EQ(s.queue.enqueued, s.requests);
    // Four producer lanes on this shard, each bounded by its ring.
    EXPECT_LE(s.queue.max_depth, 4 * cfg.queue_capacity);
    if (s.requests > 0) {
      EXPECT_GE(s.merge_depth_max, 1u);  // the merge ran
    }
  }
  EXPECT_EQ(lane_drops, st.dropped);
  // Dropping loses requests, never invents them: every item the engine
  // served is a serial item, with at most as many requests.
  ASSERT_LE(rep.per_item.size(), serial.per_item.size());
  std::size_t j = 0;
  for (const ItemOutcome& got : rep.per_item) {
    while (j < serial.per_item.size() && serial.per_item[j].item < got.item) {
      ++j;
    }
    ASSERT_LT(j, serial.per_item.size()) << "item " << got.item;
    EXPECT_EQ(serial.per_item[j].item, got.item);
    EXPECT_LE(got.requests, serial.per_item[j].requests) << "item " << got.item;
  }
}

TEST(StreamingEngine, EmptyAndSingleItemStreams) {
  const CostModel cm(1.0, 1.0);
  {
    StreamingEngine engine(3, cm, {});
    const auto rep = engine.finish();
    EXPECT_EQ(rep.items, 0u);
    EXPECT_EQ(rep.requests, 0u);
    EXPECT_EQ(rep.total_cost, 0.0);
  }
  {
    EngineConfig cfg;
    cfg.num_shards = 4;  // more shards than items
    StreamingEngine engine(3, cm, cfg);
    IngressSession session = engine.open_producer();
    const std::vector<MultiItemRequest> recs = {
        {42, 1, 1.0}, {42, 2, 1.5}, {42, 1, 9.0}};
    EXPECT_EQ(session.submit_span(std::span<const MultiItemRequest>(recs)),
              recs.size());
    session.close();
    const auto rep = engine.finish();
    EXPECT_EQ(rep.items, 1u);
    EXPECT_EQ(rep.requests, 2u);
    OnlineDataService serial(3, cm);
    serial.request(42, 1, 1.0);
    serial.request(42, 2, 1.5);
    serial.request(42, 1, 9.0);
    expect_reports_identical(serial.finish(), rep);
  }
}

TEST(StreamingEngine, Errors) {
  const CostModel cm(1.0, 1.0);
  EXPECT_THROW(StreamingEngine(0, cm, {}), std::invalid_argument);
  {
    EngineConfig cfg;
    cfg.queue_capacity = 0;
    EXPECT_THROW(StreamingEngine(2, cm, cfg), std::invalid_argument);
  }
  StreamingEngine engine(2, cm, {});
  IngressSession session = engine.open_producer();
  submit_one(session, 0, 0, 1.0);
  EXPECT_THROW(submit_one(session, 0, 0, 1.0), std::invalid_argument);  // time
  EXPECT_THROW(submit_one(session, 0, 5, 2.0), std::invalid_argument);  // server
  // The merge needs the full producer set up front: no opens after ingest.
  EXPECT_THROW(engine.open_producer(), std::logic_error);
  engine.finish();
  EXPECT_THROW(submit_one(session, 0, 0, 3.0), std::logic_error);  // force-closed
  EXPECT_THROW(engine.finish(), std::logic_error);
  EXPECT_THROW(engine.open_producer(), std::logic_error);  // finished
}

TEST(StreamingEngine, AbandonedEngineJoinsCleanly) {
  const CostModel cm(1.0, 1.0);
  const auto stream = make_stream(17, 3, 6, 300);
  StreamingEngine engine(3, cm, {});
  IngressSession session = engine.open_producer();
  session.submit_span(std::span<const MultiItemRequest>(stream));
  // No finish(), no close(): the engine destructor must mark the session
  // closed, close the queues, and join the workers.
}

TEST(StreamingEngine, ZeroShardsMeansHardwareThreads) {
  const CostModel cm(1.0, 1.0);
  EngineConfig cfg;
  cfg.num_shards = 0;
  StreamingEngine engine(2, cm, cfg);
  EXPECT_GE(engine.num_shards(), 1);
  engine.finish();
}

TEST(StreamingEngine, MetricsRollUpIntoSharedRegistry) {
  const CostModel cm(1.0, 1.0);
  const auto stream = make_stream(23, 4, 10, 500);

  obs::MetricsRegistry reg;
  obs::RingBufferSink ring(1 << 12);
  obs::Observer observer(&reg, &ring);

  EngineConfig cfg;
  cfg.num_shards = 3;
  cfg.service_options.observer = &observer;
  StreamingEngine engine(4, cm, cfg);
  submit_all(engine, stream);
  const auto rep = engine.finish();

  const auto snap = reg.snapshot();
  std::uint64_t shard_requests = 0;
  double cost_gauges = 0.0;
  for (const auto& [name, v] : snap.counters) {
    if (name.find("_requests") != std::string::npos &&
        name.rfind("engine_shard", 0) == 0) {
      shard_requests += v;
    }
  }
  for (const auto& [name, v] : snap.gauges) {
    if (name.rfind("engine_shard", 0) == 0 &&
        name.find("_cost_total") != std::string::npos) {
      cost_gauges += v;
    }
    // Queue depth is a sampler series only: no registry gauge carries it.
    EXPECT_FALSE(name.rfind("engine_shard", 0) == 0 &&
                 name.find("_queue_depth") != std::string::npos)
        << name;
  }
  // Per-shard request counters sum to the whole stream (births included)...
  EXPECT_EQ(shard_requests, stream.size());
  // ...and the per-shard cost gauges sum to the report total.
  EXPECT_NEAR(cost_gauges, rep.total_cost, 1e-9);

  // The standard service metrics aggregated across threads too.
  std::uint64_t served = 0;
  for (const auto& [name, v] : snap.counters) {
    if (name == "requests_served") served = v;
  }
  EXPECT_EQ(served, stream.size());

  // Event stream: per-item events all present (sink serialized by the
  // engine's LockedSink; count must match a serial replay's).
  obs::MetricsRegistry serial_reg;
  obs::RingBufferSink serial_ring(1 << 12);
  obs::Observer serial_obs(&serial_reg, &serial_ring);
  SpeculativeCachingOptions serial_opt;
  serial_opt.observer = &serial_obs;
  OnlineDataService serial(4, cm, serial_opt);
  for (const auto& r : stream) serial.request(r.item, r.server, r.time);
  serial.finish();
  for (std::size_t k = 0; k < obs::kNumEventKinds; ++k) {
    EXPECT_EQ(ring.count(static_cast<obs::EventKind>(k)),
              serial_ring.count(static_cast<obs::EventKind>(k)))
        << "event kind " << k;
  }
}

TEST(IngressSession, SingleSessionMatchesSerialAndLifecycleErrors) {
  const CostModel cm(1.0, 1.0);
  const auto stream = make_stream(29, 3, 7, 400);
  const auto serial = run_serial(stream, 3, cm);
  EngineConfig cfg;
  cfg.num_shards = 2;
  StreamingEngine engine(3, cm, cfg);
  auto session = engine.open_producer();
  EXPECT_EQ(session.submit_span(std::span<const MultiItemRequest>(stream)),
            stream.size());
  EXPECT_EQ(engine.num_producers(), 1u);
  EXPECT_THROW(engine.open_producer(), std::logic_error);  // ingest started
  const auto rep = engine.finish();
  EXPECT_THROW(submit_one(session, 0, 0, 999.0), std::logic_error);  // closed
  expect_reports_identical(serial, rep);
}

TEST(IngressSession, MultiProducerBitIdenticalAcrossInterleavings) {
  const CostModel cm(1.0, 1.3);
  const auto stream = make_stream(41, 5, 19, 900);
  const auto serial = run_serial(stream, 5, cm);
  for (const std::size_t producers : {std::size_t{2}, std::size_t{8}}) {
    for (const int shards : {1, 3}) {
      // Several repetitions: every run is a fresh thread interleaving, and
      // every one must merge back to the bit-identical serial report.
      for (int rep = 0; rep < 3; ++rep) {
        EngineConfig cfg;
        cfg.num_shards = shards;
        cfg.queue_capacity = 16;  // small: force blocking + merge stalls
        SCOPED_TRACE("producers=" + std::to_string(producers) +
                     " shards=" + std::to_string(shards) +
                     " rep=" + std::to_string(rep));
        expect_reports_identical(
            serial, run_engine_producers(stream, 5, cm, cfg, producers));
      }
    }
  }
}

TEST(IngressSession, EqualTimeTiesBreakByProducerThenSeq) {
  const CostModel cm(1.0, 1.0);
  constexpr int kPairs = 50;
  // Producer 0 and producer 1 submit distinct items at identical
  // timestamps; the canonical merged order is (time, producer id, seq).
  OnlineDataService serial(3, cm);
  for (int k = 0; k < kPairs; ++k) {
    const Time t = 1.0 + k;
    serial.request(0, k % 3, t);        // producer 0's record first
    serial.request(1, (k + 1) % 3, t);  // then producer 1's tie
  }
  const auto serial_rep = serial.finish();

  EngineConfig cfg;
  cfg.num_shards = 1;  // both items on one shard: every pair is a merge tie
  StreamingEngine engine(3, cm, cfg);
  IngressSession s0 = engine.open_producer();
  IngressSession s1 = engine.open_producer();
  // Producer 1 submits its whole stream before producer 0 even starts; the
  // merge must still put each equal-time pair in producer-id order.
  for (int k = 0; k < kPairs; ++k) submit_one(s1, 1, (k + 1) % 3, 1.0 + k);
  s1.close();
  for (int k = 0; k < kPairs; ++k) submit_one(s0, 0, k % 3, 1.0 + k);
  s0.close();
  const auto rep = engine.finish();
  expect_reports_identical(serial_rep, rep);
  std::uint64_t ties = 0;
  for (const auto& s : engine.stats().shards) ties += s.ties_broken;
  EXPECT_GT(ties, 0u);
}

TEST(IngressSession, CloseSemanticsAndProducerAccounting) {
  const CostModel cm(1.0, 1.0);
  EngineConfig cfg;
  cfg.num_shards = 2;
  StreamingEngine engine(3, cm, cfg);
  IngressSession a = engine.open_producer();
  IngressSession b = engine.open_producer();
  EXPECT_EQ(a.id(), 0u);
  EXPECT_EQ(b.id(), 1u);
  EXPECT_EQ(engine.num_producers(), 2u);
  EXPECT_FALSE(a.closed());
  for (int k = 1; k <= 200; ++k) {
    submit_one(a, k % 11, k % 3, static_cast<Time>(k));
  }
  a.close();
  EXPECT_TRUE(a.closed());
  a.close();  // idempotent
  EXPECT_THROW(submit_one(a, 3, 0, 1000.0), std::logic_error);
  // b's times overlap a's already-submitted range: sessions only promise
  // per-producer monotonicity, the merge provides the global order.
  for (int k = 1; k <= 100; ++k) {
    submit_one(b, 100 + (k % 5), k % 3, static_cast<Time>(k));
  }
  b.close();
  const auto rep = engine.finish();
  const auto& st = engine.stats();
  ASSERT_EQ(st.producers.size(), 2u);
  EXPECT_EQ(st.producers[0].producer, 0u);
  EXPECT_EQ(st.producers[0].submitted, 200u);
  EXPECT_EQ(st.producers[1].submitted, 100u);
  EXPECT_EQ(st.producers[0].dropped, 0u);
  EXPECT_EQ(st.producers[0].retired, 200u);  // lossless: all processed
  EXPECT_EQ(st.producers[1].retired, 100u);
  EXPECT_GE(st.producers[0].max_in_flight, 1u);
  EXPECT_EQ(st.submitted, 300u);
  EXPECT_EQ(rep.requests + rep.items, 300u);
  // Every shard saw both producer lanes (open_producer registers a lane
  // on every shard).
  for (const auto& s : st.shards) EXPECT_EQ(s.producers, 2u);
}

TEST(IngressSession, ManyProducersStressBitIdentical) {
  const CostModel cm(1.0, 1.0);
  const auto stream = make_stream(71, 4, 31, 3000);
  const auto serial = run_serial(stream, 4, cm);
  EngineConfig cfg;
  cfg.num_shards = 4;
  cfg.queue_capacity = 8;  // tiny: constant backpressure under 8 producers
  expect_reports_identical(serial,
                           run_engine_producers(stream, 4, cm, cfg, 8));
}

TEST(IngressSession, MovedFromSessionIsInvalid) {
  const CostModel cm(1.0, 1.0);
  StreamingEngine engine(2, cm, {});
  IngressSession a = engine.open_producer();
  IngressSession b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move): probing it
  EXPECT_TRUE(b.valid());
  EXPECT_THROW(submit_one(a, 0, 0, 1.0), std::logic_error);
  submit_one(b, 0, 0, 1.0);
  b.close();
  engine.finish();
}

TEST(IngressSession, OneRecordSpansMatchSerial) {
  // Submitting record by record, each as a one-element span, must share
  // the whole-span pipeline: same validation, same accounting, same report.
  const CostModel cm(1.0, 1.0);
  const auto stream = make_stream(31, 3, 5, 200);
  const auto serial = run_serial(stream, 3, cm);
  StreamingEngine engine(3, cm, {});
  IngressSession session = engine.open_producer();
  for (const auto& r : stream) {
    EXPECT_EQ(submit_one(session, r.item, r.server, r.time), 1u);
  }
  EXPECT_THROW(submit_one(session, 0, 99, 1e9), std::invalid_argument);  // server
  session.close();
  expect_reports_identical(serial, engine.finish());
}

TEST(SubmitSpan, EmptySpanIsANoOpAndDoesNotStartIngest) {
  const CostModel cm(1.0, 1.0);
  StreamingEngine engine(3, cm, {});
  IngressSession a = engine.open_producer();
  EXPECT_EQ(a.submit_span({}), 0u);
  // An empty span must not count as "ingest started": the producer set is
  // still open.
  IngressSession b = engine.open_producer();
  EXPECT_EQ(engine.num_producers(), 2u);
  submit_one(a, 0, 0, 1.0);
  EXPECT_EQ(a.submit_span({}), 0u);  // and stays a no-op mid-stream
  a.close();
  EXPECT_THROW(a.submit_span({}), std::logic_error);  // but closed is closed
  b.close();
  const auto rep = engine.finish();
  EXPECT_EQ(rep.items, 1u);
  EXPECT_EQ(engine.stats().submitted, 1u);
}

TEST(SubmitSpan, RejectionIsAtomicAcrossTheWholeSpan) {
  const CostModel cm(1.0, 1.0);
  EngineConfig cfg;
  cfg.num_shards = 2;
  StreamingEngine engine(3, cm, cfg);
  IngressSession session = engine.open_producer();
  submit_one(session, 7, 0, 1.0);
  // Bad record in the MIDDLE of a span: the valid prefix must not leak.
  const std::vector<MultiItemRequest> bad_server = {
      {1, 0, 2.0}, {2, 9, 3.0}, {3, 1, 4.0}};
  EXPECT_THROW(
      session.submit_span(std::span<const MultiItemRequest>(bad_server)),
      std::invalid_argument);
  const std::vector<MultiItemRequest> bad_time = {
      {4, 0, 5.0}, {5, 1, 5.0}, {6, 1, 6.0}};  // not strictly increasing
  EXPECT_THROW(
      session.submit_span(std::span<const MultiItemRequest>(bad_time)),
      std::invalid_argument);
  // A span that dips below the session's own last time is rejected too.
  const std::vector<MultiItemRequest> stale = {{8, 0, 0.5}};
  EXPECT_THROW(session.submit_span(std::span<const MultiItemRequest>(stale)),
               std::invalid_argument);
  // The session is still usable and its clock unchanged: time 2.0 (valid
  // only if the rejected spans left last_time at 1.0) goes through.
  EXPECT_EQ(submit_one(session, 9, 1, 2.0), 1u);
  session.close();
  const auto rep = engine.finish();
  // Exactly the two good records arrived: item 7 and item 9 births.
  EXPECT_EQ(rep.items, 2u);
  EXPECT_EQ(engine.stats().submitted, 2u);
  EXPECT_EQ(engine.stats().dropped, 0u);
}

TEST(SubmitSpan, SpanLargerThanTheRingIsLosslessUnderBlock) {
  // One span many times the per-lane ring capacity: the producer must spin
  // the remainder in while the worker drains — nothing lost, order kept.
  const CostModel cm(1.0, 1.3);
  const auto stream = make_stream(83, 4, 11, 3000);
  const auto serial = run_serial(stream, 4, cm);
  EngineConfig cfg;
  cfg.num_shards = 2;
  cfg.queue_capacity = 8;  // span of 3000 >> ring of 8
  cfg.policy = BackpressurePolicy::kBlock;
  StreamingEngine engine(4, cm, cfg);
  IngressSession session = engine.open_producer();
  EXPECT_EQ(session.submit_span(std::span<const MultiItemRequest>(stream)),
            stream.size());
  session.close();
  expect_reports_identical(serial, engine.finish());
}

TEST(SubmitSpan, SpanBoundariesAreInvisibleToTheReport) {
  // The same stream cut into spans of every rhythm — per-record, prime
  // strides, one giant span — must produce the bit-identical report.
  const CostModel cm(0.9, 1.7);
  const auto stream = make_stream(89, 4, 13, 900);
  const auto serial = run_serial(stream, 4, cm);
  const std::size_t cuts[] = {1, 7, 64, stream.size()};
  for (const std::size_t cut : cuts) {
    EngineConfig cfg;
    cfg.num_shards = 3;
    StreamingEngine engine(4, cm, cfg);
    IngressSession session = engine.open_producer();
    for (std::size_t k = 0; k < stream.size(); k += cut) {
      session.submit_span(std::span<const MultiItemRequest>(
          stream.data() + k, std::min(cut, stream.size() - k)));
    }
    session.close();
    SCOPED_TRACE("span=" + std::to_string(cut));
    expect_reports_identical(serial, engine.finish());
  }
}

TEST(QueueStats, RingLaneSemanticsMatchTheDocumentedContract) {
  // docs/ENGINE.md "Queue statistics under ring lanes": stats() is one
  // post-quiesce snapshot assembled from single-writer lane counters —
  // enqueued counts every accepted record, stalls counts producer waits
  // (one per span per lane that had to wait), and depth is zero after a
  // full drain.
  const CostModel cm(1.0, 1.0);
  const auto stream = make_stream(43, 4, 9, 2000);
  EngineConfig cfg;
  cfg.num_shards = 2;
  cfg.queue_capacity = 4;  // tiny rings: the one span must wait on each
  cfg.policy = BackpressurePolicy::kBlock;
  StreamingEngine engine(4, cm, cfg);
  IngressSession session = engine.open_producer();
  session.submit_span(std::span<const MultiItemRequest>(stream));
  session.close();
  const auto rep = engine.finish();
  EXPECT_EQ(rep.requests + rep.items, stream.size());
  const auto& st = engine.stats();
  std::uint64_t enq = 0, stalls = 0;
  std::size_t depth = 0;
  for (const auto& s : st.shards) {
    enq += s.queue.enqueued;
    stalls += s.queue.stalls;
    depth += s.queue.depth;
    // Lossless: every record routed here was enqueued and served. A
    // shard that was sent more records than its ring holds waited exactly
    // once: the span reaches each lane as one bucket.
    EXPECT_EQ(s.queue.enqueued, s.requests);
    EXPECT_EQ(s.queue.stalls, s.requests > cfg.queue_capacity ? 1u : 0u);
    EXPECT_GE(s.queue.max_depth, 1u);
    EXPECT_LE(s.queue.max_depth, cfg.queue_capacity);  // one lane per shard
    // Batch shape: every drained record lands in exactly one batch.
    EXPECT_EQ(s.batches.requests, s.requests);
    EXPECT_GE(s.batches.batches, 1u);
    EXPECT_LE(s.batches.max_batch, s.batches.requests);
    EXPECT_DOUBLE_EQ(s.batches.mean_batch(),
                     static_cast<double>(s.batches.requests) /
                         static_cast<double>(s.batches.batches));
  }
  EXPECT_EQ(enq, stream.size());
  EXPECT_EQ(depth, 0u);
  EXPECT_EQ(st.stalls, stalls);
  EXPECT_GE(stalls, 1u) << "no shard outgrew its ring — grow the stream";
  EXPECT_EQ(st.submitted, stream.size());
  EXPECT_EQ(st.dropped, 0u);
}

TEST(EngineConfig, ToStringParseRoundTrip) {
  // Property test: parse(to_string()) is the identity on every scalar
  // field, across randomized configurations.
  Rng rng(123);
  for (int iter = 0; iter < 200; ++iter) {
    const EngineConfig cfg = random_engine_config(rng);
    const std::string text = cfg.to_string();
    const EngineConfig back = EngineConfig::parse(text);
    EXPECT_EQ(back.num_shards, cfg.num_shards) << text;
    EXPECT_EQ(back.queue_capacity, cfg.queue_capacity) << text;
    EXPECT_EQ(back.policy, cfg.policy) << text;
    EXPECT_EQ(back.telemetry, cfg.telemetry) << text;
    EXPECT_EQ(back.sample_ms, cfg.sample_ms) << text;
    EXPECT_EQ(back.cost, cfg.cost) << text;
    EXPECT_EQ(back.to_string(), text);
  }

  // The tier shorthand is accepted but canonicalized to matrix form, so
  // parse(to_string()) is still the identity after one parse.
  const EngineConfig tiered =
      EngineConfig::parse("cost=het:mu=3|1;lam=1|2|1;tier=1x1");
  EXPECT_EQ(tiered.cost, "het:mu=3|1;lam=0|2|2|0");
  EXPECT_EQ(EngineConfig::parse(tiered.to_string()).cost, tiered.cost);
}

void expect_parse_error(const std::string& text, const std::string& needle_a,
                        const std::string& needle_b) {
  try {
    EngineConfig::parse(text);
    FAIL() << "no exception for \"" << text << "\"";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(needle_a), std::string::npos) << what;
    EXPECT_NE(what.find(needle_b), std::string::npos) << what;
  }
}

TEST(EngineConfig, ParseErrorsNameKeyTokenAndChoices) {
  const std::string keys = "shards|cap|policy|telemetry|sample_ms|cost";
  // Unknown key: names the key and lists the valid ones.
  expect_parse_error("shards=4,polices=block", "polices", keys);
  // Keys of removed settings are unknown keys like any other.
  expect_parse_error("queue=spsc", "queue", keys);
  expect_parse_error("batch=8", "batch", keys);
  expect_parse_error("deterministic=true", "deterministic", keys);
  expect_parse_error("credits=8", "credits", keys);
  // Bad enum value: names both the value and its key, plus the choices.
  expect_parse_error("policy=blok", "blok", "(expected block|drop)");
  expect_parse_error("policy=blok", "policy", "(expected block|drop)");
  expect_parse_error("policy=spill", "spill", "(expected block|drop)");
  // Bad number: whole-token parse, so trailing garbage is an error.
  expect_parse_error("cap=12x", "12x", "cap");
  expect_parse_error("shards=", "shards", "expected");
  // Telemetry uses on|off (a mode switch, not a bool).
  expect_parse_error("telemetry=true", "true", "on|off");
  expect_parse_error("sample_ms=fast", "fast", "sample_ms");
  // Cost model: bad family, and a nested het-spec error surfaces the
  // inner HeterogeneousCostModel message under the EngineConfig banner.
  expect_parse_error("cost=bogus", "bogus", "hom|het:<spec>");
  expect_parse_error("cost=het:mu=1", "cost", "missing key");
  expect_parse_error("cost=het:mu=1|1;lam=0|1|1", "cost", "m*m=4");
  // Malformed token (no '='): echoed back with the key list.
  expect_parse_error("shards", "shards", keys);
  // Out-of-range integers: rejected before they wrap in uint64_t or
  // narrow into their field.
  expect_parse_error("shards=4294967297", "\"shards\"", "4294967297");
  expect_parse_error("shards=2147483648", "\"shards\"", "2147483648");
  expect_parse_error("shards=99999999999999999999", "\"shards\"",
                     "99999999999999999999");
  expect_parse_error("cap=18446744073709551617", "\"cap\"",
                     "18446744073709551617");
  expect_parse_error("sample_ms=18446744073709551616", "\"sample_ms\"",
                     "18446744073709551616");
  // The largest in-range values still parse and render back.
  const EngineConfig widest =
      EngineConfig::parse("shards=2147483647,cap=18446744073709551615");
  EXPECT_EQ(widest.num_shards, 2147483647);
  EXPECT_EQ(EngineConfig::parse(widest.to_string()).to_string(),
            widest.to_string());

  // Omitted keys keep their defaults; order does not matter.
  const EngineConfig defaults;
  const EngineConfig partial = EngineConfig::parse("cap=7");
  EXPECT_EQ(partial.queue_capacity, 7u);
  EXPECT_EQ(partial.num_shards, defaults.num_shards);
  EXPECT_EQ(partial.policy, defaults.policy);
  const EngineConfig reordered =
      EngineConfig::parse("sample_ms=2,shards=3,policy=drop");
  EXPECT_EQ(reordered.sample_ms, 2u);
  EXPECT_EQ(reordered.num_shards, 3);
  EXPECT_EQ(reordered.policy, BackpressurePolicy::kDrop);
}

TEST(StreamingEngine, HeterogeneousConfigConflictsAndSizing) {
  const HeterogeneousCostModel het(2, CostModel(1.0, 1.0));
  // Two heterogeneous sources (constructor model AND config string) is a
  // conflict, not a silent precedence rule.
  EngineConfig both;
  both.cost = "het:mu=1|1;lam=0|1|1|0";
  EXPECT_THROW(StreamingEngine(2, het, both), std::invalid_argument);
  // The matrix must be sized for the engine, whichever way it arrives.
  EXPECT_THROW(StreamingEngine(3, het, {}), std::invalid_argument);
  EXPECT_THROW(StreamingEngine(3, CostModel(1.0, 1.0), both),
               std::invalid_argument);
  // A cost string that never went through parse is still validated.
  EngineConfig bogus;
  bogus.cost = "nope";
  EXPECT_THROW(StreamingEngine(2, CostModel(1.0, 1.0), bogus),
               std::invalid_argument);
}

TEST(StreamingEngine, HeterogeneousBitIdenticalToSerial) {
  // Five servers on a line (distances are a metric); per-server mu.
  const HeterogeneousCostModel het({2.0, 1.0, 4.0, 1.5, 3.0},
                                   {{0, 1, 3, 6, 10},
                                    {1, 0, 2, 5, 9},
                                    {3, 2, 0, 3, 7},
                                    {6, 5, 3, 0, 4},
                                    {10, 9, 7, 4, 0}});
  const ServingCostModel scm = het;
  const auto stream = make_stream(97, 5, 23, 1200);
  OnlineDataService service(5, scm);
  for (const auto& r : stream) service.request(r.item, r.server, r.time);
  const auto serial = service.finish();
  EXPECT_GT(serial.total_cost, 0.0);
  for (int shards : {1, 3}) {
    EngineConfig cfg;
    cfg.num_shards = shards;
    cfg.queue_capacity = 32;
    StreamingEngine engine(5, scm, cfg);
    submit_all(engine, stream);
    SCOPED_TRACE("shards=" + std::to_string(shards));
    expect_reports_identical(serial, engine.finish());
  }
  // Same matrix through the config string instead of the constructor; the
  // placeholder homogeneous model is superseded, not blended.
  EngineConfig cfg;
  cfg.cost = "het:" + het.to_string();
  StreamingEngine engine(5, CostModel(1.0, 1.0), cfg);
  submit_all(engine, stream);
  expect_reports_identical(serial, engine.finish());
}

TEST(StreamingEngine, HomEquivalentHetLiftBitIdentical) {
  // An exact homogeneous lift must reproduce the scalar path bit for bit
  // through the whole engine (merge order included), both when handed in
  // as a matrix and when parsed out of the config string.
  const CostModel cm(0.7, 1.3);
  const auto stream = make_stream(53, 4, 12, 800);
  const auto serial = run_serial(stream, 4, cm);
  StreamingEngine lifted(4, HeterogeneousCostModel(4, cm), {});
  submit_all(lifted, stream);
  expect_reports_identical(serial, lifted.finish());
  EngineConfig cfg;
  cfg.cost = "het:" + HeterogeneousCostModel(4, cm).to_string();
  StreamingEngine parsed(4, cm, cfg);
  submit_all(parsed, stream);
  expect_reports_identical(serial, parsed.finish());
}

TEST(FinalizeReport, RecomputesAggregatesFromPerItem) {
  ServiceReport rep;
  ItemOutcome a;
  a.item = 3;
  a.cost = 2.5;
  a.caching_cost = 1.5;
  a.transfer_cost = 1.0;
  a.requests = 4;
  ItemOutcome b;
  b.item = 7;
  b.cost = 1.25;
  b.caching_cost = 0.25;
  b.transfer_cost = 1.0;
  b.requests = 2;
  rep.per_item = {a, b};
  finalize_report(rep);
  EXPECT_EQ(rep.items, 2u);
  EXPECT_EQ(rep.requests, 6u);
  EXPECT_EQ(rep.total_cost, 3.75);
  EXPECT_EQ(rep.caching_cost, 1.75);
  EXPECT_EQ(rep.transfer_cost, 2.0);
}

// ---- pipeline telemetry ----------------------------------------------------

TEST(EngineTelemetry, OffByDefaultWithEmptySnapshots) {
  const CostModel cm(1.0, 1.0);
  const auto stream = make_stream(61, 3, 9, 300);
  EngineConfig cfg;
  cfg.num_shards = 2;
  StreamingEngine engine(3, cm, cfg);
  EXPECT_FALSE(engine.telemetry_enabled());
  EXPECT_EQ(engine.telemetry_registry(), nullptr);
  submit_all(engine, stream);
  engine.finish();
  EXPECT_EQ(engine.queue_wait_snapshot().count, 0u);
  EXPECT_EQ(engine.e2e_snapshot().count, 0u);
  EXPECT_TRUE(engine.telemetry_series().empty());
}

TEST(EngineTelemetry, BitIdenticalWithStageHistogramsPopulated) {
  // The hard constraint: telemetry stamps wall-clock times onto records,
  // and the deterministic merge must never consult them. Same stream,
  // telemetry on, multi-producer — report must stay bit-identical, and
  // every accepted request must land in the queue-wait and e2e
  // histograms exactly once.
  const CostModel cm(1.0, 1.3);
  const auto stream = make_stream(67, 4, 15, 1200);
  const auto serial = run_serial(stream, 4, cm);
  EngineConfig cfg;
  cfg.num_shards = 3;
  cfg.queue_capacity = 32;
  cfg.telemetry = true;
  const auto rep = run_engine_producers(stream, 4, cm, cfg, 3);
  expect_reports_identical(serial, rep);
}

TEST(EngineTelemetry, HistogramsCountEveryAcceptedRequest) {
  const CostModel cm(1.0, 1.0);
  const auto stream = make_stream(71, 3, 10, 800);
  EngineConfig cfg;
  cfg.num_shards = 2;
  cfg.telemetry = true;
  StreamingEngine engine(3, cm, cfg);
  EXPECT_TRUE(engine.telemetry_enabled());
  ASSERT_NE(engine.telemetry_registry(), nullptr);  // engine-owned
  submit_all(engine, stream);
  engine.finish();
  const auto queue_wait = engine.queue_wait_snapshot();
  const auto e2e = engine.e2e_snapshot();
  EXPECT_EQ(queue_wait.count, stream.size());
  EXPECT_EQ(e2e.count, stream.size());
  // e2e spans submit -> retire, so its mean cannot undercut queue-wait's
  // on the merged totals (both start at the same submit stamp).
  EXPECT_GE(e2e.sum_ns, queue_wait.sum_ns);
  // The apply histogram records per batch, not per record: bounded by
  // batches <= requests, at least one batch per shard that saw work.
  EXPECT_GE(engine.apply_snapshot().count, 1u);
  EXPECT_LE(engine.apply_snapshot().count, stream.size());
  // Per-shard latency metrics registered under the labeled names.
  auto snap = engine.telemetry_registry()->snapshot();
  bool found = false;
  for (const auto& [name, hist] : snap.latency) {
    if (name == "engine_shard0_e2e_ns" || name == "engine_shard1_e2e_ns") {
      found = found || hist.count > 0;
    }
  }
  EXPECT_TRUE(found);
}

TEST(EngineTelemetry, UsesObserverRegistryWhenAttached) {
  const CostModel cm(1.0, 1.0);
  const auto stream = make_stream(73, 3, 8, 400);
  obs::MetricsRegistry reg;
  obs::Observer ob(&reg);
  EngineConfig cfg;
  cfg.num_shards = 2;
  cfg.telemetry = true;
  cfg.service_options.observer = &ob;
  StreamingEngine engine(3, cm, cfg);
  EXPECT_EQ(engine.telemetry_registry(), &reg);
  submit_all(engine, stream);
  engine.finish();
  // Stage histograms live in the caller's registry, under the
  // labeled-family names.
  EXPECT_GT(reg.latency("engine_shard0_queue_wait_ns").snapshot().count, 0u);
}

TEST(EngineTelemetry, SamplerRecordsSeriesAndChromeTraceExports) {
  const CostModel cm(1.0, 1.0);
  const auto stream = make_stream(79, 3, 12, 2000);
  EngineConfig cfg;
  cfg.num_shards = 2;
  cfg.telemetry = true;
  cfg.sample_ms = 1;
  StreamingEngine engine(3, cm, cfg);
  {
    IngressSession session = engine.open_producer();
    session.submit_span(std::span<const MultiItemRequest>(stream));
    // Keep the engine alive past a few sampler periods before closing.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    session.close();
  }
  engine.finish();
  const auto series = engine.telemetry_series();
  ASSERT_FALSE(series.empty());
  // Per-shard queue depth + merge depth, fleet resident bytes, and one
  // in-flight series for the single producer.
  EXPECT_EQ(series.size(), 2u * 2u + 1u + 1u);
  bool saw_resident = false;
  bool saw_depth = false;
  for (const auto& s : series) {
    if (s.name == "service_resident_bytes") saw_resident = true;
    if (s.name == "engine_shard0_queue_depth") saw_depth = true;
    EXPECT_GT(s.seen, 0u) << s.name;
    for (std::size_t k = 1; k < s.samples.size(); ++k) {
      EXPECT_GE(s.samples[k].t_ns, s.samples[k - 1].t_ns) << s.name;
    }
  }
  EXPECT_TRUE(saw_resident);
  EXPECT_TRUE(saw_depth);

  const std::string json = engine.chrome_trace_json();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("engine (wall clock)"), std::string::npos);
  EXPECT_NE(json.find("\"shard0\""), std::string::npos);
  EXPECT_NE(json.find("\"shard1\""), std::string::npos);
  EXPECT_NE(json.find("queue_wait"), std::string::npos);  // span or counter
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);  // sampler track
  // No service events passed: no model-time process in the document.
  EXPECT_EQ(json.find("service (model time)"), std::string::npos);
}

}  // namespace
}  // namespace mcdc
