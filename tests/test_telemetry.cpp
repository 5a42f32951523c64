// Pipeline-telemetry component tests: the lock-free LatencyHistogram, the
// pre-allocated sample/span rings, the background TelemetrySampler, the
// Chrome-trace and Prometheus exporters, and the labeled-metric helper.
//
// Two contracts get proven rather than argued:
//   1. quantile agreement — percentile_ns() matches util/stats.h
//      percentile() on random samples to within the log2 bucket
//      resolution (<= 2x relative error);
//   2. steady-state recording is allocation-free — histogram record(),
//      ring pushes, and counter/gauge updates perform ZERO heap
//      allocations, proven by a counting global operator new (same
//      discipline as tests/test_service_memory.cpp).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "obs/latency_histogram.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "util/rng.h"
#include "util/stats.h"

// --- counting global allocator ---------------------------------------------
//
// Replaceable operator new/delete for the whole test binary, gated on a
// flag so gtest's own bookkeeping outside the measured window does not
// pollute the count. malloc/free stay the underlying source, so the
// sanitizers still see every allocation.

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_alloc_count{0};

void* counted_alloc(std::size_t n) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t) { return counted_alloc(n); }
void* operator new[](std::size_t n, std::align_val_t) {
  return counted_alloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace mcdc {
namespace {

// ---- LatencyHistogram ------------------------------------------------------

TEST(LatencyHistogram, BucketBoundaries) {
  using H = obs::LatencyHistogram;
  using S = obs::LatencyHistogramSnapshot;
  // 0 and 1 ns share bucket 0; each power of two opens the next bucket.
  EXPECT_EQ(H::bucket_of(0), 0);
  EXPECT_EQ(H::bucket_of(1), 0);
  EXPECT_EQ(H::bucket_of(2), 1);
  EXPECT_EQ(H::bucket_of(3), 1);
  EXPECT_EQ(H::bucket_of(4), 2);
  EXPECT_EQ(H::bucket_of(7), 2);
  EXPECT_EQ(H::bucket_of(8), 3);
  for (int b = 1; b < obs::kLatencyBuckets - 1; ++b) {
    const std::uint64_t lo = std::uint64_t{1} << b;
    EXPECT_EQ(H::bucket_of(lo), b) << "floor of bucket " << b;
    EXPECT_EQ(H::bucket_of(2 * lo - 1), b) << "ceiling of bucket " << b;
    EXPECT_EQ(S::bucket_floor_ns(b), lo);
    EXPECT_EQ(S::bucket_ceil_ns(b), 2 * lo);
  }
  EXPECT_EQ(S::bucket_floor_ns(0), 0u);
  EXPECT_EQ(S::bucket_ceil_ns(0), 2u);
  // Everything at or beyond 2^47 ns (~39 h) lands in the overflow bucket.
  EXPECT_EQ(H::bucket_of(std::uint64_t{1} << 47), obs::kLatencyBuckets - 1);
  EXPECT_EQ(H::bucket_of(~std::uint64_t{0}), obs::kLatencyBuckets - 1);
}

TEST(LatencyHistogram, RecordSnapshotAndMerge) {
  obs::LatencyHistogram a;
  a.record(0);
  a.record(1);
  a.record(5);
  a.record(5);
  obs::LatencyHistogram b;
  b.record(1000);
  b.record(123456789);

  auto sa = a.snapshot();
  EXPECT_EQ(sa.count, 4u);
  EXPECT_EQ(sa.sum_ns, 11u);
  EXPECT_EQ(sa.max_ns, 5u);
  EXPECT_EQ(sa.counts[0], 2u);  // 0 and 1
  EXPECT_EQ(sa.counts[2], 2u);  // 5 twice in [4, 8)

  const auto sb = b.snapshot();
  sa.merge(sb);
  EXPECT_EQ(sa.count, 6u);
  EXPECT_EQ(sa.sum_ns, 11u + 1000u + 123456789u);
  EXPECT_EQ(sa.max_ns, 123456789u);
  EXPECT_EQ(sa.counts[9], 1u);   // 1000 in [512, 1024)
  EXPECT_EQ(sa.counts[26], 1u);  // 123456789 in [2^26, 2^27)
}

TEST(LatencyHistogram, EmptyAndExactMaxQuantiles) {
  obs::LatencyHistogram h;
  EXPECT_EQ(h.snapshot().percentile_ns(50), 0.0);
  h.record(777);
  const auto s = h.snapshot();
  EXPECT_EQ(s.percentile_ns(100), 777.0);  // q == 100 is the exact max
  // A single sample: every quantile collapses onto its bucket.
  EXPECT_LE(s.percentile_ns(50), 1024.0);
  EXPECT_GE(s.percentile_ns(50), 512.0);
}

TEST(LatencyHistogram, PercentileAgreesWithStatsOnRandomSamples) {
  // Log-uniform nanosecond samples spanning ~9 decades: the regime the
  // log2 buckets are built for. The histogram answer must match the
  // exact util/stats.h order-statistic interpolation to within one
  // bucket, i.e. a factor of 2.
  Rng rng(20260807);
  obs::LatencyHistogram h;
  std::vector<double> exact;
  exact.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    const double log2ns = rng.uniform(0.0, 30.0);
    const auto ns = static_cast<std::uint64_t>(std::pow(2.0, log2ns));
    h.record(ns);
    exact.push_back(static_cast<double>(ns));
  }
  const auto s = h.snapshot();
  for (const double q : {1.0, 10.0, 50.0, 90.0, 95.0, 99.0, 99.9}) {
    const double want = percentile(exact, q);
    const double got = s.percentile_ns(q);
    EXPECT_LE(got, want * 2.0) << "q=" << q;
    EXPECT_GE(got, want / 2.0) << "q=" << q;
  }
  EXPECT_EQ(s.percentile_ns(100), static_cast<double>(s.max_ns));
}

TEST(LatencyHistogram, ConcurrentRecordingIsRaceFree) {
  // 4 writers, one concurrent snapshotting reader: the TSan preset turns
  // this into a data-race proof; every preset checks the final totals.
  obs::LatencyHistogram h;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 50000;
  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&h, &go, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        h.record((i % 4096) + static_cast<std::uint64_t>(t));
      }
    });
  }
  std::thread reader([&h, &go] {
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    for (int i = 0; i < 100; ++i) {
      const auto s = h.snapshot();
      EXPECT_LE(s.count, kThreads * kPerThread);
    }
  });
  go.store(true, std::memory_order_release);
  for (auto& w : writers) w.join();
  reader.join();
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, kThreads * kPerThread);
  EXPECT_EQ(s.max_ns, 4095u + kThreads - 1);
}

// ---- rings -----------------------------------------------------------------

TEST(Ring, SampleWrapAroundKeepsNewest) {
  obs::Ring<obs::TimeSample> ring(4);
  EXPECT_EQ(ring.capacity(), 4u);
  for (std::uint64_t i = 0; i < 10; ++i) {
    ring.push({i * 100, static_cast<double>(i)});
  }
  EXPECT_EQ(ring.seen(), 10u);
  const auto samples = ring.items();
  ASSERT_EQ(samples.size(), 4u);
  // Oldest-first among the retained tail: 6, 7, 8, 9.
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_EQ(samples[k].t_ns, (6 + k) * 100);
    EXPECT_EQ(samples[k].value, static_cast<double>(6 + k));
  }
  EXPECT_THROW(obs::Ring<obs::TimeSample>(0), std::invalid_argument);
}

TEST(Ring, SpanWrapAroundKeepsNewest) {
  obs::Ring<obs::TelemetrySpan> ring(3);
  for (std::uint64_t i = 0; i < 5; ++i) {
    ring.push({"stage", i, 10 + i, i});
  }
  EXPECT_EQ(ring.seen(), 5u);
  const auto spans = ring.items();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].start_ns, 2u);
  EXPECT_EQ(spans[2].start_ns, 4u);
  EXPECT_EQ(spans[2].dur_ns, 14u);
  EXPECT_STREQ(spans[2].name, "stage");
  EXPECT_THROW(obs::Ring<obs::TelemetrySpan>(0), std::invalid_argument);
}

TEST(Ring, PartialFillReturnsOnlyPushed) {
  obs::Ring<obs::TimeSample> ring(8);
  ring.push({1, 1.0});
  ring.push({2, 2.0});
  const auto samples = ring.items();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].t_ns, 1u);
  EXPECT_EQ(samples[1].t_ns, 2u);
}

// ---- telemetry clock -------------------------------------------------------

TEST(TelemetryClock, MonotoneSharedEpoch) {
  const std::uint64_t a = obs::telemetry_now_ns();
  const std::uint64_t b = obs::telemetry_now_ns();
  EXPECT_LE(a, b);
}

// ---- sampler ---------------------------------------------------------------

TEST(TelemetrySampler, TicksProbesIntoSeries) {
  std::atomic<int> calls{0};
  std::vector<obs::TelemetrySampler::Source> sources;
  sources.push_back({"calls", [&calls] {
                       return static_cast<double>(
                           calls.fetch_add(1, std::memory_order_relaxed));
                     }});
  sources.push_back({"constant", [] { return 42.0; }});
  obs::TelemetrySampler sampler(std::move(sources),
                                std::chrono::milliseconds(1), 64);
  sampler.start();
  EXPECT_TRUE(sampler.running());
  // The loop ticks first, then waits: at least one tick lands immediately,
  // and a few more within a generous window even on a loaded box.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (sampler.ticks() < 3 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  sampler.stop();
  EXPECT_FALSE(sampler.running());
  sampler.stop();  // idempotent

  const std::uint64_t ticks = sampler.ticks();
  ASSERT_GE(ticks, 3u);
  const auto series = sampler.series();
  ASSERT_EQ(series.size(), 2u);
  EXPECT_EQ(series[0].name, "calls");
  EXPECT_EQ(series[0].seen, ticks);
  ASSERT_EQ(series[0].samples.size(), ticks);  // capacity 64 not exceeded
  for (std::size_t k = 0; k < series[0].samples.size(); ++k) {
    EXPECT_EQ(series[0].samples[k].value, static_cast<double>(k));
    if (k > 0) {
      EXPECT_GE(series[0].samples[k].t_ns, series[0].samples[k - 1].t_ns);
    }
  }
  EXPECT_EQ(series[1].name, "constant");
  for (const auto& smp : series[1].samples) EXPECT_EQ(smp.value, 42.0);
}

TEST(TelemetrySampler, RejectsNonPositivePeriod) {
  std::vector<obs::TelemetrySampler::Source> sources;
  sources.push_back({"x", [] { return 0.0; }});
  EXPECT_THROW(
      obs::TelemetrySampler(std::move(sources), std::chrono::milliseconds(0)),
      std::invalid_argument);
}

// ---- labeled metric families -----------------------------------------------

TEST(LabeledMetricFamily, BuildsPrefixedNamesAndSharesObjects) {
  obs::MetricsRegistry reg;
  const obs::LabeledMetricFamily shard3(reg, "engine_shard", 3);
  EXPECT_EQ(shard3.prefix(), "engine_shard3_");
  obs::Counter& c = shard3.counter("requests");
  c.inc(7);
  // Re-resolving through the family or the registry hits the same object.
  EXPECT_EQ(&shard3.counter("requests"), &c);
  EXPECT_EQ(&reg.counter("engine_shard3_requests"), &c);
  EXPECT_EQ(reg.counter("engine_shard3_requests").value(), 7u);
  shard3.gauge("queue_depth").set(5.0);
  shard3.latency("e2e_ns").record(100);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.latency.size(), 1u);
  EXPECT_EQ(snap.latency[0].first, "engine_shard3_e2e_ns");
  EXPECT_EQ(snap.latency[0].second.count, 1u);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"engine_shard3_requests\":7"), std::string::npos);
  EXPECT_NE(json.find("engine_shard3_e2e_ns"), std::string::npos);
}

// ---- exporters -------------------------------------------------------------

TEST(ChromeTrace, GoldenDocument) {
  obs::ChromeTraceBuilder b;
  b.add_process(1, "engine (wall clock)");
  b.add_thread(1, 0, "shard0");
  b.add_span(1, 0, {"apply", 1500, 2500, 3});
  b.add_span(1, 0, {"merge_stall", 4000, 1000, 0});
  b.add_counter(1, "engine_shard0_queue_depth", 2000, 5.0);
  b.add_process(2, "service (model time)");
  obs::Event e;
  e.kind = obs::EventKind::kRequestServed;
  e.at = 1.25;
  e.item = 7;
  e.server = 2;
  e.cost_delta = 1.0;
  e.hit = true;
  b.add_event(2, 0, e);
  EXPECT_EQ(b.events(), 7u);
  EXPECT_EQ(
      b.json(),
      "{\"traceEvents\":["
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"engine (wall clock)\"}},"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"shard0\"}},"
      "{\"name\":\"apply\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":1.5,"
      "\"dur\":2.5,\"args\":{\"records\":3}},"
      "{\"name\":\"merge_stall\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":4,"
      "\"dur\":1},"
      "{\"name\":\"engine_shard0_queue_depth\",\"ph\":\"C\",\"pid\":1,"
      "\"tid\":0,\"ts\":2,\"args\":{\"value\":5}},"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,"
      "\"args\":{\"name\":\"service (model time)\"}},"
      "{\"name\":\"request_served\",\"ph\":\"i\",\"pid\":2,\"tid\":0,"
      "\"ts\":1.25e+06,\"s\":\"t\",\"args\":{\"item\":7,\"server\":2,"
      "\"cost_delta\":1,\"hit\":true}}"
      "],\"displayTimeUnit\":\"ms\"}");
}

TEST(ChromeTrace, EmptyDocumentIsValid) {
  obs::ChromeTraceBuilder b;
  EXPECT_EQ(b.json(), "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}");
}

TEST(Prometheus, GoldenExposition) {
  obs::MetricsRegistry reg;
  reg.counter("cache_hits").inc(3);
  reg.gauge("queue_depth").set(2.5);
  auto& lat = reg.latency("e2e_ns");
  lat.record(1);    // bucket 0: [0, 2)
  lat.record(3);    // bucket 1: [2, 4)
  lat.record(700);  // bucket 9: [512, 1024)
  EXPECT_EQ(obs::to_prometheus(reg.snapshot()),
            "# TYPE cache_hits counter\n"
            "cache_hits 3\n"
            "# TYPE queue_depth gauge\n"
            "queue_depth 2.5\n"
            "# TYPE e2e_ns histogram\n"
            "e2e_ns_bucket{le=\"2\"} 1\n"
            "e2e_ns_bucket{le=\"4\"} 2\n"
            "e2e_ns_bucket{le=\"8\"} 2\n"
            "e2e_ns_bucket{le=\"16\"} 2\n"
            "e2e_ns_bucket{le=\"32\"} 2\n"
            "e2e_ns_bucket{le=\"64\"} 2\n"
            "e2e_ns_bucket{le=\"128\"} 2\n"
            "e2e_ns_bucket{le=\"256\"} 2\n"
            "e2e_ns_bucket{le=\"512\"} 2\n"
            "e2e_ns_bucket{le=\"1024\"} 3\n"
            "e2e_ns_bucket{le=\"+Inf\"} 3\n"
            "e2e_ns_sum 704\n"
            "e2e_ns_count 3\n");
}

// ---- the allocation contract -----------------------------------------------

TEST(TelemetryAllocation, SteadyStateRecordingIsAllocationFree) {
  // Pre-allocate everything a recording hot path touches...
  obs::MetricsRegistry reg;
  obs::Counter& counter = reg.counter("engine_shard0_requests");
  obs::Gauge& gauge = reg.gauge("engine_shard0_queue_depth");
  obs::LatencyHistogram& hist = reg.latency("engine_shard0_e2e_ns");
  obs::Ring<obs::TimeSample> samples(1024);
  obs::Ring<obs::TelemetrySpan> spans(1024);

  // ...then prove the steady state is allocation-free: 100k iterations of
  // every telemetry write the shard workers and producers perform.
  g_alloc_count.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_release);
  for (std::uint64_t i = 0; i < 100000; ++i) {
    const std::uint64_t t = obs::telemetry_now_ns();
    hist.record(i % 5000);
    counter.inc(3);
    gauge.set(static_cast<double>(i % 64));
    samples.push({t, static_cast<double>(i)});
    spans.push({"apply", t, 100, 1});
  }
  g_count_allocs.store(false, std::memory_order_release);
  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), 0u)
      << "telemetry recording allocated on the steady-state path";

  // Sanity: the writes actually landed.
  EXPECT_EQ(hist.snapshot().count, 100000u);
  EXPECT_EQ(counter.value(), 300000u);
  EXPECT_EQ(samples.seen(), 100000u);
  EXPECT_EQ(spans.seen(), 100000u);
}

}  // namespace
}  // namespace mcdc
