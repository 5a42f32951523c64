// Experiment ENGINE: ingest throughput of the sharded streaming engine.
//
// Question: how many requests/second can the serving layer ingest, and how
// does that scale with shard count? The serial OnlineDataService is the
// baseline (it pays the full SC update on the ingest thread); the engine
// pays hash + ring push on the ingest thread and moves the SC work onto
// shard workers, so with k usable cores the ceiling is roughly
// min(k, shards) × the per-shard service rate — minus ring handoff costs.
//
// Methodology mirrors bench_obs_overhead: each rep replays the same stream
// through every configuration back-to-back and the headline is the median
// of per-rep ratios against the same rep's serial pass (pairing cancels
// drift; the median rejects preemption spikes). Every configuration must
// reproduce the serial report bit-identically — a throughput number from a
// wrong engine is worthless, so mismatch is a hard failure.
//
// Output: BENCH_engine.json (requests/sec vs shard count and vs producer
// count — the 4-shard engine is also fed from 2 and 8 concurrent ingestion
// sessions — serial ratio, hardware context, and a telemetry-on pass
// reporting the pipeline-stage queue-wait/apply/e2e p50/p99). Gates:
//  * serial throughput >= 7M req/s (2x the pre-batching 3.5M baseline);
//  * engine at 1 shard >= 0.95x serial (the span fast path keeps the
//    transport tax under 5%), enforced only with >= 2 hardware threads —
//    on one core the producer and worker time-slice the same core, so the
//    engine's wall time is the SUM of both roles' work and the target is
//    unreachable by construction;
//  * >= 2x speedup at 4 shards, enforced only when the host actually has
//    >= 4 hardware threads (a 1-core box cannot physically speed up, and a
//    hard gate there would only teach CI to ignore red). The first two are
//    likewise skipped in --quick smoke mode, where parallel ctest
//    contention — not the code — sets the measured rate.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "engine/ingress.h"
#include "engine/streaming_engine.h"
#include "service/data_service.h"
#include "util/cli.h"
#include "util/concurrency.h"
#include "util/table.h"
#include "util/timer.h"
#include "workload/generators.h"

using namespace mcdc;

namespace {

struct RunResult {
  double secs = 0.0;
  Cost cost = 0.0;
  std::size_t requests = 0;
};

RunResult run_serial(const std::vector<MultiItemRequest>& stream, int servers,
                     const CostModel& cm) {
  Timer t;
  OnlineDataService service(servers, cm);
  service.request_span(std::span<const MultiItemRequest>(stream));
  const auto rep = service.finish();
  return {t.seconds(), rep.total_cost, rep.requests + rep.items};
}

/// Round-robin slice of `stream` owned by producer `p` of `producers`,
/// gathered into a contiguous buffer so it can be submitted as spans.
std::vector<MultiItemRequest> gather_slice(
    const std::vector<MultiItemRequest>& stream, int p, int producers) {
  std::vector<MultiItemRequest> slice;
  slice.reserve(stream.size() / static_cast<std::size_t>(producers) + 1);
  for (std::size_t k = static_cast<std::size_t>(p); k < stream.size();
       k += static_cast<std::size_t>(producers)) {
    slice.push_back(stream[k]);
  }
  return slice;
}

/// Spans submitted per call from the multi-producer threads: long enough to
/// amortize the per-span work, short enough that producers still interleave
/// at the deterministic merge (a whole-slice span would serialize them).
constexpr std::size_t kProducerSpan = 1024;

/// Replay through the engine from `producers` ingestion sessions.
/// producers == 1 submits the whole stream as one span (the batched
/// fast path the shard speedup gate measures); > 1 splits the stream
/// round-robin across barrier-started threads, one session each submitting
/// kProducerSpan-record spans, so the timing includes the deterministic
/// cross-producer merge. Slices are gathered before the clock starts.
RunResult run_engine(const std::vector<MultiItemRequest>& stream, int servers,
                     const CostModel& cm, const EngineConfig& cfg,
                     int producers) {
  std::vector<std::vector<MultiItemRequest>> slices;
  if (producers > 1) {
    for (int p = 0; p < producers; ++p) {
      slices.push_back(gather_slice(stream, p, producers));
    }
  }
  Timer t;
  StreamingEngine engine(servers, cm, cfg);
  if (producers <= 1) {
    IngressSession session = engine.open_producer();
    session.submit_span(std::span<const MultiItemRequest>(stream));
    session.close();
  } else {
    std::vector<IngressSession> sessions;
    sessions.reserve(static_cast<std::size_t>(producers));
    for (int p = 0; p < producers; ++p) {
      sessions.push_back(engine.open_producer());
    }
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(producers));
    for (int p = 0; p < producers; ++p) {
      threads.emplace_back([&, p] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        auto& session = sessions[static_cast<std::size_t>(p)];
        const auto& slice = slices[static_cast<std::size_t>(p)];
        for (std::size_t k = 0; k < slice.size(); k += kProducerSpan) {
          const std::size_t take = std::min(kProducerSpan, slice.size() - k);
          session.submit_span(
              std::span<const MultiItemRequest>(slice.data() + k, take));
        }
        session.close();
      });
    }
    go.store(true, std::memory_order_release);
    for (auto& th : threads) th.join();
  }
  const auto rep = engine.finish();
  return {t.seconds(), rep.total_cost, rep.requests + rep.items};
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args;
  args.add_bool_flag("quick", "smaller stream + fewer reps (ctest smoke mode)");
  args.add_flag("requests", "stream length", "400000");
  args.add_flag("items", "distinct items", "400");
  args.add_flag("servers", "servers", "16");
  args.add_flag("reps", "paired passes per configuration", "9");
  args.add_flag("queue-cap", "per-lane ring capacity", "4096");
  args.add_flag("out", "output JSON path", "BENCH_engine.json");
  try {
    args.parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n%s", e.what(),
                 args.usage("bench_engine_throughput").c_str());
    return 2;
  }
  const bool quick = args.get_bool("quick");
  const int requests =
      quick ? 60000 : static_cast<int>(args.get_int("requests"));
  const int reps = quick ? 5 : static_cast<int>(args.get_int("reps"));
  const unsigned hw = hardware_thread_count();

  const CostModel cm(1.0, 1.0);
  Rng rng(1717);
  MultiItemConfig cfg;
  cfg.num_servers = static_cast<int>(args.get_int("servers"));
  cfg.num_items = static_cast<int>(args.get_int("items"));
  cfg.num_requests = requests;
  const auto stream = gen_multi_item(rng, cfg);

  std::puts("== ENGINE: sharded streaming ingest throughput ==");
  std::printf(
      "stream: %zu requests, %d items, %d servers; %d paired reps; "
      "%u hardware threads\n\n",
      stream.size(), cfg.num_items, cfg.num_servers, reps, hw);

  const std::vector<int> shard_counts = {1, 2, 4, 8};
  struct Row {
    int shards = 0;     // 0 = serial baseline
    int producers = 1;  // concurrent ingestion sessions feeding the engine
    std::vector<double> speedups;
    double best_secs = 1e100;
    Cost cost = 0.0;
  };
  std::vector<Row> rows;
  rows.push_back({0, 1, {}, 1e100, 0.0});
  for (const int s : shard_counts) {
    rows.push_back({s, 1, {}, 1e100, 0.0});
  }
  // Producer scaling at the headline shard count: same 4-shard engine fed
  // by 2 and 8 concurrent sessions (the 1-producer point is a row above).
  for (const int p : {2, 8}) {
    rows.push_back({4, p, {}, 1e100, 0.0});
  }

  EngineConfig ecfg;
  ecfg.queue_capacity = static_cast<std::size_t>(args.get_int("queue-cap"));

  auto pass = [&](Row& row) {
    if (row.shards == 0) {
      const auto r = run_serial(stream, cfg.num_servers, cm);
      row.best_secs = std::min(row.best_secs, r.secs);
      row.cost = r.cost;
      return r.secs;
    }
    ecfg.num_shards = row.shards;
    const auto r = run_engine(stream, cfg.num_servers, cm, ecfg, row.producers);
    row.best_secs = std::min(row.best_secs, r.secs);
    row.cost = r.cost;
    return r.secs;
  };

  for (auto& row : rows) pass(row);  // warm-up
  for (auto& row : rows) row.best_secs = 1e100;
  for (int rep = 0; rep < reps; ++rep) {
    const double serial_secs = pass(rows[0]);
    rows[0].speedups.push_back(1.0);
    for (std::size_t i = 1; i < rows.size(); ++i) {
      rows[i].speedups.push_back(serial_secs / pass(rows[i]));
    }
  }

  bool ok = true;
  Table t({"configuration", "best pass (ms)", "Mreq/s", "median speedup"});
  std::vector<double> med(rows.size(), 1.0);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    med[i] = median(row.speedups);
    std::string name =
        row.shards == 0 ? "serial OnlineDataService"
                        : "engine, " + std::to_string(row.shards) + " shards";
    if (row.producers > 1) {
      name += ", " + std::to_string(row.producers) + " producers";
    }
    t.add_row({name, Table::num(row.best_secs * 1e3, 2),
               Table::num(static_cast<double>(stream.size()) / row.best_secs / 1e6, 2),
               Table::num(med[i], 2) + "x"});
    if (row.cost != rows[0].cost) {
      std::printf("FAIL: %s changed the total cost (%.9f vs serial %.9f)\n",
                  name.c_str(), row.cost, rows[0].cost);
      ok = false;
    }
  }
  std::fputs(t.render().c_str(), stdout);

  // ---- pipeline-telemetry pass -------------------------------------------
  // One extra (untimed-by-the-headline) replay at the headline shard count
  // with EngineConfig::telemetry on and two producers: reports the
  // pipeline-stage latency distributions the telemetry subsystem measures
  // (docs/OBSERVABILITY.md, "Pipeline-stage latencies").
  obs::LatencyHistogramSnapshot tele_queue_wait;
  obs::LatencyHistogramSnapshot tele_e2e;
  obs::LatencyHistogramSnapshot tele_apply;
  double tele_secs = 0.0;
  {
    EngineConfig tcfg = ecfg;
    tcfg.num_shards = 4;
    tcfg.telemetry = true;
    Timer timer;
    StreamingEngine engine(cfg.num_servers, cm, tcfg);
    std::vector<std::vector<MultiItemRequest>> slices;
    for (int p = 0; p < 2; ++p) slices.push_back(gather_slice(stream, p, 2));
    std::vector<IngressSession> sessions;
    sessions.push_back(engine.open_producer());
    sessions.push_back(engine.open_producer());
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (int p = 0; p < 2; ++p) {
      threads.emplace_back([&, p] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        auto& session = sessions[static_cast<std::size_t>(p)];
        const auto& slice = slices[static_cast<std::size_t>(p)];
        for (std::size_t k = 0; k < slice.size(); k += kProducerSpan) {
          const std::size_t take = std::min(kProducerSpan, slice.size() - k);
          session.submit_span(
              std::span<const MultiItemRequest>(slice.data() + k, take));
        }
        session.close();
      });
    }
    go.store(true, std::memory_order_release);
    for (auto& th : threads) th.join();
    const auto rep = engine.finish();
    tele_secs = timer.seconds();
    if (rep.total_cost != rows[0].cost) {
      std::printf("FAIL: telemetry pass changed the total cost "
                  "(%.9f vs serial %.9f)\n",
                  rep.total_cost, rows[0].cost);
      ok = false;
    }
    tele_queue_wait = engine.queue_wait_snapshot();
    tele_e2e = engine.e2e_snapshot();
    tele_apply = engine.apply_snapshot();
  }
  std::printf(
      "\ntelemetry pass (4 shards, 2 producers, telemetry=on): "
      "queue-wait p50 %llu ns / p99 %llu ns, e2e p50 %llu ns / p99 %llu ns "
      "over %llu requests\n",
      static_cast<unsigned long long>(tele_queue_wait.p50_ns()),
      static_cast<unsigned long long>(tele_queue_wait.p99_ns()),
      static_cast<unsigned long long>(tele_e2e.p50_ns()),
      static_cast<unsigned long long>(tele_e2e.p99_ns()),
      static_cast<unsigned long long>(tele_e2e.count));

  // ---- BENCH_engine.json -------------------------------------------------
  {
    std::ofstream out(args.get("out"));
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", args.get("out").c_str());
      return 2;
    }
    out << "{\n  \"bench\": \"engine_throughput\",\n";
    out << "  \"stream\": {\"requests\": " << stream.size()
        << ", \"items\": " << cfg.num_items
        << ", \"servers\": " << cfg.num_servers << "},\n";
    out << "  \"hardware_threads\": " << hw << ",\n";
    out << "  \"reps\": " << reps << ",\n";
    out << "  \"queue_capacity\": " << ecfg.queue_capacity << ",\n";
    out << "  \"configs\": [\n";
    char buf[256];
    for (std::size_t i = 0; i < rows.size(); ++i) {
      std::snprintf(buf, sizeof(buf),
                    "    {\"shards\": %d, \"producers\": %d, "
                    "\"best_seconds\": %.6f, "
                    "\"req_per_sec\": %.1f, \"median_speedup_vs_serial\": "
                    "%.4f}%s\n",
                    rows[i].shards, rows[i].producers, rows[i].best_secs,
                    static_cast<double>(stream.size()) / rows[i].best_secs,
                    med[i], i + 1 < rows.size() ? "," : "");
      out << buf;
    }
    out << "  ],\n";
    std::snprintf(
        buf, sizeof(buf),
        "  \"telemetry\": {\"shards\": 4, \"producers\": 2, "
        "\"seconds\": %.6f,\n", tele_secs);
    out << buf;
    std::snprintf(buf, sizeof(buf),
                  "    \"queue_wait_p50_ns\": %llu, "
                  "\"queue_wait_p99_ns\": %llu,\n",
                  static_cast<unsigned long long>(tele_queue_wait.p50_ns()),
                  static_cast<unsigned long long>(tele_queue_wait.p99_ns()));
    out << buf;
    std::snprintf(buf, sizeof(buf),
                  "    \"apply_p50_ns\": %llu, \"apply_p99_ns\": %llu,\n",
                  static_cast<unsigned long long>(tele_apply.p50_ns()),
                  static_cast<unsigned long long>(tele_apply.p99_ns()));
    out << buf;
    std::snprintf(buf, sizeof(buf),
                  "    \"e2e_p50_ns\": %llu, \"e2e_p99_ns\": %llu, "
                  "\"e2e_count\": %llu}\n",
                  static_cast<unsigned long long>(tele_e2e.p50_ns()),
                  static_cast<unsigned long long>(tele_e2e.p99_ns()),
                  static_cast<unsigned long long>(tele_e2e.count));
    out << buf;
    out << "}\n";
    std::printf("\nwrote %s\n", args.get("out").c_str());
  }

  // ---- throughput gates --------------------------------------------------
  // rows: serial, shards {1,2,4,8} at 1 producer, then the producer sweep.
  // All three gates compare best-of-pass numbers (the median ratio is
  // contention-sensitive under parallel ctest; the best pass is what the
  // code can actually do). Quick mode reports the
  // first two as SKIP for the same reason the 4-shard gate skips on small
  // hosts: a loaded smoke box measures the scheduler, not the engine.
  const std::size_t idx1 = 1;  // engine, 1 shard
  const std::size_t idx4 = 3;  // engine, 4 shards
  const double serial_mreq =
      static_cast<double>(stream.size()) / rows[0].best_secs / 1e6;
  if (!quick) {
    // 2x the 3.5M req/s single-record baseline this PR's batched span path
    // replaced (BENCH_engine.json history).
    const bool hit = serial_mreq >= 7.0;
    std::printf(
        "CHECK serial ingest %.2f Mreq/s (target >= 7.0 Mreq/s) — %s\n",
        serial_mreq, hit ? "PASS" : "FAIL");
    if (!hit) ok = false;
  } else {
    std::printf("CHECK serial ingest %.2f Mreq/s — SKIP (quick mode)\n",
                serial_mreq);
  }
  const double one_shard_ratio = rows[0].best_secs / rows[idx1].best_secs;
  if (!quick && hw >= 2) {
    // The 1-shard engine replays the same serial algorithm behind one SPSC
    // lane; the span fast path has to keep the transport tax under 5% when
    // producer and worker each have a core. On a single hardware thread the
    // two roles time-slice one core, so the engine's wall time is producer
    // work PLUS worker work and the target is unreachable by construction
    // (~0.6x measured) — that box skips, same reasoning as the 4-shard
    // gate below.
    const bool hit = one_shard_ratio >= 0.95;
    std::printf(
        "CHECK engine at 1 shard %.2fx serial, best pass "
        "(target >= 0.95x) — %s\n",
        one_shard_ratio, hit ? "PASS" : "FAIL");
    if (!hit) ok = false;
  } else if (!quick) {
    std::printf(
        "CHECK engine at 1 shard %.2fx serial — SKIP (only %u hardware "
        "thread; producer and worker need a core each)\n",
        one_shard_ratio, hw);
  } else {
    std::printf(
        "CHECK engine at 1 shard %.2fx serial, best pass — SKIP "
        "(quick mode)\n",
        one_shard_ratio);
  }
  const double four_shard_ratio = rows[0].best_secs / rows[idx4].best_secs;
  if (hw >= 4) {
    const bool hit = four_shard_ratio >= 2.0;
    std::printf(
        "CHECK engine speedup at 4 shards %.2fx, best pass "
        "(target >= 2x) — %s\n",
        four_shard_ratio, hit ? "PASS" : "FAIL");
    if (!hit) ok = false;
  } else {
    std::printf(
        "CHECK engine speedup at 4 shards %.2fx — SKIP (only %u hardware "
        "thread%s; target needs >= 4)\n",
        four_shard_ratio, hw, hw == 1 ? "" : "s");
  }
  return ok ? 0 : 1;
}
