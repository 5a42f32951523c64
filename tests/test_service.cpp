// Tests for the multi-item data service layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "core/offline_dp.h"
#include "core/online_sc.h"
#include "service/data_service.h"
#include "util/rng.h"

namespace mcdc {
namespace {

std::vector<MultiItemRequest> small_stream() {
  // Two items over 3 servers. Item 0 born on s1 at t=1; item 1 on s2 at t=2.
  return {{0, 0, 1.0}, {1, 1, 2.0}, {0, 1, 3.0},
          {1, 1, 4.0}, {0, 0, 5.0}, {1, 2, 6.0}};
}

TEST(ServiceInstances, SplitsAndRebases) {
  const auto inst = service_instances(small_stream(), 3);
  ASSERT_EQ(inst.size(), 2u);
  EXPECT_EQ(inst[0].item, 0);
  EXPECT_EQ(inst[0].origin, 0);
  EXPECT_DOUBLE_EQ(inst[0].birth, 1.0);
  EXPECT_EQ(inst[0].sequence.n(), 2);  // birth request excluded
  EXPECT_DOUBLE_EQ(inst[0].sequence.time(1), 2.0);  // 3.0 - 1.0
  EXPECT_EQ(inst[0].sequence.server(1), 1);
  EXPECT_EQ(inst[1].origin, 1);
  EXPECT_EQ(inst[1].sequence.n(), 2);
}

TEST(ServiceInstances, RejectsBadStreams) {
  EXPECT_THROW(service_instances({{0, 9, 1.0}}, 3), std::invalid_argument);
  EXPECT_THROW(service_instances({{0, 0, 1.0}, {1, 1, 1.0}}, 3),
               std::invalid_argument);
}

TEST(OfflineService, AggregatesPerItemOptima) {
  const CostModel cm(1.0, 1.0);
  const auto rep = plan_offline_service(small_stream(), 3, cm);
  EXPECT_EQ(rep.items, 2u);
  EXPECT_EQ(rep.requests, 4u);
  // Cross-check: sum of per-item DP optima.
  Cost manual = 0.0;
  for (const auto& inst : service_instances(small_stream(), 3)) {
    manual += solve_offline(inst.sequence, cm, {.reconstruct_schedule = false})
                  .optimal_cost;
  }
  EXPECT_NEAR(rep.total_cost, manual, 1e-9);
  EXPECT_NEAR(rep.caching_cost + rep.transfer_cost, rep.total_cost, 1e-9);
}

TEST(OnlineService, MatchesPerItemScRuns) {
  Rng rng(21);
  const CostModel cm(1.0, 1.0);
  MultiItemConfig cfg;
  cfg.num_servers = 4;
  cfg.num_items = 8;
  cfg.num_requests = 400;
  const auto stream = gen_multi_item(rng, cfg);

  OnlineDataService service(cfg.num_servers, cm);
  for (const auto& r : stream) service.request(r.item, r.server, r.time);
  const auto rep = service.finish();

  Cost manual = 0.0;
  std::size_t manual_items = 0;
  for (const auto& inst : service_instances(stream, cfg.num_servers)) {
    manual += run_speculative_caching(inst.sequence, cm).total_cost;
    ++manual_items;
  }
  EXPECT_EQ(rep.items, manual_items);
  EXPECT_NEAR(rep.total_cost, manual, 1e-7);
}

TEST(OnlineService, BirthRequestIsLocalHit) {
  const CostModel cm(1.0, 1.0);
  OnlineDataService service(3, cm);
  EXPECT_TRUE(service.request(7, 2, 1.0));   // birth on s3
  EXPECT_TRUE(service.request(7, 2, 1.5));   // local hit
  EXPECT_FALSE(service.request(7, 0, 9.0));  // transfer after expiry
  const auto rep = service.finish();
  EXPECT_EQ(rep.items, 1u);
  EXPECT_EQ(rep.requests, 2u);
  EXPECT_EQ(rep.per_item[0].transfers, 1u);
  EXPECT_EQ(rep.per_item[0].hits, 1u);
}

TEST(OnlineService, ThreeCompetitivePerItem) {
  Rng rng(23);
  const CostModel cm(1.0, 1.0);
  MultiItemConfig cfg;
  cfg.num_servers = 4;
  cfg.num_items = 10;
  cfg.num_requests = 600;
  const auto stream = gen_multi_item(rng, cfg);

  OnlineDataService service(cfg.num_servers, cm);
  for (const auto& r : stream) service.request(r.item, r.server, r.time);
  const auto online = service.finish();
  const auto offline = plan_offline_service(stream, cfg.num_servers, cm);
  EXPECT_LE(online.total_cost, 3.0 * offline.total_cost + 1e-6);
  EXPECT_GE(online.total_cost, offline.total_cost - 1e-6);
}

TEST(OnlineService, HomEquivalentHetLiftBitIdentical) {
  // The exact homogeneous lift through the whole multi-item service:
  // every aggregate and per-item field must match the scalar path bit
  // for bit (the serving loops share code; the lift must not perturb a
  // single float).
  Rng rng(31);
  const CostModel cm(0.8, 1.7);
  MultiItemConfig cfg;
  cfg.num_servers = 5;
  cfg.num_items = 9;
  cfg.num_requests = 500;
  const auto stream = gen_multi_item(rng, cfg);

  OnlineDataService hom_service(cfg.num_servers, cm);
  OnlineDataService het_service(
      cfg.num_servers, HeterogeneousCostModel(cfg.num_servers, cm));
  for (const auto& r : stream) {
    hom_service.request(r.item, r.server, r.time);
    het_service.request(r.item, r.server, r.time);
  }
  const auto hom = hom_service.finish();
  const auto het = het_service.finish();
  EXPECT_EQ(het.total_cost, hom.total_cost);
  EXPECT_EQ(het.caching_cost, hom.caching_cost);
  EXPECT_EQ(het.transfer_cost, hom.transfer_cost);
  ASSERT_EQ(het.per_item.size(), hom.per_item.size());
  for (std::size_t i = 0; i < hom.per_item.size(); ++i) {
    EXPECT_EQ(het.per_item[i].cost, hom.per_item[i].cost);
    EXPECT_EQ(het.per_item[i].hits, hom.per_item[i].hits);
    EXPECT_EQ(het.per_item[i].transfers, hom.per_item[i].transfers);
  }
  EXPECT_EQ(het.to_string(), hom.to_string());
}

TEST(OnlineService, HeterogeneousModelMustMatchServerCount) {
  const HeterogeneousCostModel het(3, CostModel(1.0, 1.0));
  try {
    OnlineDataService service(4, het);
    FAIL() << "no exception for a 3-server model on a 4-server service";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find('3'), std::string::npos) << what;
    EXPECT_NE(what.find('4'), std::string::npos) << what;
  }
  OnlineDataService ok(3, het);  // matching sizes construct fine
  ok.request(0, 1, 1.0);
  ok.request(0, 2, 2.0);
  EXPECT_GT(ok.finish().total_cost, 0.0);
}

TEST(OnlineService, Errors) {
  const CostModel cm(1.0, 1.0);
  OnlineDataService service(2, cm);
  EXPECT_THROW(OnlineDataService(0, cm), std::invalid_argument);
  service.request(0, 0, 1.0);
  EXPECT_THROW(service.request(0, 0, 1.0), std::invalid_argument);
  EXPECT_THROW(service.request(0, 5, 2.0), std::invalid_argument);
  service.finish();
  EXPECT_THROW(service.request(0, 0, 3.0), std::logic_error);
  EXPECT_THROW(service.finish(), std::logic_error);
}

void expect_same_report(const ServiceReport& a, const ServiceReport& b) {
  EXPECT_EQ(a.total_cost, b.total_cost);  // exact, not NEAR
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
    EXPECT_EQ(x.requests, y.requests) << "item " << x.item;
    EXPECT_EQ(x.cost, y.cost) << "item " << x.item;
    EXPECT_EQ(x.caching_cost, y.caching_cost) << "item " << x.item;
    EXPECT_EQ(x.transfer_cost, y.transfer_cost) << "item " << x.item;
    EXPECT_EQ(x.transfers, y.transfers) << "item " << x.item;
    EXPECT_EQ(x.hits, y.hits) << "item " << x.item;
    EXPECT_EQ(x.schedule.to_string(), y.schedule.to_string())
        << "item " << x.item;
  }
}

TEST(OnlineService, RejectedRequestsLeaveTheServiceUnchanged) {
  // Every request the service rejects must change nothing — not its
  // clock, not the item's last time, not its request count — so a stream
  // with rejected requests interleaved serves exactly like the clean one.
  const CostModel cm(1.0, 1.0);
  const Time nan = std::numeric_limits<Time>::quiet_NaN();
  const std::vector<MultiItemRequest> valid = {
      {0, 0, 1.0}, {0, 1, 2.0}, {1, 0, 3.0}, {0, 2, 4.0},
      {1, 2, 5.0}, {2, 1, 6.0}, {0, 0, 7.0}, {1, 1, 8.0}};
  struct Rejected {
    const char* what;
    std::size_t before;  ///< index into `valid` it is interleaved ahead of
    MultiItemRequest r;
  };
  const std::vector<Rejected> rejected = {
      {"NaN birth", 0, {5, 1, nan}},
      {"NaN on a live item", 2, {0, 1, nan}},
      {"earlier time", 2, {1, 0, 0.5}},  // right after the NaN: clock intact
      {"same-item equal time", 2, {0, 2, 2.0}},
      {"server out of range", 3, {1, 3, 3.5}},
  };
  OnlineDataService clean(3, cm);
  for (const auto& r : valid) clean.request(r.item, r.server, r.time);
  const ServiceReport want = clean.finish();

  // Feed through request() or through one-record request_span() calls;
  // `only` picks one rejected request, or all of them when null.
  auto run = [&](bool span, const Rejected* only) {
    OnlineDataService service(3, cm);
    auto feed = [&](const MultiItemRequest& r) {
      if (span) {
        service.request_span(std::span<const MultiItemRequest>(&r, 1));
      } else {
        service.request(r.item, r.server, r.time);
      }
    };
    for (std::size_t k = 0; k <= valid.size(); ++k) {
      for (const Rejected& bad : rejected) {
        if (bad.before != k || (only != nullptr && only != &bad)) continue;
        SCOPED_TRACE(bad.what);
        EXPECT_THROW(feed(bad.r), std::invalid_argument);
      }
      if (k < valid.size()) feed(valid[k]);
    }
    EXPECT_EQ(service.live_items(), 3u);
    expect_same_report(want, service.finish());
  };
  for (const bool span : {false, true}) {
    SCOPED_TRACE(span ? "request_span" : "request");
    run(span, nullptr);
    for (const Rejected& bad : rejected) {
      SCOPED_TRACE(std::string("only ") + bad.what);
      run(span, &bad);
    }
  }
}

TEST(OnlineService, RequestSpanBitIdenticalToPerRecordLoop) {
  // The batched API documents "report bit-identical to request() per
  // record" — pin it, including across chunked submission (state carries
  // over between spans) and the prefetch pipeline's birth handling.
  Rng rng(37);
  const CostModel cm(1.0, 0.7);
  MultiItemConfig cfg;
  cfg.num_servers = 5;
  cfg.num_items = 12;
  cfg.num_requests = 600;
  const auto stream = gen_multi_item(rng, cfg);

  OnlineDataService by_record(cfg.num_servers, cm);
  std::size_t local_by_record = 0;
  for (const auto& r : stream) {
    if (by_record.request(r.item, r.server, r.time)) ++local_by_record;
  }
  const auto rep_record = by_record.finish();

  OnlineDataService whole(cfg.num_servers, cm);
  const std::size_t local_whole =
      whole.request_span(std::span<const MultiItemRequest>(stream));
  const auto rep_whole = whole.finish();

  OnlineDataService chunked(cfg.num_servers, cm);
  std::size_t local_chunked = 0;
  for (std::size_t k = 0; k < stream.size(); k += 7) {
    const std::size_t take = std::min<std::size_t>(7, stream.size() - k);
    local_chunked += chunked.request_span(
        std::span<const MultiItemRequest>(stream.data() + k, take));
  }
  const auto rep_chunked = chunked.finish();

  // Empty spans are legal no-ops.
  OnlineDataService empty_ok(cfg.num_servers, cm);
  EXPECT_EQ(empty_ok.request_span({}), 0u);

  EXPECT_EQ(local_whole, local_by_record);
  EXPECT_EQ(local_chunked, local_by_record);
  for (const auto* rep : {&rep_whole, &rep_chunked}) {
    EXPECT_EQ(rep->total_cost, rep_record.total_cost);  // exact, not NEAR
    EXPECT_EQ(rep->caching_cost, rep_record.caching_cost);
    EXPECT_EQ(rep->transfer_cost, rep_record.transfer_cost);
    EXPECT_EQ(rep->requests, rep_record.requests);
    ASSERT_EQ(rep->per_item.size(), rep_record.per_item.size());
    for (std::size_t i = 0; i < rep->per_item.size(); ++i) {
      EXPECT_EQ(rep->per_item[i].item, rep_record.per_item[i].item);
      EXPECT_EQ(rep->per_item[i].cost, rep_record.per_item[i].cost);
      EXPECT_EQ(rep->per_item[i].hits, rep_record.per_item[i].hits);
      EXPECT_EQ(rep->per_item[i].transfers,
                rep_record.per_item[i].transfers);
    }
  }
}

TEST(OnlineService, ManyItemsLiveIndependently) {
  const CostModel cm(1.0, 1.0);
  OnlineDataService service(4, cm);
  Rng rng(29);
  Time t = 0.0;
  for (int i = 0; i < 200; ++i) {
    t += 0.1;
    service.request(static_cast<int>(rng.uniform_int(std::uint64_t(20))),
                    static_cast<ServerId>(rng.uniform_int(std::uint64_t(4))), t);
  }
  EXPECT_LE(service.live_items(), 20u);
  const auto rep = service.finish();
  EXPECT_EQ(rep.items, service.live_items());
  EXPECT_GT(rep.total_cost, 0.0);
}

// --- report formatting (golden strings) ------------------------------------
//
// These pin the exact rendered output: the strings land in EXPERIMENTS.md
// snippets and operator logs, so formatting drift is a real regression,
// not a cosmetic one.

ServiceReport golden_report() {
  ItemOutcome a;
  a.item = 7;
  a.origin = 1;
  a.birth = 1.5;
  a.requests = 3;
  a.hits = 1;
  a.transfers = 2;
  a.caching_cost = 2.25;
  a.transfer_cost = 4.0;
  a.cost = 6.25;
  ItemOutcome b;
  b.item = 2;
  b.origin = 0;
  b.birth = 0.5;
  b.requests = 2;
  b.hits = 2;
  b.transfers = 0;
  b.caching_cost = 1.0;
  b.transfer_cost = 0.0;
  b.cost = 1.0;
  ServiceReport rep;
  rep.per_item = {b, a};  // ascending item id, like finish() produces
  finalize_report(rep);
  return rep;
}

TEST(ServiceReportFormat, ItemOutcomeSummaryGolden) {
  const ServiceReport rep = golden_report();
  EXPECT_EQ(rep.per_item[1].summary(),
            "item 7: born s2@1.500, 3 requests, 1 hits, 2 transfers, "
            "cost 6.250 (caching 2.250 + transfer 4.000)");
}

TEST(ServiceReportFormat, ToStringGolden) {
  // Rows are sorted by descending cost (item 7 before item 2), not id.
  const std::string expected =
      "2 items, 5 requests: total cost 7.250 (caching 3.250 + transfer 4.000)\n"
      "+------+--------+-------+----------+------+-----------+---------+----------+-------+\n"
      "| item | origin | born  | requests | hits | transfers | caching | transfer | cost  |\n"
      "+------+--------+-------+----------+------+-----------+---------+----------+-------+\n"
      "| 7    | s2     | 1.500 | 3        | 1    | 2         | 2.250   | 4.000    | 6.250 |\n"
      "| 2    | s1     | 0.500 | 2        | 2    | 0         | 1.000   | 0.000    | 1.000 |\n"
      "+------+--------+-------+----------+------+-----------+---------+----------+-------+\n";
  EXPECT_EQ(golden_report().to_string(), expected);
}

TEST(ServiceReportFormat, ToStringTruncationGolden) {
  // max_items=1 keeps the costliest row and reports the remainder.
  const std::string expected =
      "2 items, 5 requests: total cost 7.250 (caching 3.250 + transfer 4.000)\n"
      "+------+--------+-------+----------+------+-----------+---------+----------+-------+\n"
      "| item | origin | born  | requests | hits | transfers | caching | transfer | cost  |\n"
      "+------+--------+-------+----------+------+-----------+---------+----------+-------+\n"
      "| 7    | s2     | 1.500 | 3        | 1    | 2         | 2.250   | 4.000    | 6.250 |\n"
      "+------+--------+-------+----------+------+-----------+---------+----------+-------+\n"
      "(+1 more items by cost)\n";
  EXPECT_EQ(golden_report().to_string(1), expected);
}

TEST(ServiceReportFormat, ToStringEmptyReportOmitsTable) {
  ServiceReport rep;
  finalize_report(rep);
  EXPECT_EQ(rep.to_string(),
            "0 items, 0 requests: total cost 0.000 (caching 0.000 + "
            "transfer 0.000)");
}

}  // namespace
}  // namespace mcdc
