#include "engine/streaming_engine.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/export.h"
#include "obs/metrics.h"
#include "util/concurrency.h"

namespace mcdc {

std::size_t StreamingEngine::shard_of(int item, int num_shards) {
  MCDC_ASSERT(num_shards > 0);
  // splitmix64 finalizer: item ids are often small and sequential, so a
  // plain modulo would lane-correlate with generator patterns.
  std::uint64_t x = static_cast<std::uint32_t>(item);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<std::size_t>(x % static_cast<std::uint64_t>(num_shards));
}

StreamingEngine::StreamingEngine(int num_servers, const ServingCostModel& cm,
                                 const EngineConfig& cfg)
    : num_servers_(num_servers) {
  if (num_servers <= 0) {
    throw std::invalid_argument("StreamingEngine: need at least one server");
  }
  if (cfg.queue_capacity == 0) {
    throw std::invalid_argument("StreamingEngine: queue_capacity must be > 0");
  }
  // Constructor-supplied model vs the EngineConfig::cost string: exactly
  // one may be heterogeneous.
  const ServingCostModel effective =
      resolve_cost(cfg.cost, cm, num_servers, "StreamingEngine");
  const int shards = cfg.num_shards > 0
                         ? cfg.num_shards
                         : static_cast<int>(hardware_thread_count());

  SpeculativeCachingOptions shard_options = cfg.service_options;
  obs::Observer* ob = cfg.service_options.observer;
  observer_ = ob;
  if (ob != nullptr && ob->sink() != nullptr) {
    locked_sink_ = std::make_unique<obs::LockedSink>(ob->sink());
    shard_observer_ =
        std::make_unique<obs::Observer>(ob->metrics(), locked_sink_.get());
    shard_options.observer = shard_observer_.get();
  }
  if (cfg.telemetry) {
    if (ob != nullptr && ob->metrics() != nullptr) {
      telemetry_registry_ = ob->metrics();
    } else {
      // No observer registry: telemetry still works against an
      // engine-owned registry (telemetry_registry() exposes it).
      owned_registry_ = std::make_unique<obs::MetricsRegistry>();
      telemetry_registry_ = owned_registry_.get();
    }
    sample_ms_ = cfg.sample_ms;
  }

  shards_.reserve(static_cast<std::size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<EngineShard>(
        i, num_servers, effective, cfg, shard_options, telemetry_registry_));
  }
  for (auto& s : shards_) s->start();
}

StreamingEngine::~StreamingEngine() {
  // The sampler's probes reference shards and producer states: stop it
  // first. The empty call_once synchronizes with the producer thread
  // that may have started it.
  std::call_once(sampler_once_, [] {});
  if (sampler_ != nullptr) sampler_->stop();
  // Abandoned sessions must not keep the workers waiting on their lanes;
  // marking every producer closed turns their close() into a no-op.
  for (auto& p : producers_) p->closed.store(true, std::memory_order_release);
  // Workers retire into ProducerState, and producers_ (declared later) is
  // destroyed before shards_ — so the workers must be joined here, while
  // every producer is still alive, not in the shards' own destructors.
  shards_.clear();
}

IngressSession StreamingEngine::open_producer() {
  const std::lock_guard<std::mutex> lock(producers_mu_);
  if (finished_) {
    throw std::logic_error("StreamingEngine: already finished");
  }
  if (ingest_started_.load(std::memory_order_acquire)) {
    throw std::logic_error(
        "StreamingEngine: open_producer() after ingest started (every "
        "session must be opened before the first submit)");
  }
  auto owned = std::make_unique<ProducerState>();
  ProducerState* p = owned.get();
  p->id = static_cast<std::uint32_t>(producers_.size());
  obs::MetricsRegistry* reg = telemetry_registry_;
  if (reg == nullptr && observer_ != nullptr) reg = observer_->metrics();
  if (reg != nullptr) {
    const obs::LabeledMetricFamily fam(*reg, "engine_producer", p->id);
    p->m_submitted = &fam.counter("submitted");
    p->m_max_in_flight = &fam.gauge("max_in_flight");
  }
  producers_.push_back(std::move(owned));
  // Per-shard routing buckets for submit_span (capacity grows to the
  // largest span ever routed).
  p->scratch.resize(shards_.size());
  // Register this producer's ring lane on every shard. The lane set is
  // sealed at the first submit (freeze_once_) and a closed lane is
  // state->closed + empty ring.
  p->lanes.reserve(shards_.size());
  for (auto& s : shards_) p->lanes.push_back(s->add_lane(p));
  return IngressSession(this, p);
}

std::size_t StreamingEngine::submit_span_from(
    ProducerState& p, std::span<const MultiItemRequest> batch) {
  if (p.closed.load(std::memory_order_acquire)) {
    throw std::logic_error("IngressSession: session is closed");
  }
  if (batch.empty()) return 0;  // no-op: no side effects, ingest not started
  // Atomic validation: the WHOLE span is checked before anything is
  // enqueued, so a bad span throws with no partial submission (the
  // session's last_time, seq, and watermark are untouched too).
  Time prev = p.last_time;
  for (const MultiItemRequest& r : batch) {
    if (r.server < 0 || r.server >= num_servers_) {
      throw std::invalid_argument("StreamingEngine: server out of range");
    }
    if (!(r.time > prev)) {
      throw std::invalid_argument(
          "IngressSession: times must strictly increase per producer");
    }
    prev = r.time;
  }
  ingest_started_.store(true, std::memory_order_release);
  // First submit anywhere seals the lane sets: workers scan the lane
  // vectors lock-free from here on.
  std::call_once(freeze_once_, [this] {
    for (auto& s : shards_) s->freeze_lanes();
  });
  const bool tele = telemetry_registry_ != nullptr;
  if (tele && sample_ms_ > 0) {
    // Every producer is open by now (open_producer throws after the first
    // submit), so the sampler's probe set is final. Exactly one submit
    // launches it.
    std::call_once(sampler_once_, [this] { start_sampler(); });
  }
  // Wall-clock stamp feeding the queue-wait/e2e histograms — one read per
  // span; the merge NEVER consults it (bit-identity is stamp-blind).
  const std::uint64_t submit_ns = tele ? obs::telemetry_now_ns() : 0;
  const int nsh = num_shards();
  // Stamp and bucket per shard in producer-owned scratch (amortized
  // growth to the largest span; zero steady-state allocation).
  for (std::vector<IngressRecord>& b : p.scratch) b.clear();
  for (const MultiItemRequest& r : batch) {
    IngressRecord rec;
    rec.item = r.item;
    rec.server = r.server;
    rec.time = r.time;
    rec.producer = p.id;
    rec.seq = ++p.seq;
    rec.submit_ns = submit_ns;
    const std::size_t s = nsh == 1 ? 0 : shard_of(r.item, nsh);
    p.scratch[s].push_back(rec);
  }
  p.last_time = batch.back().time;
  // submitted is incremented before the enqueue so retired (worker-side)
  // can never be observed above it.
  const std::uint64_t submitted =
      p.submitted.fetch_add(batch.size(), std::memory_order_relaxed) +
      batch.size();
  std::size_t accepted = 0;
  for (int s = 0; s < nsh; ++s) {
    const std::vector<IngressRecord>& bucket = p.scratch[static_cast<std::size_t>(s)];
    if (bucket.empty()) continue;
    accepted += shards_[static_cast<std::size_t>(s)]->lane_push_span(
        *p.lanes[static_cast<std::size_t>(s)], bucket.data(), bucket.size());
  }
  const std::uint64_t lost = batch.size() - accepted;
  if (lost > 0) p.dropped.fetch_add(lost, std::memory_order_relaxed);
  // Watermark advances AFTER every bucket is enqueued (release order): a
  // worker that acquire-loads it and then fully drains its lane has
  // provably seen every record from this producer with time <= the loaded
  // value — the merge-safety protocol (docs/ENGINE.md, "Ingestion
  // sessions"). One store covers the whole span (a dropped record never
  // arrives, so the span's last time is safe even under kDrop).
  p.watermark.store(batch.back().time, std::memory_order_release);
  const std::uint64_t in_flight = submitted -
                                  p.dropped.load(std::memory_order_relaxed) -
                                  p.retired.load(std::memory_order_relaxed);
  if (in_flight > p.max_in_flight) {
    p.max_in_flight = in_flight;
    if (p.m_max_in_flight != nullptr) {
      p.m_max_in_flight->set(static_cast<double>(in_flight));
    }
  }
  return accepted;
}

void StreamingEngine::close_producer(ProducerState* p) {
  if (p->closed.exchange(true, std::memory_order_acq_rel)) return;
  // Exactly one closer (the session's thread, or finish() after the
  // quiesce) announces end-of-stream and publishes the session's metrics.
  // The exchange above is a release store that follows every push, so a
  // worker that acquire-observes closed and then drains the lane provably
  // consumes the final records.
  if (p->m_submitted != nullptr) {
    p->m_submitted->inc(p->submitted.load(std::memory_order_relaxed));
  }
  if (p->m_max_in_flight != nullptr) {
    p->m_max_in_flight->set(static_cast<double>(p->max_in_flight));
  }
}

ServiceReport StreamingEngine::finish() {
  {
    const std::lock_guard<std::mutex> lock(producers_mu_);
    if (finished_) throw std::logic_error("StreamingEngine: already finished");
    finished_ = true;
  }
  // The sampler reads live shard/producer state; stop it before teardown.
  // The empty call_once synchronizes with whichever producer thread
  // started it (start is itself a call_once, so this is a no-op then).
  std::call_once(sampler_once_, [] {});
  if (sampler_ != nullptr) sampler_->stop();
  // Force-close stragglers so no shard merge is left waiting on an open
  // lane's watermark; then stop and join the workers.
  for (auto& p : producers_) close_producer(p.get());

  ServiceReport rep;
  for (auto& s : shards_) {
    ServiceReport shard_rep = s->drain_and_finish();
    rep.per_item.insert(rep.per_item.end(),
                        std::make_move_iterator(shard_rep.per_item.begin()),
                        std::make_move_iterator(shard_rep.per_item.end()));
  }
  // Restore the serial service's summation order (ascending item id — what
  // OnlineDataService's ordered map produces) so aggregate totals are
  // bit-identical, then recompute them through the shared reconciliation
  // helper. Item ids are unique across shards, so the order is total.
  std::sort(rep.per_item.begin(), rep.per_item.end(),
            [](const ItemOutcome& a, const ItemOutcome& b) {
              return a.item < b.item;
            });
  finalize_report(rep);

  stats_.shards.clear();
  stats_.producers.clear();
  stats_.submitted = 0;
  stats_.dropped = 0;
  stats_.stalls = 0;
  // Workers are joined: every producer's retired count is final.
  for (const auto& p : producers_) {
    ProducerStats ps;
    ps.producer = p->id;
    ps.submitted = p->submitted.load(std::memory_order_acquire);
    ps.dropped = p->dropped.load(std::memory_order_acquire);
    ps.retired = p->retired.load(std::memory_order_acquire);
    ps.max_in_flight = p->max_in_flight;
    stats_.producers.push_back(ps);
    stats_.submitted += ps.submitted;
    stats_.dropped += ps.dropped;
  }
  std::size_t resident = 0;
  for (const auto& s : shards_) {
    stats_.shards.push_back(s->stats());
    stats_.stalls += stats_.shards.back().queue.stalls;
    resident += stats_.shards.back().resident_bytes;
  }
  // Fleet-wide arena footprint: each shard sampled its peak at drain time;
  // publish the sum once so the gauge covers the whole engine rather than
  // whichever shard drained last.
  if (observer_ != nullptr) observer_->set_service_resident_bytes(resident);
  MCDC_INVARIANT(stats_.submitted - stats_.dropped ==
                     rep.requests + static_cast<std::uint64_t>(rep.items),
                 "engine accounting: %llu accepted != %zu served + %zu births",
                 static_cast<unsigned long long>(stats_.submitted -
                                                 stats_.dropped),
                 rep.requests, rep.items);
  return rep;
}

const EngineStats& StreamingEngine::stats() const {
  MCDC_ASSERT(finished_, "engine stats read before finish()");
  return stats_;
}

std::size_t StreamingEngine::num_producers() const {
  const std::lock_guard<std::mutex> lock(producers_mu_);
  return producers_.size();
}

// ---- Pipeline telemetry --------------------------------------------------

void StreamingEngine::start_sampler() {
  // Probe closures capture raw pointers into shards_/producers_ — safe
  // because finish() and the destructor stop the sampler before either is
  // torn down. All allocation happens here, once; the tick loop only
  // reads atomics and takes the shards' lane-registry locks.
  std::vector<obs::TelemetrySampler::Source> sources;
  std::vector<obs::Gauge*> resident;
  resident.reserve(shards_.size());
  for (const auto& s : shards_) {
    EngineShard* sh = s.get();
    const obs::LabeledMetricFamily fam(
        *telemetry_registry_, "engine_shard",
        static_cast<std::size_t>(sh->index()));
    sources.push_back({fam.prefix() + "queue_depth", [sh] {
                         return static_cast<double>(sh->queue_depth());
                       }});
    // Merge depth and resident bytes are registry gauges the worker
    // refreshes; sampling those avoids touching worker-local state.
    sources.push_back({fam.prefix() + "merge_depth",
                       [g = &fam.gauge("merge_depth")] { return g->value(); }});
    resident.push_back(&fam.gauge("resident_bytes"));
  }
  sources.push_back(
      {"service_resident_bytes", [resident = std::move(resident)] {
         double total = 0.0;
         for (const obs::Gauge* g : resident) total += g->value();
         return total;
       }});
  {
    // A racing open_producer() may still be appending (it loses the
    // ingest_started_ check only after this submit's store lands).
    const std::lock_guard<std::mutex> lock(producers_mu_);
    for (const auto& p : producers_) {
      ProducerState* ps = p.get();
      sources.push_back(
          {"engine_producer" + std::to_string(ps->id) + "_in_flight", [ps] {
             const std::uint64_t in_flight =
                 ps->submitted.load(std::memory_order_relaxed) -
                 ps->dropped.load(std::memory_order_relaxed) -
                 ps->retired.load(std::memory_order_relaxed);
             return static_cast<double>(in_flight);
           }});
    }
  }
  sampler_ = std::make_unique<obs::TelemetrySampler>(
      std::move(sources),
      std::chrono::milliseconds(static_cast<long long>(sample_ms_)));
  sampler_->start();
}

obs::MetricsRegistry* StreamingEngine::telemetry_registry() const {
  if (telemetry_registry_ != nullptr) return telemetry_registry_;
  return observer_ != nullptr ? observer_->metrics() : nullptr;
}

namespace {
obs::LatencyHistogramSnapshot merge_shard_hists(
    const std::vector<std::unique_ptr<EngineShard>>& shards,
    const obs::LatencyHistogram* (EngineShard::*hist)() const) {
  obs::LatencyHistogramSnapshot out;
  for (const auto& s : shards) {
    if (const obs::LatencyHistogram* h = (s.get()->*hist)()) {
      out.merge(h->snapshot());
    }
  }
  return out;
}
}  // namespace

obs::LatencyHistogramSnapshot StreamingEngine::queue_wait_snapshot() const {
  return merge_shard_hists(shards_, &EngineShard::queue_wait_hist);
}

obs::LatencyHistogramSnapshot StreamingEngine::merge_stall_snapshot() const {
  return merge_shard_hists(shards_, &EngineShard::merge_stall_hist);
}

obs::LatencyHistogramSnapshot StreamingEngine::apply_snapshot() const {
  return merge_shard_hists(shards_, &EngineShard::apply_hist);
}

obs::LatencyHistogramSnapshot StreamingEngine::e2e_snapshot() const {
  return merge_shard_hists(shards_, &EngineShard::e2e_hist);
}

std::vector<obs::TelemetrySampler::Series> StreamingEngine::telemetry_series()
    const {
  std::call_once(sampler_once_, [] {});
  if (sampler_ == nullptr) return {};
  return sampler_->series();
}

std::string StreamingEngine::chrome_trace_json(
    const std::vector<obs::Event>* service_events) const {
  obs::ChromeTraceBuilder b;
  b.add_process(1, "engine (wall clock)");
  for (const auto& s : shards_) {
    b.add_thread(1, s->index(), "shard" + std::to_string(s->index()));
    for (const auto& sp : s->telemetry_spans()) {
      b.add_span(1, s->index(), sp);
    }
  }
  std::call_once(sampler_once_, [] {});
  if (sampler_ != nullptr) {
    for (const auto& series : sampler_->series()) {
      for (const auto& smp : series.samples) {
        b.add_counter(1, series.name, smp.t_ns, smp.value);
      }
    }
  }
  if (service_events != nullptr && !service_events->empty()) {
    b.add_process(2, "service (model time)");
    b.add_thread(2, 0, "events");
    for (const auto& e : *service_events) b.add_event(2, 0, e);
  }
  return b.json();
}

// ---- IngressSession ------------------------------------------------------

IngressSession::IngressSession(IngressSession&& other) noexcept
    : engine_(other.engine_), state_(other.state_) {
  other.engine_ = nullptr;
  other.state_ = nullptr;
}

IngressSession& IngressSession::operator=(IngressSession&& other) noexcept {
  if (this != &other) {
    if (engine_ != nullptr && state_ != nullptr) engine_->close_producer(state_);
    engine_ = other.engine_;
    state_ = other.state_;
    other.engine_ = nullptr;
    other.state_ = nullptr;
  }
  return *this;
}

IngressSession::~IngressSession() {
  if (engine_ != nullptr && state_ != nullptr) engine_->close_producer(state_);
}

std::uint32_t IngressSession::id() const {
  MCDC_ASSERT(state_ != nullptr, "id() on an invalid session");
  return state_->id;
}

std::size_t IngressSession::submit_span(
    std::span<const MultiItemRequest> batch) {
  if (state_ == nullptr) {
    throw std::logic_error("IngressSession: invalid (moved-from) session");
  }
  return engine_->submit_span_from(*state_, batch);
}

void IngressSession::close() {
  if (engine_ != nullptr && state_ != nullptr) engine_->close_producer(state_);
}

bool IngressSession::closed() const {
  return state_ == nullptr || state_->closed.load(std::memory_order_acquire);
}

std::uint64_t IngressSession::in_flight() const {
  if (state_ == nullptr) return 0;
  // All three counters only grow; submitted is incremented before the
  // enqueue, so the difference cannot underflow.
  return state_->submitted.load(std::memory_order_relaxed) -
         state_->dropped.load(std::memory_order_relaxed) -
         state_->retired.load(std::memory_order_relaxed);
}

}  // namespace mcdc
