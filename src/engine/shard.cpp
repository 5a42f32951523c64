#include "engine/shard.h"

#include <chrono>
#include <string>
#include <vector>

#include "util/annotate.h"

namespace mcdc {

namespace {

// How long a merge-stalled (or idle ring-polling) worker sleeps between
// re-checks. Watermarks and ring tails advance without signalling this
// shard (a ring push is just a store), so the waiting states poll.
constexpr std::chrono::microseconds kStallRecheck{200};

// A blocked/idle spinner yields this many times before conceding the
// timeslice with a sleep — cheap reactivity when the other side is
// running, bounded burn when it is not (matters on few-core hosts where
// producer and worker share a core).
constexpr std::size_t kSpinYields = 64;

// Stage spans retained per shard for the Chrome-trace export (newest
// win; the ring counts what overflow displaced).
constexpr std::size_t kSpanRingCapacity = 8192;

// resident_bytes() walks the item population (O(items)), so the
// telemetry-on worker refreshes its resident gauge only every this many
// batches — the sampler sees a live-ish value at amortized ~zero cost.
constexpr std::uint64_t kResidentRefreshBatches = 256;

}  // namespace

EngineShard::EngineShard(int index, int num_servers, const ServingCostModel& cm,
                         const EngineConfig& cfg,
                         const SpeculativeCachingOptions& options,
                         obs::MetricsRegistry* telemetry_registry)
    : index_(index),
      policy_(cfg.policy),
      lane_capacity_(cfg.queue_capacity),
      service_(num_servers, cm, options) {
  obs::Observer* ob = options.observer;
  // With telemetry on the engine always supplies a registry (the
  // observer's, or an engine-owned fallback); otherwise per-shard metrics
  // exist only when an observer registry is attached.
  obs::MetricsRegistry* reg = telemetry_registry;
  if (reg == nullptr && ob != nullptr) reg = ob->metrics();
  if (reg != nullptr) {
    const obs::LabeledMetricFamily fam(*reg, "engine_shard",
                                       static_cast<std::size_t>(index));
    enqueue_stalls_ = &fam.counter("enqueue_stalls");
    requests_ = &fam.counter("requests");
    cost_total_ = &fam.gauge("cost_total");
    shard_resident_bytes_ = &fam.gauge("resident_bytes");
    merge_depth_ = &fam.gauge("merge_depth");
    merge_stall_counter_ = &fam.counter("merge_stalls");
    if (telemetry_registry != nullptr) {
      queue_wait_ns_ = &fam.latency("queue_wait_ns");
      merge_stall_ns_ = &fam.latency("merge_stall_ns");
      apply_ns_ = &fam.latency("apply_ns");
      e2e_ns_ = &fam.latency("e2e_ns");
      spans_ = std::make_unique<obs::Ring<obs::TelemetrySpan>>(
          kSpanRingCapacity);
    }
  }
}

EngineShard::~EngineShard() {
  // Abandoned (engine destroyed before finish()): unblock and join the
  // worker; any failure it recorded dies with us. The engine has already
  // marked every producer closed, so the worker's drain terminates.
  if (!joined_) {
    {
      const std::lock_guard<std::mutex> lk(lanes_mu_);
      stop_.store(true, std::memory_order_release);
    }
    lanes_cv_.notify_all();
    if (worker_.joinable()) worker_.join();
  }
}

void EngineShard::start() {
  MCDC_ASSERT(!worker_.joinable(), "shard started twice");
  worker_ = std::thread([this] { run(); });
}

SpscLane* EngineShard::add_lane(ProducerState* p) {
  const std::lock_guard<std::mutex> lk(lanes_mu_);
  MCDC_ASSERT(!lanes_frozen_.load(std::memory_order_relaxed),
              "shard %d: lane added after ingest started", index_);
  spsc_lanes_.push_back(std::make_unique<SpscLane>(lane_capacity_));
  spsc_lanes_.back()->state = p;
  return spsc_lanes_.back().get();
}

void EngineShard::freeze_lanes() {
  {
    const std::lock_guard<std::mutex> lk(lanes_mu_);
    lanes_frozen_.store(true, std::memory_order_release);
  }
  lanes_cv_.notify_all();
}

std::size_t EngineShard::lane_push_span(SpscLane& lane,
                                        const IngressRecord* data,
                                        std::size_t n) {
  std::size_t done = lane.ring.try_push_span(data, n);
  if (policy_ == BackpressurePolicy::kDrop) {
    lane.dropped += n - done;
    lane.enqueued += done;
    return done;
  }
  if (done < n) {
    // One stall episode per span. The worker always drains rings (even
    // merge-stalled or after a failure), so this loop terminates.
    ++lane.stalls;
    std::size_t spins = 0;
    while (done < n) {
      if (++spins <= kSpinYields) {
        std::this_thread::yield();
      } else {
        std::this_thread::sleep_for(kStallRecheck);
      }
      done += lane.ring.try_push_span(data + done, n - done);
    }
  }
  lane.enqueued += n;
  return n;
}

void EngineShard::run() {
  // Lanes are registered (open_producer) strictly before the first
  // submit; the freeze at that first submit seals the vector, so the loop
  // below reads it without locks.
  {
    std::unique_lock<std::mutex> lk(lanes_mu_);
    lanes_cv_.wait(lk, [this] {
      return lanes_frozen_.load(std::memory_order_relaxed) ||
             stop_.load(std::memory_order_relaxed);
    });
  }
  if (!lanes_frozen_.load(std::memory_order_acquire)) return;  // no ingest
  try {
    // Telemetry branches key off this one flag; with telemetry off the
    // loop takes no clock reads and touches none of the span rings.
    const bool tele = (spans_ != nullptr);
    // Merge lanes mirror the registered ring lanes (all known up front).
    producers_seen_ = spsc_lanes_.size();
    for (const std::unique_ptr<SpscLane>& l : spsc_lanes_) {
      const std::uint32_t id = l->state->id;
      if (id >= lanes_.size()) lanes_.resize(id + 1);
      lanes_[id].state = l->state;
    }
    const bool single = producers_seen_ <= 1;
    if (single) soa_.reserve(lane_capacity_ + 1);
    bool stalled = false;
    std::size_t idle = 0;
    for (;;) {
      // Closed-ness observed BEFORE the drain: a producer stores closed
      // with release after its last push, so once we see closed here,
      // this iteration's drain provably consumes its final records.
      bool all_closed = true;
      for (const std::unique_ptr<SpscLane>& l : spsc_lanes_) {
        if (l->state->closed.load(std::memory_order_acquire)) {
          if (!lanes_[l->state->id].closed) lanes_[l->state->id].closed = true;
        } else {
          all_closed = false;
        }
      }
      std::uint64_t t_deq = 0;
      if (tele) {
        t_deq = obs::telemetry_now_ns();
        last_deq_ns_ = t_deq;
        batch_min_submit_ns_ = ~std::uint64_t{0};
        batch_requests_ = 0;
      }
      if (!single) {
        // Merge-safety protocol, ring edition: snapshot every open lane's
        // watermark, THEN fully drain every ring.
        // The producer's watermark release-store follows its pushes, so a
        // snapshot >= t guarantees the drain below sees every record at
        // or before t — an empty lane with wm_snap >= t may be overtaken.
        for (Lane& lane : lanes_) {
          if (!lane.closed && lane.state != nullptr) {
            lane.wm_snap =
                lane.state->watermark.load(std::memory_order_acquire);
          }
        }
      }
      std::size_t total = 0;
      soa_.clear();
      for (const std::unique_ptr<SpscLane>& l : spsc_lanes_) {
        total += drain_lane(*l, lanes_[l->state->id], single, last_deq_ns_);
      }
      if (single && soa_.size() > 0) {
        // SoA apply: the ring slots were retired in one head store inside
        // drain_lane (producer regains capacity immediately); now walk
        // the dense columns. Per-record invariants already ran in the
        // drain sink.
        const std::size_t n = soa_.size();
        for (std::size_t i = 0; i < n; ++i) {
          service_.value.request(soa_.items[i], soa_.servers[i],
                                 soa_.times[i]);
        }
        saw_request_ = true;
        last_time_seen_ = soa_.times[n - 1];
        processed_ += n;
        batch_emitted_ += n;
        lanes_[spsc_lanes_.front()->state->id].retired_pending += n;
      }
      if (total > 0) {
        ++batch_stats_.batches;
        batch_stats_.requests += total;
        if (total > batch_stats_.max_batch) batch_stats_.max_batch = total;
      }
      if (!single || merge_buffered_ > 0) {
        stalled = process_eligible(all_closed);
        if (merge_depth_ != nullptr) {
          merge_depth_->set(static_cast<double>(merge_buffered_));
        }
      }
      if (tele) {
        const std::uint64_t t_end = obs::telemetry_now_ns();
        if (batch_requests_ > 0) {
          // One queue-wait span per batch: oldest submit stamp to
          // dequeue (per-record detail lives in the histogram).
          const std::uint64_t dur = last_deq_ns_ > batch_min_submit_ns_
                                        ? last_deq_ns_ - batch_min_submit_ns_
                                        : 0;
          spans_->push({"queue_wait", batch_min_submit_ns_, dur,
                        batch_requests_});
        }
        if (total > 0) {
          // Apply covers dequeue through merge + service updates for
          // everything this iteration emitted.
          const std::uint64_t dur = t_end - t_deq;
          apply_ns_->record(dur);
          spans_->push({"apply", t_deq, dur, total});
        }
        // Merge-stall episodes: opened when the merge first parks on a
        // lagging watermark, closed when it unstalls (or flushes).
        if (stalled && stall_started_ns_ == 0) {
          stall_started_ns_ = t_end;
        } else if (!stalled && stall_started_ns_ != 0) {
          const std::uint64_t dur = t_end - stall_started_ns_;
          merge_stall_ns_->record(dur);
          spans_->push({"merge_stall", stall_started_ns_, dur, 0});
          stall_started_ns_ = 0;
        }
        if (shard_resident_bytes_ != nullptr && total > 0 &&
            (++telemetry_batches_ % kResidentRefreshBatches) == 0) {
          shard_resident_bytes_->set(
              static_cast<double>(service_.value.resident_bytes()));
        }
      }
      if (batch_emitted_ > 0) {
        if (requests_ != nullptr) requests_->inc(batch_emitted_);
        batch_emitted_ = 0;
      }
      flush_retired();
      if (all_closed && total == 0 && merge_buffered_ == 0) break;
      // Rings have no condvar: poll. Yield while the other side looks
      // live, back off to a sleep when genuinely idle.
      if (total == 0) {
        if (++idle <= kSpinYields) {
          std::this_thread::yield();
        } else {
          std::this_thread::sleep_for(kStallRecheck);
        }
      } else {
        idle = 0;
      }
    }
  } catch (...) {
    failure_ = std::current_exception();
    // Keep consuming rings so a kBlock producer spinning on a full ring
    // cannot deadlock; the exception resurfaces from drain_and_finish().
    for (;;) {
      const bool stopping = stop_.load(std::memory_order_acquire);
      std::size_t got = 0;
      for (const std::unique_ptr<SpscLane>& l : spsc_lanes_) {
        got += l->ring.consume_all([](const IngressRecord&) {});
      }
      if (stopping) break;
      if (got == 0) std::this_thread::sleep_for(kStallRecheck);
    }
  }
}

std::size_t EngineShard::drain_lane(SpscLane& src, Lane& ml, bool single,
                                    std::uint64_t deq_ns) {
  // High-water sample (worker-only): lane depth just before the drain.
  const std::size_t depth = src.ring.size_approx();
  if (depth > src.max_depth_seen) src.max_depth_seen = depth;
  const bool tele = (queue_wait_ns_ != nullptr);
  auto sink = [&](const IngressRecord& r) {
    // Per-lane replay order: a session's stream reaches its shard as a
    // strictly-increasing (time, seq) FIFO.
    MCDC_INVARIANT(!ml.saw_any ||
                       (r.time > ml.last_time && r.seq > ml.last_seq),
                   "shard %d: lane %u order broken at t=%.12g seq=%llu",
                   index_, r.producer, r.time,
                   static_cast<unsigned long long>(r.seq));
    ml.saw_any = true;
    ml.last_time = r.time;
    ml.last_seq = r.seq;
    if (tele && r.submit_ns != 0) {
      queue_wait_ns_->record(deq_ns > r.submit_ns ? deq_ns - r.submit_ns : 0);
      if (r.submit_ns < batch_min_submit_ns_) {
        batch_min_submit_ns_ = r.submit_ns;
      }
      ++batch_requests_;
    }
    if (single) {
      if (tele) {
        // Telemetry wants a per-record e2e stamp: take the straight
        // process path (histograms need the record, not the columns).
        process_record(r);
        ++ml.retired_pending;
      } else {
        soa_.push(r.item, r.server, r.time);
      }
    } else {
      ml.buf.push_back(r);
      ++merge_buffered_;
      if (merge_buffered_ > merge_depth_max_) {
        merge_depth_max_ = merge_buffered_;
      }
    }
  };
  return src.ring.consume_all(sink);
}

MCDC_DETERMINISTIC
bool EngineShard::merge_precedes(const IngressRecord& a,
                                 const IngressRecord& b) {
  if (a.time != b.time) return a.time < b.time;
  return a.producer < b.producer;
}

MCDC_DETERMINISTIC
EngineShard::Lane* EngineShard::select_merge_head(bool& tie) {
  Lane* best = nullptr;
  tie = false;
  for (Lane& lane : lanes_) {
    if (lane.buf.empty()) continue;
    if (best == nullptr) {
      best = &lane;
      continue;
    }
    const IngressRecord& a = lane.buf.front();
    const IngressRecord& b = best->buf.front();
    if (a.time == b.time) {
      // A tie survives until a strictly earlier head displaces it.
      tie = true;
      if (merge_precedes(a, b)) best = &lane;
    } else if (merge_precedes(a, b)) {
      best = &lane;
      tie = false;
    }
  }
  return best;
}

bool EngineShard::process_eligible(bool flush_all) {
  for (;;) {
    // Minimal head across lanes by (time, producer id); seq never ties
    // across lanes because each lane is already FIFO by seq.
    bool tie = false;
    Lane* best = select_merge_head(tie);
    if (best == nullptr) return false;  // nothing parked
    const IngressRecord r = best->buf.front();
    if (!flush_all) {
      // r may only be emitted if no open lane could still produce a
      // record ordered before (or tied with) it: an empty lane passes
      // when its watermark snapshot has reached r.time — everything it
      // submitted up to that time is already drained (see run()).
      for (const Lane& lane : lanes_) {
        if (&lane == best || lane.closed || !lane.buf.empty()) {
          continue;
        }
        if (lane.wm_snap < r.time) {
          ++merge_stalls_;
          if (merge_stall_counter_ != nullptr) merge_stall_counter_->inc();
          return true;  // stalled on a lagging producer
        }
      }
    }
    if (tie) ++ties_broken_;
    best->buf.pop_front();
    --merge_buffered_;
    process_record(r);
    ++best->retired_pending;
  }
}

MCDC_NO_ALLOC MCDC_HOT_PATH
void EngineShard::process_record(const IngressRecord& r) {
  // Merge-order contract: emitted times are non-decreasing (equal times
  // only across distinct producers; the per-lane check in drain_lane
  // already guarantees strict increase within a producer). It holds under
  // kDrop too: a dropped record never reaches the merge, and the
  // watermark still advances to the span's last time.
  MCDC_INVARIANT(!saw_request_ || r.time >= last_time_seen_,
                 "shard %d merge order broken: t=%.12g after %.12g", index_,
                 r.time, last_time_seen_);
  saw_request_ = true;
  last_time_seen_ = r.time;
  service_.value.request(r.item, r.server, r.time);
  ++processed_;
  ++batch_emitted_;
  if (e2e_ns_ != nullptr && r.submit_ns != 0) {
    // Submit -> retire on the telemetry clock. One steady_clock read per
    // record — a telemetry-on cost only (the off path never gets here
    // with a non-null histogram).
    const std::uint64_t now = obs::telemetry_now_ns();
    e2e_ns_->record(now > r.submit_ns ? now - r.submit_ns : 0);
  }
}

void EngineShard::flush_retired() {
  for (Lane& lane : lanes_) {
    if (lane.retired_pending > 0 && lane.state != nullptr) {
      lane.state->retired.fetch_add(lane.retired_pending,
                                    std::memory_order_release);
      lane.retired_pending = 0;
    }
  }
}

ServiceReport EngineShard::drain_and_finish() {
  {
    const std::lock_guard<std::mutex> lk(lanes_mu_);
    stop_.store(true, std::memory_order_release);
  }
  lanes_cv_.notify_all();
  if (worker_.joinable()) worker_.join();
  joined_ = true;
  if (failure_ != nullptr) std::rethrow_exception(failure_);
  // One post-quiesce snapshot: producers and the worker are both done, so
  // the per-lane single-writer counters are plain reads here and the
  // assembled QueueStats is trivially torn-read-free (docs/ENGINE.md
  // "Queue statistics under ring lanes").
  queue_stats_ = QueueStats{};
  for (const std::unique_ptr<SpscLane>& l : spsc_lanes_) {
    queue_stats_.enqueued += l->enqueued;
    queue_stats_.dropped += l->dropped;
    queue_stats_.stalls += l->stalls;
    queue_stats_.max_depth += l->max_depth_seen;
    queue_stats_.depth += l->ring.size_approx();
  }
  // Arena footprint at its peak — finish() releases the recording vectors
  // into the report, so sample first.
  resident_bytes_ = service_.value.resident_bytes();
  ServiceReport rep = service_.value.finish();
  items_ = rep.items;
  cost_ = rep.total_cost;
  if (enqueue_stalls_ != nullptr) enqueue_stalls_->inc(queue_stats_.stalls);
  if (cost_total_ != nullptr) cost_total_->set(cost_);
  if (shard_resident_bytes_ != nullptr) {
    shard_resident_bytes_->set(static_cast<double>(resident_bytes_));
  }
  if (merge_depth_ != nullptr) merge_depth_->set(0.0);
  return rep;
}

std::size_t EngineShard::queue_depth() const {
  // Sampler gauge: racy by nature. The lock only guards the lane vector
  // against concurrent registration (pre-freeze); the per-lane reads are
  // atomic loads.
  const std::lock_guard<std::mutex> lk(lanes_mu_);
  std::size_t depth = 0;
  for (const std::unique_ptr<SpscLane>& l : spsc_lanes_) {
    depth += l->ring.size_approx();
  }
  return depth;
}

std::vector<obs::TelemetrySpan> EngineShard::telemetry_spans() const {
  MCDC_ASSERT(joined_, "shard spans read before drain_and_finish");
  if (spans_ == nullptr) return {};
  return spans_->items();
}

ShardStats EngineShard::stats() const {
  MCDC_ASSERT(joined_, "shard stats read before drain_and_finish");
  ShardStats s;
  s.shard = index_;
  s.items = items_;
  s.requests = processed_;
  s.queue = queue_stats_;
  s.batches = batch_stats_;
  s.cost = cost_;
  s.resident_bytes = resident_bytes_;
  s.producers = producers_seen_;
  s.merge_depth_max = merge_depth_max_;
  s.merge_stalls = merge_stalls_;
  s.ties_broken = ties_broken_;
  return s;
}

}  // namespace mcdc
