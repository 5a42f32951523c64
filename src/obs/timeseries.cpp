#include "obs/timeseries.h"

#include <stdexcept>
#include <utility>

namespace mcdc::obs {

std::uint64_t telemetry_now_ns() noexcept {
  using Clock = std::chrono::steady_clock;
  // Magic static: the first caller fixes the process-wide epoch.
  static const Clock::time_point epoch = Clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch)
          .count());
}

TelemetrySampler::TelemetrySampler(std::vector<Source> sources,
                                   std::chrono::milliseconds period,
                                   std::size_t capacity)
    : sources_(std::move(sources)), period_(period) {
  if (period_.count() <= 0) {
    throw std::invalid_argument("TelemetrySampler: period must be positive");
  }
  rings_.reserve(sources_.size());
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    rings_.emplace_back(capacity);
  }
}

TelemetrySampler::~TelemetrySampler() { stop(); }

void TelemetrySampler::start() {
  if (thread_.joinable()) return;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stopping_ = false;
  }
  thread_ = std::thread([this] { run(); });
}

void TelemetrySampler::stop() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void TelemetrySampler::run() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    // Tick first so even a short-lived run records one sample per source.
    lock.unlock();
    const std::uint64_t now = telemetry_now_ns();
    for (std::size_t i = 0; i < sources_.size(); ++i) {
      rings_[i].push({now, sources_[i].probe()});
    }
    ticks_.fetch_add(1, std::memory_order_release);
    lock.lock();
    if (cv_.wait_for(lock, period_, [this] { return stopping_; })) return;
  }
}

std::vector<TelemetrySampler::Series> TelemetrySampler::series() const {
  std::vector<Series> out;
  out.reserve(sources_.size());
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    Series s;
    s.name = sources_[i].name;
    s.seen = rings_[i].seen();
    s.samples = rings_[i].items();
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace mcdc::obs
