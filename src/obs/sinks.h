// Concrete TraceSink implementations.
//
//  * JsonlSink      — one JSON object per line, to a borrowed std::ostream
//                     or an owned file. The schema is documented in
//                     docs/OBSERVABILITY.md and round-trips through any
//                     JSON parser (tests parse it back line by line).
//  * RingBufferSink — fixed-capacity in-memory buffer keeping the newest
//                     events; per-kind totals cover *all* events seen, so
//                     reconciliation checks survive overflow. The sink of
//                     choice for tests and the overhead bench.
//  * LockedSink     — mutex decorator making any sink safe to share across
//                     threads. Single-threaded emitters (every solver, the
//                     serial service) stay lock-free by not using it; the
//                     sharded streaming engine wraps the user's sink in one
//                     so per-shard event streams interleave without racing.
//
// The zero-overhead "tracing off" path is a null sink *pointer* (see
// obs::Observer), not a do-nothing sink: with no observer attached the
// instrumented code does one pointer test and nothing else.
#pragma once

#include <array>
#include <cstddef>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/events.h"

namespace mcdc::obs {

/// Streams events as JSON Lines.
class JsonlSink final : public TraceSink {
 public:
  /// Write to a stream owned by the caller (kept alive past the sink).
  explicit JsonlSink(std::ostream& out);
  /// Open `path` for writing; ok() reports whether the open succeeded.
  explicit JsonlSink(const std::string& path);
  ~JsonlSink() override;

  bool ok() const;
  std::size_t written() const { return written_; }

  void on_event(const Event& e) override;

  /// One event as a single-line JSON object (no trailing newline).
  static std::string to_json(const Event& e);

 private:
  std::unique_ptr<std::ofstream> owned_;
  std::ostream* out_ = nullptr;
  std::size_t written_ = 0;
};

/// Keeps the newest `capacity` events in memory.
class RingBufferSink final : public TraceSink {
 public:
  explicit RingBufferSink(std::size_t capacity = 4096);

  void on_event(const Event& e) override;

  /// Retained events, oldest first.
  std::vector<Event> events() const;

  std::size_t seen() const { return seen_; }
  std::size_t dropped() const {
    return seen_ > buf_.size() ? seen_ - buf_.size() : 0;
  }
  /// Total events of `k` seen (not just retained).
  std::uint64_t count(EventKind k) const {
    return kind_counts_[static_cast<std::size_t>(k)];
  }

  void clear();

 private:
  std::size_t capacity_;
  std::vector<Event> buf_;   // grows to capacity_, then wraps via next_
  std::size_t next_ = 0;     // insertion cursor once full
  std::size_t seen_ = 0;
  std::array<std::uint64_t, kNumEventKinds> kind_counts_{};
};

/// Serializes on_event() calls onto a wrapped sink. The inner sink is
/// borrowed and must outlive the decorator.
class LockedSink final : public TraceSink {
 public:
  explicit LockedSink(TraceSink* inner) : inner_(inner) {}

  void on_event(const Event& e) override {
    if (inner_ == nullptr) return;
    const std::lock_guard<std::mutex> lock(mu_);
    inner_->on_event(e);
  }

 private:
  std::mutex mu_;
  TraceSink* inner_ = nullptr;
};

}  // namespace mcdc::obs
