#include "obs/sinks.h"

#include <fstream>
#include <stdexcept>

#include "obs/format.h"

namespace mcdc::obs {

JsonlSink::JsonlSink(std::ostream& out) : out_(&out) {}

JsonlSink::JsonlSink(const std::string& path)
    : owned_(std::make_unique<std::ofstream>(path)), out_(owned_.get()) {}

JsonlSink::~JsonlSink() = default;

bool JsonlSink::ok() const { return out_ != nullptr && out_->good(); }

void JsonlSink::on_event(const Event& e) {
  *out_ << to_json(e) << '\n';
  ++written_;
}

std::string JsonlSink::to_json(const Event& e) {
  std::string out = "{\"ev\":\"";
  out += event_kind_name(e.kind);
  out += '"';
  auto field_int = [&out](const char* name, long long v) {
    out += ",\"";
    out += name;
    out += "\":";
    out += std::to_string(v);
  };
  auto field_num = [&out](const char* name, double v) {
    out += ",\"";
    out += name;
    out += "\":";
    out += detail::num(v);
  };
  auto field_bool = [&out](const char* name, bool v) {
    out += ",\"";
    out += name;
    out += "\":";
    out += v ? "true" : "false";
  };
  if (e.item >= 0) field_int("item", e.item);
  switch (e.kind) {
    case EventKind::kRequestServed:
      field_int("req", e.request);
      field_int("server", e.server);
      field_num("t", e.at);
      field_bool("hit", e.hit);
      field_num("cost_delta", e.cost_delta);
      break;
    case EventKind::kTransferIssued:
      field_int("req", e.request);
      field_int("from", e.from);
      field_int("to", e.server);
      field_num("t", e.at);
      field_num("cost_delta", e.cost_delta);
      break;
    case EventKind::kCopyBorn:
      field_int("server", e.server);
      field_num("t", e.at);
      break;
    case EventKind::kCopyExpired:
      field_int("server", e.server);
      field_num("t", e.at);
      field_bool("expired", e.expired);
      field_num("cost_delta", e.cost_delta);
      break;
    case EventKind::kEpochReset:
      field_num("t", e.at);
      break;
    case EventKind::kDpStageDone:
      out += ",\"stage\":\"";
      out += e.stage ? e.stage : "";
      out += '"';
      field_num("micros", e.micros);
      break;
  }
  out += '}';
  return out;
}

RingBufferSink::RingBufferSink(std::size_t capacity) : capacity_(capacity) {
  if (capacity_ == 0) {
    throw std::invalid_argument("RingBufferSink: capacity must be >= 1");
  }
  buf_.reserve(capacity_);
}

void RingBufferSink::on_event(const Event& e) {
  ++seen_;
  ++kind_counts_[static_cast<std::size_t>(e.kind)];
  if (buf_.size() < capacity_) {
    buf_.push_back(e);
  } else {
    buf_[next_] = e;
    next_ = (next_ + 1) % capacity_;
  }
}

std::vector<Event> RingBufferSink::events() const {
  std::vector<Event> out;
  out.reserve(buf_.size());
  for (std::size_t i = 0; i < buf_.size(); ++i) {
    out.push_back(buf_[(next_ + i) % buf_.size()]);
  }
  return out;
}

void RingBufferSink::clear() {
  buf_.clear();
  next_ = 0;
  seen_ = 0;
  kind_counts_.fill(0);
}

}  // namespace mcdc::obs
