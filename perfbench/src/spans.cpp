#include <fstream>
#include <utility>

#include "bench.h"

namespace perfbench {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Stopwatch::lap() {
  const auto now = Clock::now();
  const double seconds = std::chrono::duration<double>(now - mark_).count();
  mark_ = now;
  return seconds;
}

SpanLog::Scope::Scope(SpanLog& log, std::string name)
    : log_(log), name_(std::move(name)), start_(Clock::now()) {
  if (!log_.enabled_) return;
  index_ = static_cast<int>(log_.spans_.size());
  saved_parent_ = log_.open_;
  Span span;
  span.name = name_;
  span.start_s =
      std::chrono::duration<double>(start_ - log_.origin_).count();
  span.parent = log_.open_;
  span.rep = log_.rep_;
  log_.spans_.push_back(std::move(span));
  log_.open_ = index_;
}

double SpanLog::Scope::close() {
  if (duration_ >= 0) return duration_;
  const auto end = Clock::now();
  duration_ = std::chrono::duration<double>(end - start_).count();
  if (index_ >= 0) {
    Span& span = log_.spans_[static_cast<std::size_t>(index_)];
    span.end_s = std::chrono::duration<double>(end - log_.origin_).count();
    span.events = events_;
    log_.open_ = saved_parent_;
  }
  return duration_;
}

SpanLog::Scope::~Scope() { close(); }

std::map<std::string, double> SpanLog::self_seconds_by_layer(int reps) const {
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0)
      child_time[static_cast<std::size_t>(span.parent)] +=
          span.end_s - span.start_s;
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const std::string layer = span.name.substr(0, span.name.find('.'));
    out[layer] += (span.end_s - span.start_s - child_time[i]) /
                  static_cast<double>(reps > 0 ? reps : 1);
  }
  return out;
}

void SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << "{\"id\":" << i << ",\"parent\":" << span.parent
        << ",\"rep\":" << span.rep << ",\"name\":\"" << span.name
        << "\",\"start_s\":" << span.start_s << ",\"end_s\":" << span.end_s
        << ",\"events\":" << span.events << "}\n";
  }
}

}  // namespace perfbench
