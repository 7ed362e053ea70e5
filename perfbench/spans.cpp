#include "spans.h"

#include <fstream>
#include <functional>
#include <stdexcept>
#include <thread>

namespace perfbench {

SpanRecorder::Scope::Scope(SpanRecorder& recorder, std::string_view name,
                           int day)
    : recorder_(&recorder),
      index_(static_cast<int>(recorder.spans_.size())),
      saved_open_(recorder.open_) {
  Span span;
  span.name = std::string(name);
  span.parent = recorder.open_;
  span.day = day;
  span.thread = std::hash<std::thread::id>{}(std::this_thread::get_id());
  recorder.spans_.push_back(std::move(span));
  recorder.open_ = index_;
  recorder.spans_[static_cast<std::size_t>(index_)].start_ns = now_ns();
}

SpanRecorder::Scope::~Scope() {
  recorder_->spans_[static_cast<std::size_t>(index_)].end_ns = now_ns();
  recorder_->open_ = saved_open_;
}

void SpanRecorder::clear() {
  spans_.clear();
  open_ = -1;
}

double SpanRecorder::total_ms(std::string_view name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) total += s.ms();
  }
  return total;
}

std::map<std::string, double> SpanRecorder::self_ms_by_name() const {
  // Children of one span never overlap (one recording thread, strictly
  // nested scopes), so the covered part is the sum of their durations.
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ms[static_cast<std::size_t>(s.parent)] += s.ms();
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[spans_[i].name] += spans_[i].ms() - child_ms[i];
  }
  return self;
}

void SpanRecorder::write_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open span file " + path);
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "index,name,start_ns,end_ns,parent,day,thread\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << ',' << s.name << ',' << (s.start_ns - origin) << ','
        << (s.end_ns - origin) << ',' << s.parent << ',' << s.day << ','
        << s.thread << '\n';
  }
  out.flush();
  if (!out) throw std::runtime_error("cannot write span file " + path);
}

}  // namespace perfbench
