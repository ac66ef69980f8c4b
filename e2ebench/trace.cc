#include "trace.h"

namespace e2e {

double Tracer::NowUs() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
      .count();
}

int Tracer::Begin(const std::string& name, uint64_t request) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.start_us = NowUs();
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request;
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int id) {
  if (!enabled_ || id < 0) return;
  Span& span = spans_[static_cast<size_t>(id)];
  span.end_us = NowUs();
  // Spans nest strictly (RAII on one thread); pop through `id`.
  while (!open_.empty()) {
    int top = open_.back();
    open_.pop_back();
    if (top == id) break;
  }
}

std::string Tracer::ChromeJson() const {
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    JsonObject args;
    args.Int("id", i);
    args.Raw("parent", std::to_string(s.parent));
    args.Int("request", s.request);
    JsonObject event;
    event.Str("name", s.name)
        .Str("cat", s.name.substr(0, s.name.find('.')))
        .Str("ph", "X")
        .Num("ts", s.start_us)
        .Num("dur", s.end_us - s.start_us)
        .Int("pid", 1)
        .Int("tid", 1)
        .Raw("args", args.Render());
    out += event.Render();
    out += i + 1 < spans_.size() ? ",\n" : "\n";
  }
  return out + "]}\n";
}

std::map<std::string, double> Tracer::LayerSelfMs() const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_us[s.parent] += s.end_us - s.start_us;
  }
  std::map<std::string, double> self_ms;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self_ms[s.name.substr(0, s.name.find('.'))] +=
        (s.end_us - s.start_us - child_us[i]) / 1000.0;
  }
  return self_ms;
}

}  // namespace e2e
