#include "trace.h"

#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "bench.h"

namespace perfbench {

Tracer::Scope::Scope(Tracer* tracer, std::string_view name, uint64_t request)
    : tracer_(tracer) {
  if (tracer_ != nullptr) id_ = tracer_->Begin(name, request);
}

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) tracer_->End(id_);
}

int Tracer::Begin(std::string_view name, uint64_t request) {
  Span span;
  span.name = std::string(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request;
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  spans_.back().start = NowSeconds();
  return id;
}

void Tracer::End(int id) {
  const double now = NowSeconds();
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("trace: spans must close in LIFO order");
  }
  open_.pop_back();
  spans_[static_cast<size_t>(id)].end = now;
}

std::vector<double> Tracer::ChildSeconds() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) child[static_cast<size_t>(span.parent)] += span.duration();
  }
  return child;
}

double Tracer::SelfSeconds(std::string_view name, size_t from) const {
  const std::vector<double> child = ChildSeconds();
  double total = 0;
  for (size_t i = from; i < spans_.size(); ++i) {
    if (spans_[i].name == name) total += spans_[i].duration() - child[i];
  }
  return total;
}

double Tracer::TotalSeconds(std::string_view name, size_t from) const {
  double total = 0;
  for (size_t i = from; i < spans_.size(); ++i) {
    if (spans_[i].name == name) total += spans_[i].duration();
  }
  return total;
}

size_t Tracer::Count(std::string_view name, size_t from) const {
  size_t count = 0;
  for (size_t i = from; i < spans_.size(); ++i) {
    count += spans_[i].name == name ? 1 : 0;
  }
  return count;
}

double Tracer::UnattributedPct(std::string_view root, size_t from) const {
  const double total = TotalSeconds(root, from);
  return total > 0 ? 100.0 * SelfSeconds(root, from) / total : 0.0;
}

void Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("trace: cannot write " + path);
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  out << "{\"spans\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"id\": %zu, \"name\": \"%s\", \"start_us\": %.3f, "
                  "\"end_us\": %.3f, \"parent\": %d, \"request\": %llu}",
                  i, s.name.c_str(), (s.start - origin) * 1e6,
                  (s.end - origin) * 1e6, s.parent,
                  static_cast<unsigned long long>(s.request));
    out << buf << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

}  // namespace perfbench
