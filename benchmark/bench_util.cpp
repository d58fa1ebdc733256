#include "bench_util.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace egoist::bench {

std::uint64_t Tracer::add(const char* name, std::uint64_t start_ns,
                          std::uint64_t end_ns, std::uint64_t parent,
                          std::uint64_t request) {
  if (!enabled_) return 0;
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t id = next_id_++;
  spans_.push_back({id, name, start_ns, end_ns, parent, request});
  return id;
}

std::uint64_t Tracer::reserve() {
  if (!enabled_) return 0;
  const std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void Tracer::add_reserved(std::uint64_t id, const char* name,
                          std::uint64_t start_ns, std::uint64_t end_ns,
                          std::uint64_t parent, std::uint64_t request) {
  if (!enabled_ || id == 0) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({id, name, start_ns, end_ns, parent, request});
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& span : spans_) {
    out << "{\"id\":" << span.id << ",\"name\":\"" << span.name
        << "\",\"start_ns\":" << span.start_ns << ",\"end_ns\":" << span.end_ns
        << ",\"parent\":" << span.parent << ",\"request\":" << span.request
        << "}\n";
  }
  if (!out) throw std::runtime_error("failed writing spans to " + path);
}

void MetricTable::set(const std::string& name, double value,
                      const std::string& unit) {
  for (auto& metric : metrics_) {
    if (metric.name == name) {
      metric.value = value;
      metric.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

std::vector<Metric> MetricTable::select(
    const std::vector<std::string>& names) const {
  std::vector<Metric> out;
  for (const auto& name : names) {
    const auto it = std::find_if(metrics_.begin(), metrics_.end(),
                                 [&](const Metric& m) { return m.name == name; });
    if (it == metrics_.end()) {
      throw std::logic_error("declared metric '" + name + "' was never measured");
    }
    out.push_back(*it);
  }
  return out;
}

std::string full_digits(double value) {
  if (!std::isfinite(value)) {
    throw std::logic_error("metric value is not finite");
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace egoist::bench
