#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <stdexcept>

namespace perfbench {

double seconds_since(clock::time_point t0) {
  return std::chrono::duration<double>(clock::now() - t0).count();
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

void metric_set::set(std::string_view name, double value, std::string_view unit) {
  for (entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({std::string(name), value, std::string(unit)});
}

tracer::tracer() : epoch_(clock::now()) {}

int tracer::begin(std::string name) {
  const int id = static_cast<int>(spans_.size());
  const double now = seconds_since(epoch_) * 1e6;
  spans_.push_back({std::move(name), now, now, id, open_.empty() ? -1 : open_.back(), iteration_});
  open_.push_back(id);
  return id;
}

double tracer::end(int id) {
  if (open_.empty() || open_.back() != id) throw std::logic_error("tracer: spans closed out of order");
  open_.pop_back();
  span& s = spans_[static_cast<std::size_t>(id)];
  s.end_us = seconds_since(epoch_) * 1e6;
  return (s.end_us - s.start_us) * 1e-6;
}

void tracer::write_chrome(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("tracer: cannot write " + path);
  os << std::setprecision(17) << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const span& s = spans_[i];
    os << "  {\"name\": \"" << s.name << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1"
       << ", \"ts\": " << s.start_us << ", \"dur\": " << (s.end_us - s.start_us)
       << ", \"args\": {\"end\": " << s.end_us << ", \"id\": " << s.id << ", \"parent\": " << s.parent
       << ", \"iteration\": " << s.iteration << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "], \"displayTimeUnit\": \"ms\"}\n";
}

}  // namespace perfbench
