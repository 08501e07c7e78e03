#include "bench.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

void pin_to_cpu(std::size_t index) {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    return out;
  }();
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[index % cpus.size()], &set);
  sched_setaffinity(0, sizeof set, &set);  // best effort: 0 = this thread
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t digest(const char* data, std::size_t size, std::uint64_t seed) {
  std::uint64_t hash = seed;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= static_cast<unsigned char>(data[i]);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::string hex(std::uint64_t value) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i, value >>= 4) {
    out[static_cast<std::size_t>(i)] = kDigits[value & 0xF];
  }
  return out;
}

int SpanLog::add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                 int parent, std::string trace_id) {
  if (!enabled_) return -1;
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, start_ns, end_ns, parent, std::move(trace_id)});
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::set_end(int id, std::int64_t end_ns) {
  if (id < 0) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end_ns = end_ns;
}

std::map<std::string, double> SpanLog::self_seconds() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                 s.end_ns);
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children, clipped to the parent interval.
    std::int64_t covered = 0;
    std::int64_t cursor = s.start_ns;
    for (const auto& [start, end] : kids) {
      const std::int64_t lo = std::max(start, cursor);
      const std::int64_t hi = std::min(end, s.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    self[s.name] += seconds_between(0, s.end_ns - s.start_ns - covered);
  }
  return self;
}

void SpanLog::write_jsonl(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span log " + path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    cig::Json line;
    line["id"] = cig::Json(static_cast<double>(i));
    line["name"] = cig::Json(std::string(s.name));
    line["start_ns"] = cig::Json(static_cast<double>(s.start_ns));
    line["end_ns"] = cig::Json(static_cast<double>(s.end_ns));
    line["parent"] = cig::Json(static_cast<double>(s.parent));
    if (!s.trace_id.empty()) line["trace_id"] = cig::Json(s.trace_id);
    out << line.dump() << '\n';
  }
}

DigestStore::DigestStore(std::string path) : path_(std::move(path)) {
  std::ifstream in(path_);
  if (!in) throw std::runtime_error("cannot read digests " + path_);
  std::stringstream text;
  text << in.rdbuf();
  doc_ = cig::Json::parse(text.str());
}

void DigestStore::save() const {
  std::ofstream out(path_);
  if (!out) throw std::runtime_error("cannot write digests " + path_);
  out << doc_.dump(1) << '\n';
}

cig::Json Report::to_json() const {
  cig::Json metrics_json = cig::JsonObject{};
  for (const auto& [name, value] : metrics) {
    cig::Json m;
    m["value"] = cig::Json(value.first);
    m["unit"] = cig::Json(value.second);
    metrics_json[name] = std::move(m);
  }
  cig::Json out;
  out["correct"] = cig::Json(failed == 0 && attempted > 0);
  out["attempted"] = cig::Json(static_cast<double>(attempted));
  out["failed"] = cig::Json(static_cast<double>(failed));
  out["metrics"] = std::move(metrics_json);
  return out;
}

void report_end_to_end(Report& report, double setup_s, double ops_per_s,
                       double op_p50_us, double op_p90_us) {
  report.set("setup_s", setup_s, "s");
  report.set("ops_per_s", ops_per_s, "1/s");
  report.set("op_p50_us", op_p50_us, "us");
  report.set("op_p90_us", op_p90_us, "us");
  report.set("peak_rss_mb", peak_rss_mb(), "MB");
  const double attempted = static_cast<double>(report.attempted);
  report.set("success_frac",
             attempted > 0 ? 1.0 - static_cast<double>(report.failed) / attempted
                           : 0.0,
             "1");
}

void layer_self_times(Report& report, const SpanLog& spans,
                      const std::vector<std::string>& layers,
                      std::uint64_t ops) {
  const auto self = spans.self_seconds();
  const double per = 1e6 / std::max<double>(1.0, static_cast<double>(ops));
  for (const std::string& layer : layers) {
    const auto it = self.find(layer);
    report.set("trace.self_us_per_op." + layer,
               it == self.end() ? 0.0 : it->second * per, "us");
  }
}

}  // namespace perfbench
