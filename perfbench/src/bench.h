// Shared plumbing of the benchmark driver: wall clock, percentiles, the
// in-memory span log of traced runs, the recorded-digest store and the
// report every workload fills in.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "support/json.h"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);

// Pins the calling thread to the (index mod n)-th of the n CPUs the process
// started with. The shared host's CPUs slow down in phases of seconds, one
// CPU at a time; rotating repeated work over them and keeping each item's
// fastest run keeps a slow phase on one CPU from setting a run's figures.
void pin_to_cpu(std::size_t index);

// Peak resident set of this process, in MB.
double peak_rss_mb();

// 64-bit FNV-1a, chainable: digest(bytes, digest(previous)).
std::uint64_t digest(const char* data, std::size_t size,
                     std::uint64_t seed = 0xcbf29ce484222325ull);
std::string hex(std::uint64_t value);

// One measured interval. Spans are kept in memory while the run measures
// and written out when it ends; `parent` is -1 for a root span.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::string trace_id;
};

// Thread-safe span store. Disabled logs record nothing (untraced runs).
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  // Returns the span id (or -1 when disabled).
  int add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
          int parent = -1, std::string trace_id = {});
  // Closes a span opened with end_ns = 0 (a parent whose end is not yet
  // known when its children are recorded).
  void set_end(int id, std::int64_t end_ns);
  // Self time per span name: each span minus the union of its children.
  std::map<std::string, double> self_seconds() const;
  void write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

// Recorded reference digests (perfbench/digests.json): the characterization
// JSON of each board, and one reply-stream digest per tenant program for
// each serve workload size.
class DigestStore {
 public:
  explicit DigestStore(std::string path);

  cig::Json& doc() { return doc_; }
  void save() const;

 private:
  std::string path_;
  cig::Json doc_;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 20;
  bool trace = false;
  std::string digests = "perfbench/digests.json";
  std::string spans_out;  // traced runs: where the span log is written
  bool record = false;    // rewrite the reference digests instead of checking
};

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics.emplace_back(name, std::make_pair(value, unit));
  }
  cig::Json to_json() const;
};

// The six end-to-end metrics, common to every workload (peak RSS and the
// success fraction are read here).
void report_end_to_end(Report& report, double setup_s, double ops_per_s,
                       double op_p50_us, double op_p90_us);

// Self time of each named span layer, per op (`ops` ops were traced).
void layer_self_times(Report& report, const SpanLog& spans,
                      const std::vector<std::string>& layers,
                      std::uint64_t ops);

Report run_characterize(const Options& options, DigestStore& digests);
Report run_serve(const Options& options, DigestStore& digests);

}  // namespace perfbench
