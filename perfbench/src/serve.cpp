// The serve_read and serve_churn workloads: an in-process serve::Server fed
// a seeded, backlogged request stream through a stream buffer that stamps
// the moment each line is handed to the server, while the reply stream
// buffer stamps each reply line, checks it and folds it into its tenant's
// digest.
#include <algorithm>
#include <condition_variable>
#include <filesystem>
#include <cstdio>
#include <cstring>
#include <istream>
#include <memory>
#include <ostream>
#include <streambuf>
#include <thread>

#include <unistd.h>

#include "bench.h"
#include "characterize.h"
#include "probes.h"
#include "serve/server.h"
#include "serve_script.h"
#include "soc/board_io.h"

namespace perfbench {

namespace {

// Cold daemon starts per run; setup_s is their median.
constexpr int kSetupReps = 3;
// serve_read's scraper renders /metrics and /statusz once per this many
// completed replies, so every run does the same scrape work.
constexpr std::uint64_t kScrapeEvery = 512;
// Traced runs alternate groups of this many untraced and traced episodes
// (one per CPU of a four-CPU rotation); trace.overhead_pct compares the two.
constexpr int kTraceGroup = 4;
// Fewest episodes a run measures, whatever --seconds allows; a traced run
// needs one traced group.
constexpr int kMinEpisodes = 3;
constexpr int kMinTracedEpisodes = 2 * kTraceGroup;
// Uncontended scrapes timed after each episode's serving loop (traced runs).
constexpr int kIdleScrapes = 8;
// Per-run scratch (the characterization cache), inside the checkout.
constexpr const char* kWorkDir = ".bench_build/work";

// Hands the script to the server one line per underflow, stamping each
// hand-off.
class LineFeed : public std::streambuf {
 public:
  explicit LineFeed(const std::vector<ScriptLine>& lines) {
    for (const ScriptLine& line : lines) {
      offsets_.push_back(text_.size());
      text_ += line.text;
      text_ += '\n';
    }
    offsets_.push_back(text_.size());
    handoff_ns.resize(lines.size());
  }

  std::vector<std::int64_t> handoff_ns;

 protected:
  int_type underflow() override {
    if (next_ + 1 >= offsets_.size()) return traits_type::eof();
    char* begin = text_.data() + offsets_[next_];
    char* end = text_.data() + offsets_[next_ + 1];
    setg(begin, begin, end);
    handoff_ns[next_++] = now_ns();
    return traits_type::to_int_type(*gptr());
  }

 private:
  std::string text_;
  std::vector<std::size_t> offsets_;
  std::size_t next_ = 0;
};

// Counts completed replies and wakes the scraper every kScrapeEvery.
class ScrapeTrigger {
 public:
  void reply_done(std::uint64_t completed) {
    if (completed % kScrapeEvery != 0) return;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++pending_;
    }
    cv_.notify_one();
  }
  void finish() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    cv_.notify_one();
  }
  // Blocks until a scrape is due; false once finished and drained.
  bool wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return pending_ > 0 || done_; });
    if (pending_ == 0) return false;
    --pending_;
    return true;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::uint64_t pending_ = 0;
  bool done_ = false;
};

// Owns the scraper thread: finishes the trigger and joins on every exit
// path, so the thread never outlives the server it scrapes.
class Scraper {
 public:
  explicit Scraper(ScrapeTrigger& trigger) : trigger_(trigger) {}
  ~Scraper() {
    trigger_.finish();
    if (thread_.joinable()) thread_.join();
  }
  Scraper(const Scraper&) = delete;
  Scraper& operator=(const Scraper&) = delete;

  template <typename Fn>
  void start(Fn&& fn) {
    thread_ = std::thread(std::forward<Fn>(fn));
  }

 private:
  ScrapeTrigger& trigger_;
  std::thread thread_;
};

// Receives the reply stream: one reply line per script line, in order.
class ReplySink : public std::streambuf {
 public:
  ReplySink(const std::vector<ScriptLine>& lines,
            std::vector<std::uint64_t>& tenant_digest, ScrapeTrigger* trigger,
            SpanLog* spans, const LineFeed* feed)
      : lines_(lines),
        tenant_digest_(tenant_digest),
        trigger_(trigger),
        spans_(spans),
        feed_(feed) {
    reply_ns.resize(lines.size());
    bad.resize(lines.size());
    line_.reserve(1 << 16);
  }

  std::vector<std::int64_t> reply_ns;
  std::vector<std::uint8_t> bad;  // error reply, wrong trace id or extra line
  std::uint64_t extra_replies = 0;
  // One entry per flushed batch: replies so far and the flush stamp.
  struct Batch {
    std::size_t end = 0;
    std::int64_t flush_ns = 0;
  };
  std::vector<Batch> batches;

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    if (first_write_ns_ == 0) first_write_ns_ = now_ns();
    const char* end = s + n;
    while (s < end) {
      const char* nl = static_cast<const char*>(std::memchr(s, '\n', end - s));
      if (nl == nullptr) {
        line_.append(s, end);
        break;
      }
      line_.append(s, nl);
      end_line();
      s = nl + 1;
    }
    return n;
  }

  int_type overflow(int_type c) override {
    if (traits_type::eq_int_type(c, traits_type::eof())) return 0;
    const char ch = traits_type::to_char_type(c);
    xsputn(&ch, 1);
    return c;
  }

  int sync() override {
    if (next_ > batch_start_) {
      const std::int64_t now = now_ns();
      batches.push_back({next_, now});
      if (spans_ != nullptr) record_batch(now);
      batch_start_ = next_;
    }
    first_write_ns_ = 0;
    return 0;
  }

 private:
  void end_line() {
    const std::int64_t now = now_ns();
    const std::size_t i = next_++;
    if (i >= lines_.size()) {
      ++extra_replies;
      line_.clear();
      return;
    }
    const ScriptLine& request = lines_[i];
    reply_ns[i] = now;
    const std::string expected_id = "\"trace_id\":\"" + request.trace_id + "\"";
    bad[i] = line_.find("\"ok\":true") == std::string::npos ||
             line_.find(expected_id) == std::string::npos;
    line_ += '\n';
    std::uint64_t& d = tenant_digest_[static_cast<std::size_t>(request.tenant)];
    d = digest(line_.data(), line_.size(), d);
    line_.clear();
    if (trigger_ != nullptr) trigger_->reply_done(next_);
  }

  // Spans of one traced batch: intake (hand-offs up to the last line),
  // execute (the flush until the first reply is written), emit (reply
  // writes until the flush), each request from hand-off to reply. The
  // post-flush work (eviction) closes when the next line is handed off.
  void record_batch(std::int64_t flush_ns) {
    const auto& handoff = feed_->handoff_ns;
    const std::size_t first = batch_start_;
    const std::size_t last = next_ - 1;
    const int root = spans_->add("serve.batch", handoff[first], 0);
    spans_->add("serve.intake", handoff[first], handoff[last], root);
    spans_->add("serve.execute", handoff[last], first_write_ns_, root);
    spans_->add("serve.emit", first_write_ns_, flush_ns, root);
    for (std::size_t i = first; i <= last && i < lines_.size(); ++i) {
      spans_->add("serve.request", handoff[i], reply_ns[i], root,
                  lines_[i].trace_id);
    }
    open_roots_.push_back({root, batches.size() - 1});
  }

 public:
  // Closes each traced batch's eviction span at the next hand-off (or at
  // `end_ns` for the last batch).
  void close_batches(std::int64_t end_ns) {
    if (spans_ == nullptr) return;
    const auto& handoff = feed_->handoff_ns;
    for (const auto& [root, index] : open_roots_) {
      const Batch& b = batches[index];
      const std::int64_t next = b.end < handoff.size() ? handoff[b.end] : end_ns;
      spans_->add("serve.evict", b.flush_ns, next, root);
      spans_->set_end(root, next);
    }
  }

 private:
  const std::vector<ScriptLine>& lines_;
  std::vector<std::uint64_t>& tenant_digest_;
  ScrapeTrigger* trigger_;
  SpanLog* spans_;
  const LineFeed* feed_;
  std::string line_;
  std::size_t next_ = 0;
  std::size_t batch_start_ = 0;
  std::int64_t first_write_ns_ = 0;
  std::vector<std::pair<int, std::size_t>> open_roots_;  // root, batch
};

cig::serve::ServeOptions server_options(const ServeShape& shape,
                                        const std::string& cache_dir) {
  cig::serve::ServeOptions options;
  options.jobs = 1;
  options.batch_max = 64;
  options.resident_budget = shape.resident_budget;
  options.cache_dir = cache_dir;
  return options;
}

// Replies of one server's set-up stream (hellos + history), folded into a
// fresh digest per tenant.
struct SetupResult {
  std::vector<std::uint64_t> tenant_digest;
  std::vector<std::uint8_t> tenant_bad;  // a set-up reply failed its check
};

SetupResult run_setup(cig::serve::Server& server, const ServeShape& shape,
                      const Script& script) {
  SetupResult result;
  result.tenant_digest.assign(static_cast<std::size_t>(shape.tenants),
                              0xcbf29ce484222325ull);
  result.tenant_bad.assign(static_cast<std::size_t>(shape.tenants), 0);
  LineFeed feed(script.setup);
  ReplySink sink(script.setup, result.tenant_digest, nullptr, nullptr, &feed);
  std::istream in(&feed);
  std::ostream out(&sink);
  server.run(in, out);
  for (std::size_t i = 0; i < script.setup.size(); ++i) {
    if (sink.bad[i] || sink.extra_replies > 0) {
      result.tenant_bad[script.setup[i].tenant] = 1;
    }
  }
  return result;
}

void scrape_once(cig::serve::Server& server, SpanLog* spans,
                 std::vector<double>& out_us) {
  const std::int64_t start = now_ns();
  server.metrics_text();
  const std::int64_t mid = now_ns();
  server.statusz_json().dump();
  const std::int64_t rendered = now_ns();
  server.count_scrape();
  const std::int64_t end = now_ns();
  out_us.push_back(static_cast<double>(end - start) * 1e-3);
  if (spans != nullptr) {
    const int root = spans->add("obs.scrape", start, end);
    spans->add("obs.metrics_text", start, mid, root);
    spans->add("obs.statusz_json", mid, rendered, root);
  }
}

// One episode: a warm daemon start, the set-up stream, then the measured
// window. Every episode of a run serves the same script, so every episode
// does the same work and must reproduce the same replies.
struct Episode {
  std::vector<std::uint64_t> tenant_digest;
  std::vector<std::uint8_t> tenant_bad;
  std::vector<std::uint8_t> bad;  // per window line
  std::uint64_t extra_replies = 0;
  std::vector<double> op_us;
  double window_s = 0;
  std::vector<double> batch_us;
  std::vector<double> batch_size;
  double restores = 0;
  double evictions = 0;
};

Episode run_episode(const ServeShape& shape, const Script& script,
                    const std::string& cache_dir, std::size_t cpu,
                    SpanLog* spans, std::vector<double>& scrape_busy_us,
                    std::vector<double>* scrape_idle_us) {
  pin_to_cpu(cpu);
  cig::serve::Server server(server_options(shape, cache_dir));
  SetupResult setup = run_setup(server, shape, script);
  Episode episode;
  episode.tenant_digest = std::move(setup.tenant_digest);
  episode.tenant_bad = std::move(setup.tenant_bad);

  const cig::sim::StatRegistry before = server.registry();
  ScrapeTrigger trigger;
  LineFeed feed(script.window);
  ReplySink sink(script.window, episode.tenant_digest,
                 shape.scraper ? &trigger : nullptr, spans, &feed);
  std::int64_t run_end = 0;
  {
    Scraper scraper(trigger);
    if (shape.scraper) {
      scraper.start([&] {
        pin_to_cpu(cpu + 1);  // the scraper gets a core of its own
        while (trigger.wait()) scrape_once(server, spans, scrape_busy_us);
      });
    }
    std::istream in(&feed);
    std::ostream out(&sink);
    server.run(in, out);
    run_end = now_ns();
  }
  sink.close_batches(run_end);

  const std::size_t n = script.window.size();
  episode.window_s =
      seconds_between(feed.handoff_ns.front(), sink.reply_ns[n - 1]);
  episode.op_us.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    episode.op_us.push_back(
        static_cast<double>(sink.reply_ns[i] - feed.handoff_ns[i]) * 1e-3);
  }
  episode.bad = sink.bad;
  episode.extra_replies = sink.extra_replies;
  std::size_t start = 0;
  for (const ReplySink::Batch& b : sink.batches) {
    if (b.end > n) break;
    episode.batch_size.push_back(static_cast<double>(b.end - start));
    episode.batch_us.push_back(
        static_cast<double>(b.flush_ns - feed.handoff_ns[b.end - 1]) * 1e-3);
    start = b.end;
  }
  const cig::sim::StatRegistry after = server.registry();
  episode.restores = after.get("serve.restores") - before.get("serve.restores");
  episode.evictions =
      after.get("serve.evictions") - before.get("serve.evictions");
  if (scrape_idle_us != nullptr) {
    for (int i = 0; i < kIdleScrapes; ++i) {
      scrape_once(server, nullptr, *scrape_idle_us);
    }
  }
  return episode;
}

Report record_digests(const Options& options, const ServeShape& shape,
                      DigestStore& digests) {
  Report report;
  std::vector<std::vector<std::string>> table(
      static_cast<std::size_t>(shape.tenants));
  std::vector<double> scrapes;
  for (int v = 0; v < kVariants; ++v) {
    const Script script = make_script(shape, options.seed, v);
    const Episode e =
        run_episode(shape, script, "", static_cast<std::size_t>(v), nullptr,
                    scrapes, nullptr);
    report.attempted += e.op_us.size();
    for (const std::uint8_t bad : e.bad) report.failed += bad;
    report.failed += e.extra_replies;
    for (int t = 0; t < shape.tenants; ++t) {
      report.failed += e.tenant_bad[t];
      table[t].push_back(hex(e.tenant_digest[t]));
    }
  }
  if (report.failed > 0) return report;  // never record a broken stream
  cig::Json json = cig::JsonArray{};
  for (const auto& row : table) {
    cig::Json cells = cig::JsonArray{};
    for (const auto& cell : row) cells.push_back(cig::Json(cell));
    json.push_back(std::move(cells));
  }
  digests.doc()[shape.workload] = std::move(json);
  digests.save();
  return report;
}

// Removes the run's scratch directory however the run ends.
class ScratchDir {
 public:
  explicit ScratchDir(std::string path) : path_(std::move(path)) {}
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace

Report run_serve(const Options& options, DigestStore& digests) {
  const ServeShape shape = serve_shape(options.workload);
  if (options.record) return record_digests(options, shape, digests);

  const Script script = make_script(shape, options.seed);
  const ScratchDir scratch(std::string(kWorkDir) + "/" + options.workload +
                           "-" + std::to_string(::getpid()));
  const std::string cache_dir = scratch.path() + "/cache";

  // Set-up: cold daemon starts. The first writes the board characterization
  // to the run's cache, so the episodes below start warm.
  // --seconds bounds the whole run: the cold starts, then as many episodes
  // as fit (at least kMinEpisodes).
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(options.seconds) * 1'000'000'000;
  Report report;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    pin_to_cpu(static_cast<std::size_t>(rep));
    const std::int64_t start = now_ns();
    cig::serve::Server server(server_options(shape, rep == 0 ? cache_dir : ""));
    const SetupResult setup = run_setup(server, shape, script);
    setup_s.push_back(seconds_between(start, now_ns()));
    for (const std::uint8_t bad : setup.tenant_bad) report.failed += bad;
  }

  // Correctness: no error reply, every trace id matched, and each tenant's
  // reply stream (set-up and window) hashes to its program's recorded
  // digest.
  const cig::Json& table = digests.doc()[shape.workload];
  const bool recorded =
      table.is_array() &&
      table.as_array().size() == static_cast<std::size_t>(shape.tenants);
  auto tenant_ok = [&](const Episode& e, int t) {
    return recorded && !e.tenant_bad[t] &&
           table.as_array()[t].as_array()[script.variant[t]].as_string() ==
               hex(e.tenant_digest[t]);
  };

  SpanLog spans(options.trace);
  std::vector<double> ops_per_s, p50_us, p90_us, batch_us, batch_size;
  std::vector<double> traced_ops_per_s, untraced_ops_per_s;
  std::uint64_t traced_ops = 0;
  std::vector<double> scrape_busy_us, scrape_idle_us;
  double restores = 0, evictions = 0;
  const int min_episodes = options.trace ? kMinTracedEpisodes : kMinEpisodes;
  for (int e = 0; e < min_episodes || now_ns() < deadline; ++e) {
    const bool traced = options.trace && (e / kTraceGroup) % 2 == 1;
    const Episode ep = run_episode(
        shape, script, cache_dir, static_cast<std::size_t>(e),
        traced ? &spans : nullptr, scrape_busy_us,
        options.trace ? &scrape_idle_us : nullptr);
    report.attempted += ep.op_us.size();
    for (std::size_t i = 0; i < script.window.size(); ++i) {
      if (ep.bad[i] || !tenant_ok(ep, script.window[i].tenant)) ++report.failed;
    }
    report.failed += ep.extra_replies;
    ops_per_s.push_back(static_cast<double>(ep.op_us.size()) / ep.window_s);
    (traced ? traced_ops_per_s : untraced_ops_per_s).push_back(ops_per_s.back());
    if (traced) traced_ops += ep.op_us.size();
    p50_us.push_back(quantile(ep.op_us, 0.5));
    p90_us.push_back(quantile(ep.op_us, 0.9));
    std::fprintf(stderr, "episode %d: %.0f ops/s p50 %.0f us p90 %.0f us\n", e,
                 ops_per_s.back(), p50_us.back(), p90_us.back());
    batch_us.insert(batch_us.end(), ep.batch_us.begin(), ep.batch_us.end());
    batch_size.insert(batch_size.end(), ep.batch_size.begin(),
                      ep.batch_size.end());
    restores += ep.restores;
    evictions += ep.evictions;
  }
  report.failed = std::min(report.failed, report.attempted);

  if (!options.trace) {
    // Each episode repeats the same work; a slower host period only ever
    // adds time, so each metric is the best episode's.
    report_end_to_end(report, quantile(setup_s, 0.5),
                      *std::max_element(ops_per_s.begin(), ops_per_s.end()),
                      *std::min_element(p50_us.begin(), p50_us.end()),
                      *std::min_element(p90_us.begin(), p90_us.end()));
    return report;
  }

  // Traced run: the cold characterization the daemon performs, timed op by
  // op, gives the core/comm layers and the board entry for the probes.
  Characterizer characterizer({"tx2"});
  CharLayers layers;
  SpanLog untraced(false);
  cig::Rng rng(options.seed);
  const auto pass = characterizer.run_pass(rng, untraced, layers);
  const cig::serve::BoardEntry board(cig::soc::resolve_board("tx2"),
                                     pass.devices[0]);
  report_char_layers(report, layers);
  report_layer_probes(report, spans, options, board);

  const double ops = static_cast<double>(report.attempted);
  report.set("serve.batch.us.p50", quantile(batch_us, 0.5), "us");
  report.set("serve.batch.us.p90", quantile(batch_us, 0.9), "us");
  report.set("serve.batch.size", quantile(batch_size, 0.5), "count");
  report.set("serve.restores_per_op", restores / ops, "1");
  report.set("serve.evictions_per_op", evictions / ops, "1");
  report.set("obs.scrape.busy_us.p50", quantile(scrape_busy_us, 0.5), "us");
  report.set("obs.scrape.busy_us.p90", quantile(scrape_busy_us, 0.9), "us");
  report.set("obs.scrape.idle_us", quantile(scrape_idle_us, 0.5), "us");
  report.set("trace.overhead_pct",
             (quantile(untraced_ops_per_s, 0.5) /
                  quantile(traced_ops_per_s, 0.5) -
              1.0) * 100.0,
             "%");
  layer_self_times(report, spans, kLayerSpans, traced_ops);
  if (!options.spans_out.empty()) spans.write_jsonl(options.spans_out);
  return report;
}

}  // namespace perfbench
