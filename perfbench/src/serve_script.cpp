#include "serve_script.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "support/rng.h"

namespace perfbench {

namespace {

// Tenants per serve_churn batch group: a batch is one group, eight
// requests per tenant, so a 64-request batch touches eight tenants.
constexpr int kGroupSize = 8;
constexpr int kChurnPerRound = 8;
// serve_read round: 5 decide, 2 stats, 1 explain, 2 light samples.
constexpr int kReadPerRound = 10;

// Window rounds per episode: an episode's window lasts about a quarter of a
// second on serve_read (120 batches) and half a second on serve_churn (64
// batches), so a run repeats it many times.
constexpr int kReadRounds = 12;
constexpr int kChurnRounds = 8;

constexpr std::uint64_t kSpans[] = {64, 256, 1024, 4096};
constexpr double kHeavyDemand[] = {2.0, 4.0, 8.0, 4.0};
constexpr double kLightDemand[] = {0.02, 0.05};

enum class Kind { Sample, Decide, Stats, Explain };

struct Request {
  Kind kind = Kind::Sample;
  bool heavy = false;
  double demand = 0;
  std::uint64_t span = 4096;
};

std::uint64_t program_seed(const std::string& workload, int tenant,
                           int variant) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : workload) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
  h ^= static_cast<std::uint64_t>(tenant) * 0x9E3779B97F4A7C15ull;
  h ^= static_cast<std::uint64_t>(variant + 1) * 0xBF58476D1CE4E5B9ull;
  return h;
}

template <typename T>
void shuffle(std::vector<T>& items, cig::Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.below(i)]);
  }
}

bool churn(const ServeShape& shape) { return shape.workload == "serve_churn"; }

int history_length(const ServeShape& shape, int tenant) {
  return (churn(shape) ? 8 : 4) + 4 * (tenant % 4);
}

Request sample(bool heavy, int j) {
  Request r;
  r.kind = Kind::Sample;
  r.heavy = heavy;
  r.demand = heavy ? kHeavyDemand[j % 4] : kLightDemand[j % 2];
  r.span = kSpans[(j / 2) % 4];
  return r;
}

// The tenant's requests in program order: history, then each round.
std::vector<Request> program(const ServeShape& shape, int tenant, int variant,
                             int rounds) {
  cig::Rng rng(program_seed(shape.workload, tenant, variant));
  std::vector<Request> out;
  std::vector<Request> history;
  for (int j = 0; j < history_length(shape, tenant); ++j) {
    history.push_back(sample(j % 2 == 0, j));
  }
  shuffle(history, rng);
  out.insert(out.end(), history.begin(), history.end());
  for (int r = 0; r < rounds; ++r) {
    std::vector<Request> round;
    if (churn(shape)) {
      for (int j = 0; j < kChurnPerRound; ++j) {
        round.push_back(sample(j % 2 == 0, j));
      }
    } else {
      for (int j = 0; j < 5; ++j) round.push_back({Kind::Decide});
      for (int j = 0; j < 2; ++j) round.push_back({Kind::Stats});
      round.push_back({Kind::Explain});
      round.push_back(sample(false, 2 * r));
      round.push_back(sample(false, 2 * r + 1));
    }
    shuffle(round, rng);
    out.insert(out.end(), round.begin(), round.end());
  }
  return out;
}

std::string render(const Request& r, const std::string& tenant,
                   const std::string& trace_id) {
  static const char* kOps[] = {"sample", "decide", "stats", "explain"};
  std::string line = std::string("{\"op\":\"") +
                     kOps[static_cast<int>(r.kind)] + "\",\"tenant\":\"" +
                     tenant + "\"";
  if (r.kind == Kind::Sample) {
    char buf[96];
    std::snprintf(buf, sizeof buf,
                  ",\"heavy\":%s,\"demand\":%g,\"span\":%llu",
                  r.heavy ? "true" : "false", r.demand,
                  static_cast<unsigned long long>(r.span));
    line += buf;
  }
  return line + ",\"trace_id\":\"" + trace_id + "\"}";
}

std::vector<int> draw_variants(const ServeShape& shape, std::uint64_t seed) {
  cig::Rng rng(seed);
  std::vector<int> variants;
  for (int t = 0; t < shape.tenants; ++t) {
    variants.push_back(static_cast<int>(rng.below(kVariants)));
  }
  return variants;
}

}  // namespace

std::string tenant_name(int tenant) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "t%02d", tenant);
  return buf;
}

ServeShape serve_shape(const std::string& workload) {
  ServeShape shape;
  shape.workload = workload;
  if (workload == "serve_read") {
    shape.resident_budget = 256;
    shape.scraper = true;
    shape.rounds = kReadRounds;
  } else if (workload == "serve_churn") {
    shape.resident_budget = 2 * kGroupSize;
    shape.rounds = kChurnRounds;
  } else {
    throw std::invalid_argument("unknown serve workload " + workload);
  }
  return shape;
}

std::vector<ScriptLine> tenant_program(const ServeShape& shape, int tenant,
                                       int variant, int rounds) {
  const std::string name = tenant_name(tenant);
  std::vector<ScriptLine> lines;
  int k = 1;  // trace id 0 is the hello
  for (const Request& r : program(shape, tenant, variant, rounds)) {
    std::string trace_id = name + "." + std::to_string(k++);
    lines.push_back({render(r, name, trace_id), tenant, trace_id});
  }
  return lines;
}

Script make_script(const ServeShape& shape, std::uint64_t seed,
                   int forced_variant) {
  Script script;
  script.variant = forced_variant >= 0
                       ? std::vector<int>(static_cast<std::size_t>(shape.tenants),
                                          forced_variant)
                       : draw_variants(shape, seed);
  // The rotation draws from a stream of its own, so the variants do not
  // shift it.
  cig::Rng rng(seed ^ 0x5E1EC7ull);
  std::vector<std::vector<ScriptLine>> programs;
  for (int t = 0; t < shape.tenants; ++t) {
    programs.push_back(tenant_program(shape, t, script.variant[t], shape.rounds));
  }

  // Set-up: every hello, then each tenant's history in tenant order.
  for (int t = 0; t < shape.tenants; ++t) {
    const std::string name = tenant_name(t);
    script.setup.push_back({"{\"op\":\"hello\",\"tenant\":\"" + name +
                                "\",\"board\":\"tx2\",\"trace_id\":\"" +
                                name + ".0\"}",
                            t, name + ".0"});
  }
  std::vector<std::size_t> next(static_cast<std::size_t>(shape.tenants), 0);
  auto take = [&](std::vector<ScriptLine>& out, int t) {
    out.push_back(std::move(programs[t][next[t]++]));
  };
  for (int t = 0; t < shape.tenants; ++t) {
    for (int j = 0; j < history_length(shape, t); ++j) take(script.setup, t);
  }

  // Window rotation.
  if (churn(shape)) {
    // Each round serves every group once, one batch per group. The budget
    // keeps the two most recently served groups resident (after set-up:
    // the last two groups), so a round order whose first group is not one
    // of those and whose second is not the last one served makes every
    // batch restore, and evict, exactly one group.
    const int groups = shape.tenants / kGroupSize;
    std::vector<int> order(static_cast<std::size_t>(groups));
    int last = groups - 1;
    int second_last = groups - 2;
    for (int r = 0; r < shape.rounds; ++r) {
      do {
        for (int g = 0; g < groups; ++g) order[g] = g;
        shuffle(order, rng);
      } while (order[0] == last || order[0] == second_last ||
               order[1] == last);
      for (const int g : order) {
        std::vector<int> batch;
        for (int t = g * kGroupSize; t < (g + 1) * kGroupSize; ++t) {
          batch.insert(batch.end(), kChurnPerRound, t);
        }
        shuffle(batch, rng);
        for (const int t : batch) take(script.window, t);
      }
      second_last = order[groups - 2];
      last = order[groups - 1];
    }
  } else {
    for (int r = 0; r < shape.rounds; ++r) {
      std::vector<int> round;
      for (int t = 0; t < shape.tenants; ++t) {
        round.insert(round.end(), kReadPerRound, t);
      }
      shuffle(round, rng);
      for (const int t : round) take(script.window, t);
    }
  }
  return script;
}

}  // namespace perfbench
