// Seeded request generator of the two serve workloads.
//
// Every tenant runs one of kVariants fixed programs (a set-up history and a
// sequence of rounds), generated from (workload, tenant, variant) alone.
// The run seed picks each tenant's variant and the interleaving of tenants
// in the stream ("rotation"). Tenants are isolated — a tenant's replies are
// a pure function of its own requests — so the reply digest of every
// (tenant, variant) program can be recorded once and checked under any
// seed. Variants of one tenant share the same multiset of requests and
// differ only in order and parameters drawn from fixed sets, so the
// simulated work, and with it the timing, does not depend on the seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr int kVariants = 4;

struct ServeShape {
  std::string workload;  // "serve_read" or "serve_churn"
  int tenants = 64;
  std::uint64_t resident_budget = 256;
  int rounds = 1;             // window rounds per tenant, per episode
  bool scraper = false;       // serve_read: scrape every kScrapeEvery replies
};

ServeShape serve_shape(const std::string& workload);


// One generated request line (no trailing newline) and its tenant.
struct ScriptLine {
  std::string text;
  int tenant = 0;
  std::string trace_id;
};

struct Script {
  std::vector<int> variant;           // per tenant
  std::vector<ScriptLine> setup;      // hellos + history
  std::vector<ScriptLine> window;     // the measured requests
};

// Full stream for a run: variants and rotation drawn from `seed`, unless
// `forced_variant` >= 0 pins every tenant to that variant (digest record).
Script make_script(const ServeShape& shape, std::uint64_t seed,
                   int forced_variant = -1);

// One tenant's program in order: its history, then `rounds` window rounds.
std::vector<ScriptLine> tenant_program(const ServeShape& shape, int tenant,
                                       int variant, int rounds);

std::string tenant_name(int tenant);

}  // namespace perfbench
