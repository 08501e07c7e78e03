#include "probes.h"

#include <memory>

#include "coherence/flush.h"
#include "coherence/io_coherence.h"
#include "mem/stream.h"
#include "serve/protocol.h"
#include "serve_script.h"
#include "soc/board_io.h"
#include "soc/soc.h"
#include "workload/builders.h"

namespace perfbench {

const std::vector<std::string> kLayerSpans = {
    "characterize.pass", "core.sweep.point", "comm.executor.run",
    "core.assemble",     "serve.batch",      "serve.intake",
    "serve.execute",     "serve.emit",       "serve.evict",
    "obs.scrape",        "obs.metrics_text", "obs.statusz_json",
};

namespace {

struct ProbePattern {
  std::string board;
  bool gpu = false;
  cig::mem::PatternSpec spec;
  cig::mem::PatternSpec warm_cpu;  // the workload's CPU stream (io-port warm-up)
};

// The characterize workload's own experiments, a few per kind per board:
// MB1, MB3 and three MB2 GPU and CPU sweep points.
std::vector<ProbePattern> probe_patterns() {
  std::vector<ProbePattern> out;
  for (const std::string name : {"tx2", "xavier"}) {
    const auto board = cig::soc::resolve_board(name);
    std::vector<cig::workload::Workload> workloads = {
        cig::workload::mb1_workload(board), cig::workload::mb3_workload(board)};
    for (const double f : {1.0 / 1000, 1.0 / 50, 1.0 / 4}) {
      workloads.push_back(cig::workload::mb2_workload(board, f));
    }
    for (const double f : {0.05, 0.2, 0.5}) {
      workloads.push_back(cig::workload::mb2_cpu_workload(board, f));
    }
    for (const auto& w : workloads) {
      out.push_back({name, false, w.cpu.pattern, w.cpu.pattern});
      out.push_back({name, true, w.gpu.pattern, w.cpu.pattern});
    }
  }
  return out;
}

// Keeps the walk-only timing loop from being optimized away.
volatile std::uint64_t g_walk_sink = 0;

template <typename Fn>
double time_ns(Fn&& fn) {
  const std::int64_t start = now_ns();
  fn();
  return static_cast<double>(now_ns() - start);
}

void probe_mem(Report& report, SpanLog& spans) {
  const std::int64_t start = now_ns();
  const auto patterns = probe_patterns();
  double accesses = 0, walk_ns = 0, hierarchy_ns = 0;
  double llc_served = 0, dram_served = 0;
  double port_accesses = 0, port_ns = 0;
  double dirty_lines = 0;
  std::vector<double> flush_us;
  std::uint64_t checksum = 0;

  for (const ProbePattern& p : patterns) {
    const double n = static_cast<double>(cig::mem::line_accesses(p.spec));
    accesses += n;
    const auto walk_only = [&] {
      cig::mem::walk_block(p.spec, [&](const cig::mem::AccessBlock& b) {
        checksum += b.count + b.address[0];
      });
    };
    const double walk = time_ns(walk_only);
    walk_ns += walk;

    cig::soc::SoC soc(cig::soc::resolve_board(p.board));
    auto& h = p.gpu ? soc.gpu_hierarchy() : soc.cpu_hierarchy();
    hierarchy_ns += time_ns([&] {
      cig::mem::walk_block(p.spec, [&](const cig::mem::AccessBlock& b) {
        h.access_block(b);
      });
    }) - walk;
    llc_served += static_cast<double>(h.counters().level[1].served);
    dram_served += static_cast<double>(h.counters().dram_served);

    // Range maintenance over the buffer the walk just dirtied, as the
    // executor issues it around a standard-copy transfer.
    auto& flush = soc.flush_engine();
    auto& l1 = p.gpu ? soc.gpu_l1() : soc.cpu_l1();
    auto& llc = p.gpu ? soc.gpu_llc() : soc.cpu_llc();
    const auto range = cig::mem::footprint(p.spec);
    for (int op = 0; op < 3; ++op) {
      cig::coherence::FlushResult r;
      const std::int64_t t0 = now_ns();
      if (op == 0) r = flush.clean_range(llc, p.spec.base, range);
      if (op == 1) r = flush.invalidate_range(l1, p.spec.base, range);
      if (op == 2) r = flush.invalidate_range(llc, p.spec.base, range);
      flush_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
      dirty_lines += static_cast<double>(r.dirty_lines);
    }

    if (p.gpu && soc.config().capability ==
                     cig::coherence::Capability::HwIoCoherent) {
      // Xavier ZC: device accesses snoop a CPU LLC warmed by the CPU task.
      cig::soc::SoC io_soc(soc.config());
      cig::mem::walk_block(p.warm_cpu, [&](const cig::mem::AccessBlock& b) {
        io_soc.cpu_hierarchy().access_block(b);
      });
      auto& port = io_soc.io_port();
      auto* target = &io_soc.cpu_llc();
      port_ns += time_ns([&] {
        cig::mem::walk_block(p.spec, [&](const cig::mem::AccessBlock& b) {
          for (std::size_t i = 0; i < b.count; ++i) {
            port.device_access(b.address[i], b.size[i], b.kind[i], target);
          }
        });
      }) - walk;
      port_accesses += n;
    }
  }
  g_walk_sink = checksum;
  spans.add("probe.mem", start, now_ns());

  report.set("mem.accesses", accesses, "count");
  report.set("mem.walk.ns_per_access", walk_ns / accesses, "ns");
  report.set("mem.hierarchy.ns_per_access", hierarchy_ns / accesses, "ns");
  report.set("mem.hierarchy.llc_hit_ratio",
             llc_served / std::max(1.0, llc_served + dram_served), "1");
  report.set("coherence.flush.us", quantile(flush_us, 0.5), "us");
  report.set("coherence.flush.lines", dirty_lines, "count");
  report.set("coherence.io_port.ns_per_access",
             port_ns / std::max(1.0, port_accesses), "ns");
}

void probe_tenants(Report& report, SpanLog& spans, const Options& options,
                   const cig::serve::BoardEntry& board) {
  const std::int64_t start = now_ns();
  // The serve workloads probe their own programs; characterize, which has
  // no request stream, probes serve_churn's.
  const std::string workload =
      options.workload == "characterize" ? "serve_churn" : options.workload;
  const ServeShape shape = serve_shape(workload);
  auto entry = std::make_shared<const cig::serve::BoardEntry>(board);

  double parse_ns = 0, lines = 0, ingest_ns = 0, samples = 0;
  std::vector<double> recommend_us, checkpoint_us, restore_us, bytes;
  // One tenant per history length, at the state it reaches mid-window.
  // Variant 0 throughout, so checkpoint bytes repeat exactly across seeds.
  for (int t = 0; t < 4; ++t) {
    cig::serve::Tenant tenant(tenant_name(t), entry);
    for (const ScriptLine& line :
         tenant_program(shape, t, 0, shape.rounds / 2)) {
      cig::serve::ParsedLine parsed;
      parse_ns += time_ns([&] {
        parsed = cig::serve::parse_request(line.text, 1);
      });
      lines += 1;
      if (parsed.ok && parsed.request.op == cig::serve::Op::Sample) {
        ingest_ns += time_ns([&] { tenant.ingest_sample(parsed.request); });
        samples += 1;
      }
    }
    for (int i = 0; i < 32; ++i) {
      recommend_us.push_back(1e-3 * time_ns([&] { (void)tenant.recommend(); }));
    }
    for (int i = 0; i < 3; ++i) {
      std::string blob;
      checkpoint_us.push_back(
          1e-3 * time_ns([&] { blob = tenant.checkpoint_doc().dump(); }));
      bytes.push_back(static_cast<double>(blob.size()));
      const cig::Json doc = cig::Json::parse(blob);
      restore_us.push_back(1e-3 * time_ns([&] {
        (void)cig::serve::Tenant::restore(doc, entry);
      }));
    }
  }
  spans.add("probe.tenant", start, now_ns());

  report.set("serve.protocol.parse_us", parse_ns * 1e-3 / lines, "us");
  report.set("core.decision.recommend_us", quantile(recommend_us, 0.5), "us");
  report.set("serve.tenant.ingest_us", ingest_ns * 1e-3 / samples, "us");
  report.set("serve.tenant.checkpoint_us", quantile(checkpoint_us, 0.5), "us");
  report.set("serve.tenant.checkpoint_bytes", quantile(bytes, 0.5), "B");
  report.set("serve.tenant.restore_us", quantile(restore_us, 0.5), "us");
}

}  // namespace

void report_layer_probes(Report& report, SpanLog& spans,
                         const Options& options,
                         const cig::serve::BoardEntry& board) {
  probe_mem(report, spans);
  probe_tenants(report, spans, options, board);
}

void report_serve_stream_absent(Report& report) {
  for (const char* name :
       {"serve.batch.us.p50", "serve.batch.us.p90", "obs.scrape.busy_us.p50",
        "obs.scrape.busy_us.p90", "obs.scrape.idle_us"}) {
    report.set(name, 0.0, "us");
  }
  report.set("serve.batch.size", 0.0, "count");
  report.set("serve.restores_per_op", 0.0, "1");
  report.set("serve.evictions_per_op", 0.0, "1");
}

}  // namespace perfbench
