#include "characterize.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/sweep.h"
#include "core/thresholds.h"
#include "probes.h"
#include "soc/board_io.h"
#include "workload/builders.h"

namespace perfbench {

namespace {

using cig::core::kAllModels;
using cig::core::model_index;

// The boards of the two coherence regimes: SW flush (tx2) and HW I/O
// coherence (xavier). nano repeats tx2's regime.
const std::vector<std::string> kBoards = {"tx2", "xavier"};


// Set-up repetitions before each pass: building the SoCs and workloads takes
// about a quarter of a millisecond, so one build is host noise; the median of
// many, spread over the run, is not.
constexpr int kSetupRepsPerPass = 12;

// Seconds of measurement one pass over both boards stands for.
constexpr double kSecondsPerPass = 10.0;

enum class OpKind { Mb2Gpu, Mb2Cpu, Mb1, Mb3 };

struct Op {
  std::size_t id = 0;  // position in the unshuffled, board-major op list
  std::size_t board = 0;
  OpKind kind = OpKind::Mb1;
  std::size_t index = 0;  // fraction index (MB2) or model index (MB1/MB3)
};

// Results of one pass, per board, in grid / model order.
struct BoardResults {
  std::vector<cig::core::SweepPoint> gpu;
  std::vector<cig::core::SweepPoint> cpu;
  std::array<cig::comm::RunResult, 3> mb1;
  std::array<cig::comm::RunResult, 3> mb3;
};

// Mirrors MicrobenchSuite::run_mb1/run_mb2/run_mb3; the digest check proves
// the two assemble the same characterization.
cig::core::DeviceCharacterization assemble(const cig::soc::BoardConfig& config,
                                           const BoardResults& r) {
  cig::core::DeviceCharacterization device;
  device.board = config.name;
  device.capability = config.capability;
  for (const auto model : kAllModels) {
    const auto i = model_index(model);
    const auto& mb1 = r.mb1[i];
    device.mb1.gpu_ll_throughput[i] = mb1.gpu_ll_throughput;
    device.mb1.cpu_time[i] = mb1.cpu_time_per_iter();
    device.mb1.gpu_time[i] = mb1.kernel_time_per_iter();
    device.mb1.total_time[i] = mb1.total_per_iter();
    const auto& mb3 = r.mb3[i];
    device.mb3.total_time[i] = mb3.total_per_iter();
    device.mb3.cpu_time[i] = mb3.cpu_time_per_iter();
    device.mb3.gpu_time[i] = mb3.kernel_time_per_iter();
    device.mb3.copy_time[i] =
        mb3.copy_time_per_iter() + mb3.migration_time / mb3.iterations;
    if (model == cig::comm::CommModel::ZeroCopy) {
      device.mb3.overlap_fraction_zc = mb3.overlap_fraction;
    }
  }
  device.mb2.gpu = cig::core::analyze_sweep(r.gpu);
  device.mb2.cpu = cig::core::analyze_sweep(r.cpu, /*tolerance=*/0.4);
  return device;
}

const char* op_span_name(OpKind kind) {
  return kind == OpKind::Mb2Gpu || kind == OpKind::Mb2Cpu
             ? "core.sweep.point"
             : "comm.executor.run";
}

std::string op_label(const std::string& board, const Op& op) {
  static const char* kKinds[] = {"mb2_gpu", "mb2_cpu", "mb1", "mb3"};
  return board + "." + kKinds[static_cast<int>(op.kind)] + "." +
         std::to_string(op.index);
}

}  // namespace

Characterizer::Characterizer(const std::vector<std::string>& boards)
    : names_(boards),
      gpu_fractions_(cig::workload::mb2_fractions()),
      cpu_fractions_(cig::workload::mb2_cpu_fractions()) {
  for (const std::string& name : boards) {
    Rig rig;
    rig.config = cig::soc::resolve_board(name);
    rig.soc = std::make_unique<cig::soc::SoC>(rig.config);
    rig.executor = std::make_unique<cig::comm::Executor>(*rig.soc);
    rig.mb1 = cig::workload::mb1_workload(rig.config);
    rig.mb3 = cig::workload::mb3_workload(rig.config);
    rigs_.push_back(std::move(rig));
  }
  ops_per_board_ = gpu_fractions_.size() + cpu_fractions_.size() + 6;
}

Characterizer::Pass Characterizer::run_pass(cig::Rng& rng, SpanLog& spans,
                                            CharLayers& layers) {
  std::vector<Op> ops;
  for (std::size_t b = 0; b < rigs_.size(); ++b) {
    for (std::size_t i = 0; i < gpu_fractions_.size(); ++i) {
      ops.push_back({ops.size(), b, OpKind::Mb2Gpu, i});
    }
    for (std::size_t i = 0; i < cpu_fractions_.size(); ++i) {
      ops.push_back({ops.size(), b, OpKind::Mb2Cpu, i});
    }
    for (std::size_t m = 0; m < 3; ++m) {
      ops.push_back({ops.size(), b, OpKind::Mb1, m});
      ops.push_back({ops.size(), b, OpKind::Mb3, m});
    }
  }
  // Fisher-Yates with the seeded generator: every op starts from a reset
  // SoC, so the order changes timing only, never results.
  for (std::size_t i = ops.size(); i > 1; --i) {
    std::swap(ops[i - 1], ops[rng.below(i)]);
  }

  std::vector<BoardResults> results(rigs_.size());
  for (BoardResults& r : results) {
    r.gpu.resize(gpu_fractions_.size());
    r.cpu.resize(cpu_fractions_.size());
  }

  Pass pass;
  pass.op_us.resize(ops.size());
  const int root = spans.add("characterize.pass", now_ns(), 0);
  const cig::comm::ExecOptions exec{};
  for (const Op& op : ops) {
    pin_to_cpu(next_cpu_++);
    Rig& rig = rigs_[op.board];
    BoardResults& r = results[op.board];
    const std::int64_t start = now_ns();
    switch (op.kind) {
      case OpKind::Mb2Gpu:
        r.gpu[op.index] = cig::core::mb2_gpu_point(
            rig.config, exec, gpu_fractions_[op.index]);
        break;
      case OpKind::Mb2Cpu:
        r.cpu[op.index] = cig::core::mb2_cpu_point(
            rig.config, exec, cpu_fractions_[op.index]);
        break;
      case OpKind::Mb1:
        r.mb1[op.index] = rig.executor->run(rig.mb1, kAllModels[op.index]);
        break;
      case OpKind::Mb3:
        r.mb3[op.index] = rig.executor->run(rig.mb3, kAllModels[op.index]);
        break;
    }
    const std::int64_t end = now_ns();
    const double us = static_cast<double>(end - start) * 1e-3;
    pass.op_us[op.id] = us;
    if (op.kind == OpKind::Mb2Gpu || op.kind == OpKind::Mb2Cpu) {
      layers.sweep_point_us.push_back(us);
    } else {
      layers.executor_run_s[op.index] += us * 1e-6;
    }
    if (spans.enabled()) {
      spans.add(op_span_name(op.kind), start, end, root,
                op_label(names_[op.board], op));
    }
  }

  const std::int64_t assemble_start = now_ns();
  for (std::size_t b = 0; b < rigs_.size(); ++b) {
    pass.devices.push_back(assemble(rigs_[b].config, results[b]));
  }
  const std::int64_t pass_end = now_ns();
  spans.add("core.assemble", assemble_start, pass_end, root);
  spans.set_end(root, pass_end);
  ++layers.passes;
  return pass;
}

std::string characterization_digest(const cig::core::DeviceCharacterization& d) {
  const std::string text = d.to_json().dump();
  return hex(digest(text.data(), text.size()));
}

void report_char_layers(Report& report, const CharLayers& layers) {
  const double passes = std::max(1, layers.passes);
  report.set("core.sweep.point_us.p50", quantile(layers.sweep_point_us, 0.5),
             "us");
  report.set("core.sweep.point_us.p90", quantile(layers.sweep_point_us, 0.9),
             "us");
  report.set("core.sweep.calls",
             static_cast<double>(layers.sweep_point_us.size()), "count");
  static const char* kNames[] = {"comm.executor.run_s.sc",
                                 "comm.executor.run_s.um",
                                 "comm.executor.run_s.zc"};
  for (const auto model : kAllModels) {
    const auto i = model_index(model);
    report.set(kNames[i], layers.executor_run_s[i] / passes, "s");
  }
}

Report run_characterize(const Options& options, DigestStore& digests) {
  Report report;
  cig::Json& reference = digests.doc()["characterize"];

  if (options.record) {
    // The reference is the library's own one-call characterization.
    for (const std::string& name : kBoards) {
      cig::soc::SoC soc(cig::soc::resolve_board(name));
      cig::core::MicrobenchSuite suite(soc);
      reference[name] = cig::Json(characterization_digest(suite.characterize()));
      ++report.attempted;
    }
    digests.save();
    return report;
  }

  const int passes = std::max(
      1, static_cast<int>(std::lround(options.seconds / kSecondsPerPass)));
  cig::Rng rng(options.seed);
  SpanLog untraced(false);
  SpanLog spans(options.trace);
  CharLayers layers;
  std::vector<double> setup_s;
  std::vector<double> best_us;  // per op: its fastest run
  std::vector<double> pass_s;
  std::shared_ptr<const cig::serve::BoardEntry> tx2_entry;
  for (int p = 0; p < passes; ++p) {
    std::unique_ptr<Characterizer> rig;
    for (int rep = 0; rep < kSetupRepsPerPass; ++rep) {
      pin_to_cpu(static_cast<std::size_t>(rep));
      rig.reset();
      const std::int64_t start = now_ns();
      rig = std::make_unique<Characterizer>(kBoards);
      setup_s.push_back(seconds_between(start, now_ns()));
    }
    // A traced run leaves its first pass untraced, as the reference for
    // trace.overhead_pct.
    SpanLog& log = options.trace && (p > 0 || passes == 1) ? spans : untraced;
    const std::int64_t start = now_ns();
    Characterizer::Pass pass = rig->run_pass(rng, log, layers);
    pass_s.push_back(seconds_between(start, now_ns()));
    std::fprintf(stderr, "pass %d: %.3f s\n", p, pass_s.back());
    if (best_us.empty()) best_us = pass.op_us;
    for (std::size_t i = 0; i < best_us.size(); ++i) {
      best_us[i] = std::min(best_us[i], pass.op_us[i]);
    }
    // Correctness: each board's characterization, assembled from this
    // pass's ops, must hash to MicrobenchSuite::characterize()'s.
    const std::uint64_t board_ops = rig->ops_per_pass() / kBoards.size();
    for (std::size_t b = 0; b < kBoards.size(); ++b) {
      report.attempted += board_ops;
      if (!reference.contains(kBoards[b]) ||
          reference.at(kBoards[b]).as_string() !=
              characterization_digest(pass.devices[b])) {
        report.failed += board_ops;
      }
    }
    if (!tx2_entry) {
      tx2_entry = std::make_shared<const cig::serve::BoardEntry>(
          cig::soc::resolve_board(kBoards[0]), pass.devices[0]);
    }
  }

  if (!options.trace) {
    // Every op is deterministic and runs once per pass; a slower host period
    // only ever adds time, so an op's cost is its fastest run.
    double best_pass_s = 0;
    for (const double us : best_us) best_pass_s += us * 1e-6;
    report_end_to_end(report, quantile(setup_s, 0.5),
                      static_cast<double>(best_us.size()) / best_pass_s,
                      quantile(best_us, 0.5), quantile(best_us, 0.9));
    return report;
  }

  report_char_layers(report, layers);
  report_layer_probes(report, spans, options, *tx2_entry);
  report_serve_stream_absent(report);
  report.set("trace.overhead_pct",
             passes > 1 ? (pass_s[1] / pass_s[0] - 1.0) * 100.0 : 0.0, "%");
  layer_self_times(report, spans, kLayerSpans,
                   passes > 1 ? report.attempted - best_us.size()
                              : report.attempted);
  if (!options.spans_out.empty()) spans.write_jsonl(options.spans_out);
  return report;
}

}  // namespace perfbench
