// The characterize workload's unit of work: one pass of the cold device
// characterization (MB1, MB2 sweep points, MB3) over a set of boards, run
// op by op so every simulated experiment is timed on its own.
#pragma once

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "comm/executor.h"
#include "core/microbench.h"
#include "soc/soc.h"
#include "support/rng.h"
#include "workload/task.h"

namespace perfbench {

// Per-layer samples gathered while passes run (traced runs report them).
struct CharLayers {
  std::vector<double> sweep_point_us;         // every MB2 point op
  std::array<double, 3> executor_run_s{};     // MB1 + MB3 runs, per model
  int passes = 0;
};

class Characterizer {
 public:
  // Set-up: resolves the boards and builds each board's SoC, executor and
  // MB1/MB3 workloads.
  explicit Characterizer(const std::vector<std::string>& boards);

  std::size_t ops_per_pass() const { return ops_per_board_ * rigs_.size(); }

  struct Pass {
    std::vector<double> op_us;  // by op id (board-major, not execution order)
    std::vector<cig::core::DeviceCharacterization> devices;  // one per board
  };
  // Runs every op once, in an order shuffled by `rng`, and assembles each
  // board's characterization from the op results. With a span log, each op
  // is a child span of one "characterize.pass" root.
  // Each op runs on the next CPU (see pin_to_cpu).
  Pass run_pass(cig::Rng& rng, SpanLog& spans, CharLayers& layers);

 private:
  struct Rig {
    cig::soc::BoardConfig config;
    std::unique_ptr<cig::soc::SoC> soc;
    std::unique_ptr<cig::comm::Executor> executor;
    cig::workload::Workload mb1;
    cig::workload::Workload mb3;
  };

  std::vector<std::string> names_;
  std::vector<Rig> rigs_;
  std::vector<double> gpu_fractions_;
  std::vector<double> cpu_fractions_;
  std::size_t ops_per_board_ = 0;
  std::size_t next_cpu_ = 0;  // ops rotate over the CPUs (see pin_to_cpu)
};

// Canonical form the correctness check compares: the characterization JSON
// digest, as recorded from MicrobenchSuite::characterize().
std::string characterization_digest(const cig::core::DeviceCharacterization& d);

// The six cold-characterization layer metrics (core.sweep.*, comm.executor.*).
void report_char_layers(Report& report, const CharLayers& layers);

}  // namespace perfbench
