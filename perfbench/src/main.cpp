// Benchmark driver: runs one workload and prints one JSON result line.
//
//   cig_perfbench --workload characterize|serve_read|serve_churn
//                 --seed N --seconds S --trace 0|1
//                 [--digests perfbench/digests.json] [--spans-out F]
//                 [--record]
//
// --record rewrites the workload's reference digests for this size instead
// of checking them (see perfbench/README.md).
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "bench.h"

namespace {

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "cig_perfbench: " << problem << "\n"
            << "usage: cig_perfbench --workload W --seed N --seconds S "
               "--trace 0|1 [--digests F] [--spans-out F] [--record]\n";
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      options.seconds = std::stoi(value());
    } else if (arg == "--trace") {
      options.trace = value() == "1";
    } else if (arg == "--digests") {
      options.digests = value();
    } else if (arg == "--spans-out") {
      options.spans_out = value();
    } else if (arg == "--record") {
      options.record = true;
    } else {
      usage("unknown argument " + arg);
    }
  }
  if (options.seconds < 1) usage("--seconds must be positive");
  if (options.workload != "characterize" && options.workload != "serve_read" &&
      options.workload != "serve_churn") {
    usage("unknown workload '" + options.workload + "'");
  }
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const perfbench::Options options = parse(argc, argv);
    perfbench::DigestStore digests(options.digests);
    const perfbench::Report report =
        options.workload == "characterize"
            ? perfbench::run_characterize(options, digests)
            : perfbench::run_serve(options, digests);
    std::cout << report.to_json().dump() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "cig_perfbench: " << e.what() << "\n";
    return 1;
  }
}
