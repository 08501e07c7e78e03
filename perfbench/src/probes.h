// Layer probes of traced runs: each wraps calls from the benchmark into one
// module's public API on the workload's generated inputs and times them.
#pragma once

#include <string>
#include <vector>

#include "bench.h"
#include "serve/tenant.h"

namespace perfbench {

// Root span names whose self time traced runs report per op.
extern const std::vector<std::string> kLayerSpans;

// mem, coherence and the serve tenant API (parse, ingest, recommend,
// checkpoint, restore). `board` is the tx2 board entry the tenant probes
// run against.
void report_layer_probes(Report& report, SpanLog& spans,
                         const Options& options,
                         const cig::serve::BoardEntry& board);

// The serve-stream metrics for a workload without a request stream: the
// layers are not exercised, so each reads 0.
void report_serve_stream_absent(Report& report);

}  // namespace perfbench
