// The traced run (--trace 1): the per-layer breakdown of one workload.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>

#include "workload.h"

namespace perfbench {

// Sets the workload up once from `seed`, then runs three phases:
//   A. the workload's own sessions, untraced, for the counters and
//      ratios (cache hit ratios, commit batching, invalidation, health);
//   B. one session, untraced, for the tracing-overhead baseline;
//   C. one session whose every request is traced: spans around
//      Client::Execute, Engine::Execute and the decomposed layer calls,
//      each made on the same engine state with the same cache outcome
//      as the real request.
// Prints every per-layer metric and writes the spans to
// `scratch`/spans.jsonl. Returns the process exit code.
int RunTraced(const WorkloadSpec& spec, uint64_t seed, int seconds,
              const std::string& scratch);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
