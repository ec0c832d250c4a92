// Shared machinery of the measured and traced runs: set-up of a served
// state, closed-loop client sessions, percentiles and the result line.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "engine/durable.h"
#include "engine/engine.h"
#include "server/client.h"
#include "server/server.h"
#include "workload.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double MicrosBetween(Clock::time_point from, Clock::time_point to);

// One served state: the engine (or durable engine) behind an in-process
// Server on loopback TCP, with one connected admin Client per session.
struct Served {
  std::unique_ptr<viewauth::Engine> memory;          // read workloads
  std::unique_ptr<viewauth::DurableEngine> durable;  // mixed_write
  std::unique_ptr<viewauth::Server> server;
  std::vector<std::unique_ptr<viewauth::Client>> clients;
  std::string log_path;

  viewauth::Engine& engine() {
    return durable != nullptr ? durable->engine() : *memory;
  }
  // Says goodbye on every client and drains the server. The engine stays.
  void StopServing();
};

// Builds the workload's state from `data` (a DurableEngine logging to
// `log_path` for mixed_write, an in-memory Engine otherwise), starts the
// server, connects `sessions` clients and runs the warm-up statements.
// Engine, server and durability options stay at their defaults.
std::unique_ptr<Served> SetUp(const Dataset& data, const std::string& log_path,
                              int sessions);

// What one closed-loop session did.
struct SessionLog {
  std::vector<double> retrieve_us;
  std::vector<double> write_us;
  long long ops = 0;
  long long failed = 0;
  std::vector<Sample> samples;
  // Acknowledged inserts and grant toggles, in order.
  std::vector<Op> mutations;
  std::string first_error;
};

// Runs one thread per stream, each driving its session's client in a
// closed loop until `seconds` have passed; returns when every thread has
// joined. Every `sample_stride`-th request of a session is kept for the
// oracle, at most `sample_cap` per session (stride 0 keeps none).
// `wall_s` receives the measured wall time.
std::vector<SessionLog> RunSessions(Served& served,
                                    const std::vector<OpStream*>& streams,
                                    double seconds, int sample_stride,
                                    int sample_cap, double* wall_s);

// Linear-interpolated quantile of `values` (p in [0, 1]); 0 when empty.
double Quantile(std::vector<double> values, double p);
// The tail quantile the sample supports: 0.99, or lower so that at least
// ten samples lie beyond it.
double TailLevel(size_t samples);

// A memory figure of this process from /proc/self/status ("VmHWM",
// "VmRSS"), in MiB.
double ProcStatusMb(const std::string& field);

// The benchmark's result: human-readable metric lines while it runs,
// then one JSON object as the last line of standard output.
class Report {
 public:
  // A metric of the result object. `detail` (sample counts, bases) goes
  // to the human-readable line only.
  void Metric(const std::string& name, double value, const std::string& unit,
              const std::string& detail = "");
  // A human-readable line that is not part of the result object.
  void Note(const std::string& line);
  void Print(bool correct, long long attempted, long long failed) const;

 private:
  std::vector<std::string> names_;
  std::vector<double> values_;
  std::vector<std::string> units_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
