#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "common/logging.h"

namespace perfbench {

using viewauth::Client;
using viewauth::DurableEngine;
using viewauth::Engine;
using viewauth::ListenSocket;
using viewauth::Server;

double MicrosBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

void Served::StopServing() {
  for (auto& client : clients) client->Goodbye();
  clients.clear();
  if (server != nullptr) server->Stop();
}

std::unique_ptr<Served> SetUp(const Dataset& data, const std::string& log_path,
                              int sessions) {
  auto served = std::make_unique<Served>();
  served->log_path = log_path;
  if (data.kind() == WorkloadKind::kMixedWrite) {
    std::filesystem::remove(log_path);
    std::filesystem::remove(log_path + ".tmp");
    auto opened = DurableEngine::Open(log_path);
    VIEWAUTH_CHECK(opened.ok()) << opened.status().ToString();
    served->durable = std::move(*opened);
  } else {
    served->memory = std::make_unique<Engine>();
  }
  Engine& engine = served->engine();
  auto catalog = engine.ExecuteScript(data.CatalogScript());
  VIEWAUTH_CHECK(catalog.ok()) << catalog.status().ToString();
  data.LoadRows(engine);
  if (served->durable != nullptr) {
    // The load went around the log: publish it (the durable engine
    // defers publication to its commit path) and write it as the log's
    // compacted prefix.
    engine.PublishStaged();
    viewauth::Status compacted = served->durable->Compact();
    VIEWAUTH_CHECK(compacted.ok()) << compacted.ToString();
    served->server = std::make_unique<Server>(served->durable.get());
  } else {
    served->server = std::make_unique<Server>(&engine);
  }
  auto listener = ListenSocket::ListenTcp("127.0.0.1", 0);
  VIEWAUTH_CHECK(listener.ok()) << listener.status().ToString();
  VIEWAUTH_CHECK(served->server->Start(std::move(*listener)).ok());
  for (int s = 0; s < sessions; ++s) {
    auto client =
        Client::ConnectTcp("127.0.0.1", served->server->port(), "admin");
    VIEWAUTH_CHECK(client.ok()) << client.status().ToString();
    served->clients.push_back(std::move(*client));
  }
  const std::vector<std::string> warmup = data.WarmupStatements();
  for (size_t i = 0; i < warmup.size(); ++i) {
    auto reply = served->clients[i % served->clients.size()]->Execute(warmup[i]);
    VIEWAUTH_CHECK(reply.ok()) << warmup[i] << ": " << reply.status().ToString();
  }
  return served;
}

namespace {

void SessionLoop(Client& client, OpStream& stream, Clock::time_point deadline,
                 int sample_stride, int sample_cap, SessionLog* log) {
  while (Clock::now() < deadline) {
    const Op op = stream.Next();
    const bool sampled = sample_stride > 0 && log->ops % sample_stride == 0 &&
                         static_cast<int>(log->samples.size()) < sample_cap;
    const auto start = Clock::now();
    auto reply = client.Execute(op.text);
    const double micros = MicrosBetween(start, Clock::now());
    ++log->ops;
    if (!reply.ok()) {
      ++log->failed;
      if (log->first_error.empty()) {
        log->first_error = op.text + ": " + reply.status().ToString();
      }
      continue;
    }
    if (op.kind == OpKind::kRetrieve) {
      log->retrieve_us.push_back(micros);
      if (sampled) log->samples.push_back({op.text, *reply, op.key});
    } else {
      log->write_us.push_back(micros);
      log->mutations.push_back(op);
    }
  }
}

}  // namespace

std::vector<SessionLog> RunSessions(Served& served,
                                    const std::vector<OpStream*>& streams,
                                    double seconds, int sample_stride,
                                    int sample_cap, double* wall_s) {
  VIEWAUTH_CHECK(streams.size() <= served.clients.size());
  std::vector<SessionLog> logs(streams.size());
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  threads.reserve(streams.size());
  for (size_t s = 0; s < streams.size(); ++s) {
    threads.emplace_back([&, s] {
      SessionLoop(*served.clients[static_cast<size_t>(streams[s]->session())],
                  *streams[s], deadline, sample_stride, sample_cap, &logs[s]);
    });
  }
  for (std::thread& t : threads) t.join();
  *wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  return logs;
}

double Quantile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double TailLevel(size_t samples) {
  if (samples == 0) return 0;
  return std::clamp(1.0 - 10.0 / static_cast<double>(samples), 0.5, 0.99);
}

double ProcStatusMb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  const std::string prefix = field + ":";
  for (std::string line; std::getline(status, line);) {
    if (line.rfind(prefix, 0) == 0) {
      return std::stod(line.substr(prefix.size())) / 1024.0;
    }
  }
  return 0;
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit, const std::string& detail) {
  names_.push_back(name);
  values_.push_back(value);
  units_.push_back(unit);
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  Note(name + " = " + buffer + " " + unit +
       (detail.empty() ? "" : "  (" + detail + ")"));
}

void Report::Note(const std::string& line) { std::cout << line << "\n"; }

void Report::Print(bool correct, long long attempted, long long failed) const {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < names_.size(); ++i) {
    if (i > 0) out << ", ";
    const double value = std::isfinite(values_[i]) ? values_[i] : 0.0;
    out << "\"" << names_[i] << "\": {\"value\": " << value << ", \"unit\": \""
        << units_[i] << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

}  // namespace perfbench
