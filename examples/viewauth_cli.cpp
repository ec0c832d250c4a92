// viewauth_cli: batch front-end over the engine.
//
// Usage:
//   viewauth_cli [--db STATE.log] [--salvage] [--deadline-ms N]
//                [--max-rows N] [SCRIPT...]
//
// Executes each SCRIPT file in order (falling back to stdin when none is
// given) and prints the statements' outputs. With --db, state persists in
// a durable statement log: rerunning the tool against the same log
// continues where the last run left off. --salvage opens the log in
// salvage recovery mode, truncating a torn or corrupt tail (e.g. after a
// crash) instead of refusing to open; anything dropped is reported on
// stderr. --deadline-ms and --max-rows bound every retrieve in the
// script: a statement that runs past the deadline or over the row budget
// aborts cleanly with DeadlineExceeded / ResourceExhausted (0 =
// unlimited, the default).
//
// Example:
//   viewauth_cli --db company.log setup.va
//   echo 'retrieve (EMPLOYEE.NAME) as Brown' | viewauth_cli --db company.log

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "engine/durable.h"
#include "engine/engine.h"
#include "parser/parser.h"

using namespace viewauth;

namespace {

int Fail(const Status& status) {
  std::cerr << "viewauth_cli: " << status << "\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string db_path;
  bool salvage = false;
  long long deadline_ms = 0;
  long long max_rows = 0;
  std::vector<std::string> scripts;
  auto numeric_flag = [&](int* i, const char* flag,
                          long long* target) -> bool {
    if (*i + 1 >= argc) {
      std::cerr << "viewauth_cli: " << flag << " requires a number\n";
      return false;
    }
    try {
      *target = std::stoll(argv[++*i]);
    } catch (...) {
      std::cerr << "viewauth_cli: " << flag << ": expected a number, got '"
                << argv[*i] << "'\n";
      return false;
    }
    return true;
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--db") {
      if (i + 1 >= argc) {
        std::cerr << "viewauth_cli: --db requires a path\n";
        return 1;
      }
      db_path = argv[++i];
    } else if (arg == "--salvage") {
      salvage = true;
    } else if (arg == "--deadline-ms") {
      if (!numeric_flag(&i, "--deadline-ms", &deadline_ms)) return 1;
    } else if (arg == "--max-rows") {
      if (!numeric_flag(&i, "--max-rows", &max_rows)) return 1;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: viewauth_cli [--db STATE.log] [--salvage] "
                   "[--deadline-ms N] [--max-rows N] [SCRIPT...]\n";
      return 0;
    } else {
      scripts.push_back(std::move(arg));
    }
  }

  // Collect input: script files in order, else stdin.
  std::string input;
  if (scripts.empty()) {
    std::stringstream buffer;
    buffer << std::cin.rdbuf();
    input = buffer.str();
  } else {
    for (const std::string& script : scripts) {
      std::ifstream in(script);
      if (!in.good()) {
        std::cerr << "viewauth_cli: cannot read '" << script << "'\n";
        return 1;
      }
      std::stringstream buffer;
      buffer << in.rdbuf();
      input += buffer.str();
      input += "\n";
    }
  }

  if (!db_path.empty()) {
    DurableOptions options;
    options.recovery =
        salvage ? RecoveryMode::kSalvage : RecoveryMode::kStrict;
    auto durable = DurableEngine::Open(db_path, options);
    if (!durable.ok()) return Fail(durable.status());
    (*durable)->engine().options().deadline_ms = deadline_ms;
    (*durable)->engine().options().max_rows = max_rows;
    if ((*durable)->recovery_report().salvaged) {
      std::cerr << "viewauth_cli: salvaged '" << db_path << "': "
                << (*durable)->recovery_report().ToString() << "\n";
    }
    // Statement-at-a-time so each output prints as it happens; the
    // parser splits the program for us.
    auto statements = ParseProgram(input);
    if (!statements.ok()) return Fail(statements.status());
    for (const Statement& stmt : *statements) {
      auto out = (*durable)->Execute(StatementToString(stmt));
      if (!out.ok()) return Fail(out.status());
      if (!out->empty()) std::cout << *out << "\n";
    }
    return 0;
  }

  Engine engine;
  engine.options().deadline_ms = deadline_ms;
  engine.options().max_rows = max_rows;
  auto out = engine.ExecuteScript(input);
  if (!out.ok()) return Fail(out.status());
  std::cout << *out;
  return 0;
}
