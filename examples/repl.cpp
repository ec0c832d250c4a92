// Interactive REPL over the viewauth engine: type statements, see masked
// results. Starts with the paper's Figure 1 database loaded.
//
// Usage:   ./build/examples/repl [STATE.log]
//   With a log path the session is durable: mutations are framed,
//   checksummed and fsynced to STATE.log, and the log is opened in
//   salvage mode (a torn tail from a crash is truncated and reported,
//   not fatal). A fresh log is seeded with the paper's database.
//
//   > user Brown                        -- switch the session user
//   > retrieve (EMPLOYEE.NAME, EMPLOYEE.SALARY)
//   > permit SAE to Klein               -- administration works too
//   > dump                              -- print the persistence script
//   > compact                           -- rewrite the log (durable only)
//   > stats                             -- cache + durability statistics
//   > options                           -- show refinement switches
//   > set extended_masks on
//   > quit

#include <charconv>
#include <climits>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "common/str_util.h"
#include "engine/durable.h"
#include "engine/engine.h"

using namespace viewauth;

namespace {

void PrintHelp() {
  std::cout << "commands:\n"
               "  <statement>            relation/insert/view/permit/deny/"
               "retrieve/\n"
               "                         delete/modify/drop/member/"
               "unmember\n"
               "  analyze                lint the catalog: dead permits, "
               "shadowed\n"
               "                         denies, schema drift, coverage "
               "gaps\n"
               "  user <name>            switch session user (now used for "
               "retrieves)\n"
               "  dump                   print a script reproducing the "
               "current state\n"
               "  audit                  show the last 20 audit entries\n"
               "  options                show authorization options\n"
               "  set <option> on|off    toggle four_case, padding, "
               "self_joins,\n"
               "                         subsumption, extended_masks, "
               "cache,\n"
               "                         vectorized (off: the canonical "
               "oracle\n"
               "                         plan), analyze (warn on "
               "permit/deny)\n"
               "  set <option> <n>       governance knobs (0 = unlimited):"
               "\n"
               "                         deadline_ms, max_rows, max_bytes,\n"
               "                         max_concurrent\n"
               "  stats (or \\stats)      show cache/pipeline/durability "
               "statistics\n"
               "  stats reset            zero the statistics counters\n"
               "  compact                rewrite the statement log "
               "(durable sessions)\n"
               "  help, quit\n";
}

void PrintOptions(const AuthorizationOptions& options) {
  auto onoff = [](bool b) { return b ? "on" : "off"; };
  std::cout << "four_case=" << onoff(options.four_case)
            << " padding=" << onoff(options.padding)
            << " self_joins=" << onoff(options.self_joins)
            << " subsumption=" << onoff(options.subsumption)
            << " extended_masks=" << onoff(options.extended_masks)
            << " cache=" << onoff(options.enable_authz_cache)
            << " vectorized=" << onoff(options.use_optimized_data_plan)
            << " analyze=" << onoff(options.analyze_grants)
            << " audit=" << onoff(options.audit_grants)
            << "\n"
            << "deadline_ms=" << options.deadline_ms
            << " max_rows=" << options.max_rows
            << " max_bytes=" << options.max_bytes
            << " max_concurrent=" << options.max_concurrent
            << " (0 = unlimited)\n";
}

// `set <name> on|off` switches.
const std::map<std::string, bool AuthorizationOptions::*> kSwitches = {
    {"four_case", &AuthorizationOptions::four_case},
    {"padding", &AuthorizationOptions::padding},
    {"self_joins", &AuthorizationOptions::self_joins},
    {"subsumption", &AuthorizationOptions::subsumption},
    {"extended_masks", &AuthorizationOptions::extended_masks},
    {"cache", &AuthorizationOptions::enable_authz_cache},
    {"vectorized", &AuthorizationOptions::use_optimized_data_plan},
    {"analyze", &AuthorizationOptions::analyze_grants},
    {"audit", &AuthorizationOptions::audit_grants},
};

// `set <name> <number>` governance knobs (0 = unlimited); max_concurrent,
// an int, is handled beside them.
const std::map<std::string, long long AuthorizationOptions::*> kKnobs = {
    {"deadline_ms", &AuthorizationOptions::deadline_ms},
    {"max_rows", &AuthorizationOptions::max_rows},
    {"max_bytes", &AuthorizationOptions::max_bytes},
};

// All of `text` as a decimal integer, or nullopt.
std::optional<long long> ParseInteger(const std::string& text) {
  long long value = 0;
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

// Applies `set <name> <value>`. Input the option cannot take is rejected
// with a message and leaves the option unchanged.
void SetOption(AuthorizationOptions& o, const std::string& name,
               const std::string& value) {
  if (auto it = kSwitches.find(name); it != kSwitches.end()) {
    if (value != "on" && value != "off") {
      std::cout << "set " << name << ": expected on|off, got '" << value
                << "'\n";
      return;
    }
    o.*(it->second) = value == "on";
  } else if (kKnobs.contains(name) || name == "max_concurrent") {
    const std::optional<long long> number = ParseInteger(value);
    if (!number.has_value() || *number < 0 ||
        (name == "max_concurrent" && *number > INT_MAX)) {
      std::cout << "set " << name << ": expected a non-negative number, "
                << "got '" << value << "'\n";
      return;
    }
    if (name == "max_concurrent") {
      o.max_concurrent = static_cast<int>(*number);
    } else {
      o.*(kKnobs.at(name)) = *number;
    }
  } else {
    std::cout << "unknown option '" << name << "'\n";
    return;
  }
  PrintOptions(o);
}

constexpr const char* kPaperSetup = R"(
    relation EMPLOYEE (NAME string key, TITLE string, SALARY int)
    relation PROJECT (NUMBER string key, SPONSOR string, BUDGET int)
    relation ASSIGNMENT (E_NAME string key, P_NO string key)
    insert into EMPLOYEE values (Jones, manager, 26000)
    insert into EMPLOYEE values (Smith, technician, 22000)
    insert into EMPLOYEE values (Brown, engineer, 32000)
    insert into PROJECT values (bq-45, Acme, 300000)
    insert into PROJECT values (sv-72, Apex, 450000)
    insert into PROJECT values (vg-13, Summit, 150000)
    insert into ASSIGNMENT values (Jones, bq-45)
    insert into ASSIGNMENT values (Smith, bq-45)
    insert into ASSIGNMENT values (Jones, sv-72)
    insert into ASSIGNMENT values (Brown, sv-72)
    insert into ASSIGNMENT values (Smith, vg-13)
    insert into ASSIGNMENT values (Brown, vg-13)
    view SAE (EMPLOYEE.NAME, EMPLOYEE.SALARY)
    view PSA (PROJECT.NUMBER, PROJECT.SPONSOR, PROJECT.BUDGET)
      where PROJECT.SPONSOR = Acme
    view ELP (EMPLOYEE.NAME, EMPLOYEE.TITLE, PROJECT.NUMBER, PROJECT.BUDGET)
      where EMPLOYEE.NAME = ASSIGNMENT.E_NAME
      and PROJECT.NUMBER = ASSIGNMENT.P_NO
      and PROJECT.BUDGET >= 250000
    view EST (EMPLOYEE:1.NAME, EMPLOYEE:2.NAME, EMPLOYEE:1.TITLE)
      where EMPLOYEE:1.TITLE = EMPLOYEE:2.TITLE
    permit SAE to Brown
    permit PSA to Brown
    permit EST to Brown
    permit ELP to Klein
    permit EST to Klein
  )";

}  // namespace

int main(int argc, char** argv) {
  if (argc > 2 || (argc == 2 && (std::string(argv[1]) == "--help" ||
                                 std::string(argv[1]) == "-h"))) {
    std::cout << "usage: repl [STATE.log]\n";
    return argc > 2 ? 1 : 0;
  }

  // With a log path the session is durable: every mutation is framed,
  // checksummed and fsynced before it is acknowledged. Salvage mode so a
  // torn tail from a crash truncates (with a report) rather than refusing
  // to start.
  std::unique_ptr<DurableEngine> durable;
  Engine fallback;
  if (argc == 2) {
    DurableOptions options;
    options.recovery = RecoveryMode::kSalvage;
    auto opened = DurableEngine::Open(argv[1], options);
    if (!opened.ok()) {
      std::cerr << "repl: " << opened.status() << "\n";
      return 1;
    }
    durable = std::move(*opened);
    const RecoveryReport& report = durable->recovery_report();
    if (report.salvaged) {
      std::cerr << "repl: salvaged '" << argv[1]
                << "': " << report.ToString() << "\n";
    }
    bool seeded = false;
    if (report.records_replayed == 0 &&
        durable->engine().db().schema().relation_names().empty()) {
      auto result = durable->ExecuteScript(kPaperSetup);
      if (!result.ok()) {
        std::cerr << "repl: seeding paper database: " << result.status()
                  << "\n";
        return 1;
      }
      seeded = true;
    }
    std::cout << "viewauth repl — durable log '" << argv[1] << "' ("
              << LogFormatToString(report.format) << ", "
              << report.records_replayed << " records replayed"
              << (seeded ? ", seeded with the paper's database" : "")
              << ").\nType 'help' for commands.\n";
  } else {
    auto setup = fallback.ExecuteScript(kPaperSetup);
    if (!setup.ok()) {
      std::cerr << setup.status() << "\n";
      return 1;
    }
    std::cout << "viewauth repl — the paper's database is loaded "
                 "(users: Brown, Klein).\nType 'help' for commands.\n";
  }
  // Re-fetch on every use: DurableEngine replaces its Engine during a
  // fail-stop rollback, so a cached reference would dangle exactly when
  // degraded mode is supposed to keep retrieves working.
  auto engine = [&]() -> Engine& {
    return durable ? durable->engine() : fallback;
  };
  engine().SetSessionUser("Brown");

  std::string line;
  std::cout << engine().session_user() << "> " << std::flush;
  while (std::getline(std::cin, line)) {
    std::string_view trimmed = StripWhitespace(line);
    if (trimmed.empty()) {
      std::cout << engine().session_user() << "> " << std::flush;
      continue;
    }
    if (trimmed == "quit" || trimmed == "exit") break;
    if (trimmed == "help") {
      PrintHelp();
    } else if (trimmed == "options") {
      PrintOptions(engine().options());
    } else if (trimmed == "dump") {
      auto dump = engine().DumpScript();
      std::cout << (dump.ok() ? *dump : dump.status().ToString()) << "\n";
    } else if (trimmed == "audit") {
      std::cout << engine().audit_log().ToString(20);
    } else if (trimmed == "stats" || trimmed == "\\stats") {
      std::cout << engine().authz_stats().ToString();
      if (durable) std::cout << durable->stats().ToString();
    } else if (trimmed == "compact") {
      if (!durable) {
        std::cout << "compact: no durable log (start with: repl STATE.log)\n";
      } else {
        Status compacted = durable->Compact();
        if (compacted.ok()) {
          std::cout << "log compacted (" << durable->stats().log_bytes
                    << " bytes)\n";
        } else {
          std::cout << compacted << "\n";
        }
      }
    } else if (trimmed == "stats reset") {
      engine().ResetAuthzStats();
      std::cout << "statistics reset\n";
    } else if (StartsWith(trimmed, "explain ")) {
      auto trace = engine().ExplainRetrieve(std::string(trimmed.substr(8)));
      std::cout << (trace.ok() ? *trace : trace.status().ToString()) << "\n";
    } else if (StartsWith(trimmed, "user ")) {
      engine().SetSessionUser(
          std::string(StripWhitespace(trimmed.substr(5))));
    } else if (StartsWith(trimmed, "set ")) {
      std::vector<std::string> parts =
          Split(std::string(trimmed.substr(4)), ' ');
      if (parts.size() == 2) {
        SetOption(engine().options(), parts[0], parts[1]);
      } else {
        std::cout << "usage: set <option> on|off  (or: set <knob> <number>)\n";
      }
    } else {
      auto out = durable ? durable->Execute(line) : engine().Execute(line);
      if (out.ok()) {
        if (!out->empty()) std::cout << *out << "\n";
      } else {
        std::cout << out.status() << "\n";
      }
    }
    std::cout << engine().session_user() << "> " << std::flush;
  }
  return 0;
}
