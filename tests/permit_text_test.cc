// Tests for the rendered permit text a decision carries: the reply's
// permit lines and the audit trail's PERMITS text must be byte-identical
// to rendering the result's permits one by one (InferredPermit::ToString,
// joined by "\n" for the reply and by "; " for the audit entry), and
// every request served by one decision must share its one text object.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "authz/authz_cache.h"
#include "common/str_util.h"
#include "engine/engine.h"
#include "engine/table_printer.h"

namespace viewauth {
namespace {

// The paper's Figure 1 database with its four views and grants.
constexpr const char* kFigure1Script = R"(
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
  view ELP (EMPLOYEE.NAME, EMPLOYEE.TITLE, PROJECT.NUMBER, PROJECT.BUDGET)
    where EMPLOYEE.NAME = ASSIGNMENT.E_NAME
    and PROJECT.NUMBER = ASSIGNMENT.P_NO
    and PROJECT.BUDGET >= 250000
  view EST (EMPLOYEE:1.NAME, EMPLOYEE:2.NAME, EMPLOYEE:1.TITLE)
    where EMPLOYEE:1.TITLE = EMPLOYEE:2.TITLE
  view PSA (PROJECT.NUMBER, PROJECT.SPONSOR, PROJECT.BUDGET)
    where PROJECT.SPONSOR = Acme
  permit SAE to Brown
  permit PSA to Brown
  permit EST to Brown
  permit ELP to Klein
  permit EST to Klein
)";

// A three-relation chain shaped like the join_cold benchmark workload,
// for one user: three B-range views on each relation and three key-range
// join views on each adjacent pair. Keys 400..599 hold rows, and each
// row's A is the next relation's KEY, so a chain of three key constants
// selects one row per relation.
std::string JoinChainScript() {
  std::ostringstream out;
  for (int r = 0; r < 3; ++r) {
    out << "relation R" << r << " (KEY int, A int, B int)\n";
    for (int k = 400; k < 600; ++k) {
      out << "insert into R" << r << " values (" << k << ", " << k + 1
          << ", " << (k * 37) % 1000 << ")\n";
    }
  }
  for (int r = 0; r < 3; ++r) {
    const std::string rel = "R" + std::to_string(r);
    for (int v = 0; v < 3; ++v) {
      const int lo = v * 330;
      out << "view G" << r << "v" << v << " (" << rel << ".KEY, " << rel
          << ".A, " << rel << ".B) where " << rel << ".B >= " << lo
          << " and " << rel << ".B < " << lo + 400 << "\n"
          << "permit G" << r << "v" << v << " to u\n";
    }
  }
  for (int r = 0; r < 2; ++r) {
    const std::string a = "R" + std::to_string(r);
    const std::string b = "R" + std::to_string(r + 1);
    for (int v = 0; v < 3; ++v) {
      const int lo = v * 1000;
      out << "view J" << r << "v" << v << " (" << a << ".KEY, " << a
          << ".B, " << b << ".KEY, " << b << ".B) where " << a << ".A = "
          << b << ".KEY and " << a << ".KEY >= " << lo << " and " << a
          << ".KEY < " << lo + 800 << "\n"
          << "permit J" << r << "v" << v << " to u\n";
    }
  }
  return out.str();
}

// The chain retrieve from R0.KEY = c0. Every c0 in [470, 590] puts its
// three constants in the same places among the view bounds, so all such
// retrieves are class siblings.
std::string JoinRetrieve(int c0) {
  return "retrieve (R0.KEY, R0.B, R1.KEY, R1.B, R2.KEY, R2.B) where "
         "R0.A = R1.KEY and R1.A = R2.KEY and R0.KEY = " +
         std::to_string(c0) + " and R1.KEY = " + std::to_string(c0 + 1) +
         " and R2.KEY = " + std::to_string(c0 + 2) + " as u";
}

// The reference rendering: each permit rendered on its own and joined.
std::string Reference(const AuthorizationResult& result,
                      const std::string& separator) {
  std::vector<std::string> rendered;
  for (const InferredPermit& permit : result.permits()) {
    rendered.push_back(permit.ToString());
  }
  return Join(rendered, separator);
}

// The reply's expected permit lines: one "permit …\n" per permit.
std::string ReferenceLines(const AuthorizationResult& result) {
  return result.permits().empty() ? std::string()
                                  : Reference(result, "\n") + "\n";
}

// What AuditLog::ToString renders for the entry numbered `sequence`, up
// to the next entry (a permit's string constant may span lines).
std::string AuditText(const Engine& engine, long long sequence) {
  const std::string text = engine.audit_log().ToString();
  const size_t begin = text.find("#" + std::to_string(sequence) + " [");
  if (begin == std::string::npos) return {};
  const size_t end = text.find("\n#", begin);
  return text.substr(begin, end == std::string::npos ? end : end + 1 - begin);
}

// Runs `retrieve` for `user` through Execute (the reply) and then
// Retrieve (the structured result, served by the same decision unless
// the retrieve has or-branches), and checks the reply and both audit
// entries byte for byte against the reference built from the result's
// permits. Returns the result.
AuthorizationResult ExpectByteIdentical(Engine& engine,
                                        const std::string& retrieve,
                                        const std::string& user) {
  const int before = engine.audit_log().size();
  Result<std::string> reply = engine.Execute(retrieve);
  Result<AuthorizationResult> result = engine.Retrieve(retrieve);
  EXPECT_TRUE(reply.ok()) << reply.status();
  EXPECT_TRUE(result.ok()) << result.status();
  if (!reply.ok() || !result.ok()) return AuthorizationResult();

  if (result->denied) {
    EXPECT_EQ(*reply,
              "permission denied: no permitted view covers this request");
  } else {
    TablePrintOptions print_options;
    print_options.caption = "result for " + user + ":";
    EXPECT_EQ(*reply, PrintRelation(result->answer, print_options) +
                          ReferenceLines(*result));
  }
  const std::string joined = Reference(*result, "; ");
  const std::vector<AuditEntry> entries = engine.audit_log().entries();
  const Relation materialized = engine.audit_log().Materialize();
  EXPECT_EQ(entries.size(), static_cast<size_t>(before + 2));
  for (int i = before; i < static_cast<int>(entries.size()); ++i) {
    const AuditEntry& entry = entries[static_cast<size_t>(i)];
    EXPECT_EQ(entry.permits(), joined);
    EXPECT_EQ(materialized.row(i).at(6), Value::String(joined));
    const std::string text = AuditText(engine, entry.sequence);
    if (joined.empty()) {
      EXPECT_EQ(text.find("  -- "), std::string::npos) << text;
    } else {
      EXPECT_TRUE(text.ends_with("  -- " + joined + "\n")) << text;
    }
  }
  // The Retrieve's entry shares its result's text.
  EXPECT_EQ(entries.back().rendered_permits,
            result->decision->rendered_permits);
  return std::move(*result);
}

class PermitTextTest : public ::testing::Test {
 protected:
  void Load(const std::string& script) {
    auto setup = engine_.ExecuteScript(script);
    ASSERT_TRUE(setup.ok()) << setup.status();
  }

  Engine engine_;
};

TEST_F(PermitTextTest, PaperExample1) {
  Load(kFigure1Script);
  const AuthorizationResult result = ExpectByteIdentical(
      engine_,
      "retrieve (PROJECT.NUMBER, PROJECT.SPONSOR) "
      "where PROJECT.BUDGET >= 250000 as Brown",
      "Brown");
  ASSERT_NE(result.decision->rendered_permits, nullptr);
  EXPECT_EQ(result.decision->rendered_permits->lines(),
            "permit (NUMBER, SPONSOR) where SPONSOR = Acme\n");
}

TEST_F(PermitTextTest, PaperExample2) {
  Load(kFigure1Script);
  const AuthorizationResult result = ExpectByteIdentical(
      engine_,
      "retrieve (EMPLOYEE.NAME, EMPLOYEE.SALARY) "
      "where EMPLOYEE.TITLE = engineer "
      "and EMPLOYEE.NAME = ASSIGNMENT.E_NAME "
      "and ASSIGNMENT.P_NO = PROJECT.NUMBER "
      "and PROJECT.BUDGET > 300000 as Klein",
      "Klein");
  ASSERT_NE(result.decision->rendered_permits, nullptr);
  EXPECT_EQ(result.decision->rendered_permits->lines(), "permit (NAME)\n");
}

// A derived decision with many permits, then a class sibling served by
// it: both share the decision's one text object, and so do their audit
// entries.
TEST_F(PermitTextTest, JoinClassSiblingSharesTheDerivedText) {
  Load(JoinChainScript());
  const AuthorizationResult derived =
      ExpectByteIdentical(engine_, JoinRetrieve(500), "u");
  EXPECT_GE(derived.permits().size(), 10u);
  EXPECT_EQ(derived.answer.size(), 1);
  const long long class_hits = engine_.authz_stats().class_hits;

  const AuthorizationResult sibling =
      ExpectByteIdentical(engine_, JoinRetrieve(520), "u");
  EXPECT_GT(engine_.authz_stats().class_hits, class_hits);
  EXPECT_EQ(sibling.decision, derived.decision);
  ASSERT_NE(sibling.decision->rendered_permits, nullptr);
  EXPECT_EQ(sibling.decision->rendered_permits.get(),
            derived.decision->rendered_permits.get());
  for (const AuditEntry& entry : engine_.audit_log().entries()) {
    EXPECT_EQ(entry.rendered_permits.get(),
              derived.decision->rendered_permits.get());
  }
}

// Two or-branches that infer the same permit: the merged decision lists
// it once, and its text renders the merged list.
TEST_F(PermitTextTest, OverlappingOrBranchesRenderTheMergedPermitsOnce) {
  Load(kFigure1Script);
  const std::string first =
      "retrieve (PROJECT.NUMBER, PROJECT.SPONSOR) "
      "where PROJECT.BUDGET >= 250000 as Brown";
  const std::string second =
      "retrieve (PROJECT.NUMBER, PROJECT.SPONSOR) "
      "where PROJECT.BUDGET > 100000 as Brown";
  auto first_alone = engine_.Retrieve(first);
  auto second_alone = engine_.Retrieve(second);
  ASSERT_TRUE(first_alone.ok() && second_alone.ok());
  ASSERT_EQ(Reference(*first_alone, "; "), Reference(*second_alone, "; "));
  ASSERT_FALSE(first_alone->permits().empty());

  const AuthorizationResult merged = ExpectByteIdentical(
      engine_,
      "retrieve (PROJECT.NUMBER, PROJECT.SPONSOR) "
      "where PROJECT.BUDGET >= 250000 or PROJECT.BUDGET > 100000 as Brown",
      "Brown");
  EXPECT_EQ(merged.permits().size(), first_alone->permits().size());
  EXPECT_EQ(Reference(merged, "; "), Reference(*first_alone, "; "));
}

TEST_F(PermitTextTest, ExtendedMasks) {
  Load(kFigure1Script);
  engine_.options().extended_masks = true;
  const AuthorizationResult result =
      ExpectByteIdentical(engine_, "retrieve (PROJECT.NUMBER) as Brown",
                          "Brown");
  ASSERT_NE(result.decision->rendered_permits, nullptr);
  EXPECT_EQ(result.decision->rendered_permits->lines(),
            "permit (NUMBER) where SPONSOR = Acme\n");
}

TEST_F(PermitTextTest, FullAccessHasNoPermitText) {
  Load(kFigure1Script);
  const AuthorizationResult result = ExpectByteIdentical(
      engine_,
      "retrieve (PROJECT.NUMBER, PROJECT.SPONSOR, PROJECT.BUDGET) "
      "where PROJECT.SPONSOR = Acme as Brown",
      "Brown");
  EXPECT_TRUE(result.full_access);
  EXPECT_EQ(result.decision->rendered_permits, nullptr);
}

TEST_F(PermitTextTest, DeniedHasNoPermitText) {
  Load(kFigure1Script);
  const AuthorizationResult result = ExpectByteIdentical(
      engine_, "retrieve (PROJECT.NUMBER) as Nobody", "Nobody");
  EXPECT_TRUE(result.denied);
  EXPECT_EQ(result.decision->rendered_permits, nullptr);
}

// A string constant may hold a newline: the audit text still joins whole
// statements, not the lines they span.
TEST_F(PermitTextTest, NewlineInAConstantStaysInsideItsStatement) {
  Load("relation S (K int key, X string)\n"
       "insert into S values (1, 'a\nb')\n"
       "insert into S values (2, c)\n"
       "view NL (S.K, S.X) where S.X = 'a\nb'\n"
       "view LOW (S.K) where S.K < 5\n"
       "permit NL to u\n"
       "permit LOW to u\n");
  const AuthorizationResult result =
      ExpectByteIdentical(engine_, "retrieve (S.K, S.X) as u", "u");
  ASSERT_GE(result.permits().size(), 2u);
  EXPECT_NE(Reference(result, "; ").find("'a\nb'"), std::string::npos);
}

// Four sessions issue class siblings served by one decision: every reply
// ends with the same permit lines, and every audit entry shares the
// decision's text.
TEST(PermitTextConcurrencyTest, ClassSiblingsShareOneTextAcrossThreads) {
  Engine engine;
  auto setup = engine.ExecuteScript(JoinChainScript());
  ASSERT_TRUE(setup.ok()) << setup.status();
  auto warm = engine.Retrieve(JoinRetrieve(500));
  ASSERT_TRUE(warm.ok()) << warm.status();
  const std::shared_ptr<const RenderedPermits> text =
      warm->decision->rendered_permits;
  ASSERT_NE(text, nullptr);
  const std::string lines = ReferenceLines(*warm);
  const std::string joined = Reference(*warm, "; ");
  ASSERT_EQ(text->lines(), lines);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 20;
  std::vector<std::vector<std::string>> replies(kThreads);
  std::vector<std::thread> sessions;
  for (int t = 0; t < kThreads; ++t) {
    sessions.emplace_back([&engine, &replies, t] {
      for (int i = 0; i < kPerThread; ++i) {
        auto reply = engine.Execute(JoinRetrieve(470 + 25 * t + i));
        replies[static_cast<size_t>(t)].push_back(
            reply.ok() ? *reply : reply.status().ToString());
      }
    });
  }
  for (std::thread& session : sessions) session.join();

  for (const std::vector<std::string>& thread_replies : replies) {
    ASSERT_EQ(thread_replies.size(), static_cast<size_t>(kPerThread));
    for (const std::string& reply : thread_replies) {
      EXPECT_TRUE(reply.ends_with(lines)) << reply;
    }
  }
  const std::vector<AuditEntry> entries = engine.audit_log().entries();
  ASSERT_EQ(entries.size(), static_cast<size_t>(1 + kThreads * kPerThread));
  for (const AuditEntry& entry : entries) {
    EXPECT_EQ(entry.rendered_permits, text);
    EXPECT_EQ(entry.permits(), joined);
  }
}

}  // namespace
}  // namespace viewauth
