// Unit tests for the fedpower-lint rule engine (DESIGN.md §8): crafted
// snippets go through lint_source() and we assert rule ids, line numbers,
// waiver handling, allowlisting and the JSON output shape.
#include "fedpower_lint/lint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace fedpower::lint {
namespace {

std::vector<std::string> rules_of(const std::vector<Finding>& fs) {
  std::vector<std::string> out;
  out.reserve(fs.size());
  for (const auto& f : fs) out.push_back(f.rule);
  return out;
}

bool has_rule_at(const std::vector<Finding>& fs, const std::string& rule,
                 std::size_t line) {
  return std::any_of(fs.begin(), fs.end(), [&](const Finding& f) {
    return f.rule == rule && f.line == line;
  });
}

// ---------------------------------------------------------------------------
// L1: nondeterminism sources
// ---------------------------------------------------------------------------

TEST(LintNondet, FlagsEveryForbiddenSource) {
  const std::string src =
      "#include <cstdlib>\n"                                   // 1
      "int a() { return rand(); }\n"                           // 2
      "void b() { srand(1); }\n"                               // 3
      "int c() { std::random_device rd; return rd(); }\n"      // 4
      "long d() { return time(nullptr); }\n"                   // 5
      "auto e() { return std::chrono::steady_clock::now(); }\n"  // 6
      "const char* f() { return std::getenv(\"X\"); }\n";      // 7
  const auto fs = lint_source("src/core/x.cpp", src);
  EXPECT_TRUE(has_rule_at(fs, "L1-nondet", 2));
  EXPECT_TRUE(has_rule_at(fs, "L1-nondet", 3));
  EXPECT_TRUE(has_rule_at(fs, "L1-nondet", 4));
  EXPECT_TRUE(has_rule_at(fs, "L1-nondet", 5));
  EXPECT_TRUE(has_rule_at(fs, "L1-nondet", 6));
  EXPECT_TRUE(has_rule_at(fs, "L1-nondet", 7));
  EXPECT_EQ(fs.size(), 6u);
}

TEST(LintNondet, MemberFunctionsNamedLikeSourcesAreClean) {
  const std::string src =
      "double t(const Sample& s) { return s.time(); }\n"
      "double u(Telemetry* t) { return t->rand(); }\n"
      "int v() { return my.getenv(); }\n";
  EXPECT_TRUE(lint_source("src/core/x.cpp", src).empty());
}

TEST(LintNondet, IdentifiersContainingKeywordsAreClean) {
  const std::string src =
      "double io_timeout(double io_time) { return io_time; }\n"
      "int strand_count = 0;\n"
      "double now_seconds = 1.0;\n";
  EXPECT_TRUE(lint_source("src/fed/y.cpp", src).empty());
}

TEST(LintNondet, AllowlistedFilesAreExempt) {
  const std::string src = "int a() { return rand(); }\n";
  EXPECT_FALSE(lint_source("src/core/x.cpp", src).empty());
  EXPECT_TRUE(lint_source("src/util/rng.cpp", src).empty());
  // The RNG is the only exemption left: no transport file is exempt.
  EXPECT_EQ(Options{}.nondet_allowlist,
            std::vector<std::string>{"src/util/rng.cpp"});
  EXPECT_FALSE(lint_source("src/serve/socket_io.cpp", src).empty());
}

TEST(LintNondet, SameLineWaiverSuppresses) {
  const std::string src =
      "int a() { return rand(); }  // lint: nondet-ok(test stub)\n";
  EXPECT_TRUE(lint_source("src/core/x.cpp", src).empty());
}

TEST(LintNondet, CommentOnlyLineWaiverCoversNextLine) {
  const std::string src =
      "// lint: nondet-ok(wall-clock timing, never a seed)\n"
      "auto t = std::chrono::steady_clock::now();\n";
  EXPECT_TRUE(lint_source("bench/x.cpp", src).empty());
}

TEST(LintNondet, WaiverRequiresNonEmptyReason) {
  const std::string src = "int a() { return rand(); }  // lint: nondet-ok()\n";
  EXPECT_TRUE(has_rule_at(lint_source("src/core/x.cpp", src), "L1-nondet", 1));
}

TEST(LintNondet, SourcesInsideStringsAndCommentsAreIgnored) {
  const std::string src =
      "const char* s = \"rand() time(nullptr)\";\n"
      "// rand() in a comment\n"
      "/* srand(42) */\n"
      "const char* r = R\"(std::random_device)\";\n";
  EXPECT_TRUE(lint_source("src/core/x.cpp", src).empty());
}

// ---------------------------------------------------------------------------
// L2: unordered-container iteration in determinism-critical dirs
// ---------------------------------------------------------------------------

TEST(LintUnordered, FlagsRangeForOverMemberAndParameter) {
  const std::string src =
      "#include <unordered_map>\n"                                        // 1
      "std::unordered_map<int, double> weights_;\n"                       // 2
      "double f() {\n"                                                    // 3
      "  double s = 0;\n"                                                 // 4
      "  for (const auto& kv : weights_) s += kv.second;\n"               // 5
      "  return s;\n"                                                     // 6
      "}\n"                                                               // 7
      "double g(const std::unordered_map<int, double>& m) {\n"            // 8
      "  double s = 0;\n"                                                 // 9
      "  for (const auto& kv : m) s += kv.second;\n"                      // 10
      "  return s;\n"                                                     // 11
      "}\n";
  const auto fs = lint_source("src/fed/x.cpp", src);
  EXPECT_TRUE(has_rule_at(fs, "L2-unordered-iter", 5));
  EXPECT_TRUE(has_rule_at(fs, "L2-unordered-iter", 10));
  EXPECT_EQ(fs.size(), 2u);
}

TEST(LintUnordered, FlagsExplicitBeginIteration) {
  const std::string src =
      "std::unordered_set<int> seen_;\n"
      "int f() { return *seen_.begin(); }\n";
  EXPECT_TRUE(has_rule_at(lint_source("src/runtime/x.cpp", src),
                          "L2-unordered-iter", 2));
}

TEST(LintUnordered, LookupWithoutIterationIsClean) {
  const std::string src =
      "std::unordered_map<int, double> cache_;\n"
      "double f(int k) { return cache_.at(k); }\n"
      "bool g(int k) { return cache_.count(k) != 0; }\n";
  EXPECT_TRUE(lint_source("src/nn/x.cpp", src).empty());
}

TEST(LintUnordered, OutsideDeterminismDirsIsClean) {
  const std::string src =
      "std::unordered_map<int, double> m_;\n"
      "double f() { double s = 0; for (auto& kv : m_) s += kv.second; "
      "return s; }\n";
  EXPECT_TRUE(lint_source("src/sim/x.cpp", src).empty());
  EXPECT_TRUE(lint_source("bench/x.cpp", src).empty());
}

TEST(LintUnordered, OrderedOkWaiverSuppresses) {
  const std::string src =
      "std::unordered_map<int, double> m_;\n"
      "double f() {\n"
      "  double s = 0;\n"
      "  // lint: ordered-ok(order-insensitive count)\n"
      "  for (auto& kv : m_) s += 1.0;\n"
      "  return s;\n"
      "}\n";
  EXPECT_TRUE(lint_source("src/fed/x.cpp", src).empty());
}

TEST(LintUnordered, OrderedContainersAreClean) {
  const std::string src =
      "std::map<int, double> m_;\n"
      "double f() { double s = 0; for (auto& kv : m_) s += kv.second; "
      "return s; }\n";
  EXPECT_TRUE(lint_source("src/fed/x.cpp", src).empty());
}

// ---------------------------------------------------------------------------
// L3: FP reductions in src/fed
// ---------------------------------------------------------------------------

TEST(LintFpReduce, FlagsAccumulateAndReduceInFedOnly) {
  const std::string src =
      "#include <numeric>\n"                                         // 1
      "double f(const std::vector<double>& v) {\n"                   // 2
      "  return std::accumulate(v.begin(), v.end(), 0.0);\n"         // 3
      "}\n"                                                          // 4
      "double g(const std::vector<double>& v) {\n"                   // 5
      "  return std::reduce(v.begin(), v.end());\n"                  // 6
      "}\n";
  const auto fed = lint_source("src/fed/agg.cpp", src);
  EXPECT_TRUE(has_rule_at(fed, "L3-fp-reduce", 3));
  EXPECT_TRUE(has_rule_at(fed, "L3-fp-reduce", 6));
  EXPECT_EQ(fed.size(), 2u);
  EXPECT_TRUE(lint_source("src/nn/agg.cpp", src).empty());
  EXPECT_TRUE(lint_source("tests/fed/agg.cpp", src).empty());
}

TEST(LintFpReduce, FpreduceOkWaiverSuppresses) {
  const std::string src =
      "double f(const std::vector<double>& v) {\n"
      "  // lint: fpreduce-ok(integer counts, order-exact)\n"
      "  return std::accumulate(v.begin(), v.end(), 0.0);\n"
      "}\n";
  EXPECT_TRUE(lint_source("src/fed/agg.cpp", src).empty());
}

// ---------------------------------------------------------------------------
// L4: header hygiene
// ---------------------------------------------------------------------------

TEST(LintHeader, MissingGuardFlaggedAtFirstCodeLine) {
  const std::string src =
      "// a comment is fine\n"
      "#include <vector>\n"
      "int x;\n";
  const auto fs = lint_source("src/nn/x.hpp", src);
  EXPECT_TRUE(has_rule_at(fs, "L4-header-guard", 2));
}

TEST(LintHeader, PragmaOnceAndIfndefGuardsAccepted) {
  EXPECT_TRUE(
      lint_source("src/nn/a.hpp", "#pragma once\nint x;\n").empty());
  EXPECT_TRUE(lint_source("src/nn/b.hpp",
                          "#ifndef B_HPP\n#define B_HPP\nint x;\n#endif\n")
                  .empty());
}

TEST(LintHeader, UsingNamespaceInHeaderFlaggedNotInCpp) {
  const std::string src = "#pragma once\nusing namespace std;\n";
  EXPECT_TRUE(
      has_rule_at(lint_source("src/nn/x.hpp", src), "L4-using-namespace", 2));
  EXPECT_TRUE(lint_source("src/nn/x.cpp", "using namespace std;\n").empty());
}

TEST(LintHeader, CppFilesNeedNoGuard) {
  EXPECT_TRUE(lint_source("src/nn/x.cpp", "#include <vector>\n").empty());
}

// ---------------------------------------------------------------------------
// L5: threading rules in src/
// ---------------------------------------------------------------------------

TEST(LintThreading, FlagsDetachAndRawMutexLock) {
  const std::string src =
      "#include <thread>\n"                            // 1
      "void f() { std::thread([] {}).detach(); }\n"    // 2
      "std::mutex mutex_;\n"                           // 3
      "void g() { mutex_.lock(); mutex_.unlock(); }\n" // 4
      "void h(std::mutex* mtx) { mtx->lock(); }\n";    // 5
  const auto fs = lint_source("src/runtime/x.cpp", src);
  EXPECT_TRUE(has_rule_at(fs, "L5-thread-detach", 2));
  EXPECT_TRUE(has_rule_at(fs, "L5-raw-mutex-lock", 4));
  EXPECT_TRUE(has_rule_at(fs, "L5-raw-mutex-lock", 5));
  EXPECT_EQ(fs.size(), 4u);  // lock + unlock both flagged on line 4
}

TEST(LintThreading, GuardTypesAndUniqueLockMethodsAreClean) {
  const std::string src =
      "void f() {\n"
      "  const std::lock_guard<std::mutex> lock(mutex_);\n"
      "}\n"
      "void g() {\n"
      "  std::unique_lock<std::mutex> lock(mutex_);\n"
      "  lock.unlock();\n"  // unlocking the *guard* is fine
      "  lock.lock();\n"
      "}\n";
  EXPECT_TRUE(lint_source("src/runtime/x.cpp", src).empty());
}

TEST(LintThreading, OutsideSrcIsClean) {
  const std::string src = "void f() { std::thread([] {}).detach(); }\n";
  EXPECT_TRUE(lint_source("tests/runtime/x.cpp", src).empty());
  EXPECT_TRUE(lint_source("bench/x.cpp", src).empty());
}

// ---------------------------------------------------------------------------
// L6: ad-hoc file writes in src/
// ---------------------------------------------------------------------------

TEST(LintFsWrite, FlagsOfstreamAndFopenFamily) {
  const std::string src =
      "#include <fstream>\n"                                  // 1
      "void f(const char* p) { std::ofstream out(p); }\n"     // 2
      "void g(const char* p) { std::FILE* x = fopen(p, \"wb\"); }\n"  // 3
      "void h(const char* p) { std::freopen(p, \"w\", stdout); }\n";  // 4
  const auto fs = lint_source("src/sim/x.cpp", src);
  EXPECT_TRUE(has_rule_at(fs, "L6-fs-write", 2));
  EXPECT_TRUE(has_rule_at(fs, "L6-fs-write", 3));
  EXPECT_TRUE(has_rule_at(fs, "L6-fs-write", 4));
  EXPECT_EQ(fs.size(), 3u);
}

TEST(LintFsWrite, AllowlistedWritersAreExempt) {
  const std::string src = "void f(const char* p) { std::ofstream out(p); }\n";
  EXPECT_FALSE(lint_source("src/core/x.cpp", src).empty());
  EXPECT_TRUE(lint_source("src/ckpt/snapshot.cpp", src).empty());
  EXPECT_TRUE(lint_source("src/util/csv.hpp", "#pragma once\n" + src).empty());
  // The header allowlist entry still obeys the L4 guard rule — only L6 is
  // waived for it.
  const std::string hdr = "#pragma once\nstd::ofstream file_;\n";
  EXPECT_TRUE(lint_source("src/util/csv.hpp", hdr).empty());
}

TEST(LintFsWrite, OutsideSrcIsClean) {
  const std::string src = "void f(const char* p) { std::ofstream out(p); }\n";
  EXPECT_TRUE(lint_source("tests/sim/x.cpp", src).empty());
  EXPECT_TRUE(lint_source("tools/x.cpp", src).empty());
  EXPECT_TRUE(lint_source("bench/x.cpp", src).empty());
}

TEST(LintFsWrite, MemberFunctionsAndReadsAreClean) {
  const std::string src =
      "void f(Codec* c, const char* p) { c->fopen(p); }\n"
      "void g(const char* p) { std::ifstream in(p); }\n";
  EXPECT_TRUE(lint_source("src/sim/x.cpp", src).empty());
}

TEST(LintFsWrite, FsOkWaiverSuppresses) {
  const std::string src =
      "// lint: fs-ok(debug dump, never durable state)\n"
      "void f(const char* p) { std::ofstream out(p); }\n";
  EXPECT_TRUE(lint_source("src/sim/x.cpp", src).empty());
}

// ---------------------------------------------------------------------------
// L7: raw event-loop syscalls in src/
// ---------------------------------------------------------------------------

TEST(LintSyscall, FlagsEpollFamilyEventfdAndAccept4) {
  const std::string src =
      "#include <sys/epoll.h>\n"                                  // 1
      "int a() { return epoll_create1(0); }\n"                    // 2
      "int b() { return epoll_create(8); }\n"                     // 3
      "void c(int e, int fd, epoll_event* ev) {\n"                // 4
      "  epoll_ctl(e, 1, fd, ev);\n"                              // 5
      "  epoll_wait(e, ev, 1, -1);\n"                             // 6
      "  epoll_pwait(e, ev, 1, -1, nullptr);\n"                   // 7
      "}\n"                                                       // 8
      "int d() { return eventfd(0, 0); }\n"                       // 9
      "int e(int s) { return accept4(s, nullptr, nullptr, 0); }\n";  // 10
  const auto fs = lint_source("src/core/x.cpp", src);
  EXPECT_TRUE(has_rule_at(fs, "L7-raw-syscall", 2));
  EXPECT_TRUE(has_rule_at(fs, "L7-raw-syscall", 3));
  EXPECT_TRUE(has_rule_at(fs, "L7-raw-syscall", 5));
  EXPECT_TRUE(has_rule_at(fs, "L7-raw-syscall", 6));
  EXPECT_TRUE(has_rule_at(fs, "L7-raw-syscall", 7));
  EXPECT_TRUE(has_rule_at(fs, "L7-raw-syscall", 9));
  EXPECT_TRUE(has_rule_at(fs, "L7-raw-syscall", 10));
  EXPECT_EQ(fs.size(), 7u);
}

TEST(LintSyscall, EventLoopTranslationUnitsAreExempt) {
  const std::string src = "int a() { return epoll_create1(0); }\n";
  EXPECT_FALSE(lint_source("src/serve/server.cpp", src).empty());
  EXPECT_TRUE(lint_source("src/serve/epoll_server.cpp", src).empty());
  // The epoll front end is the only exemption left; the shared blocking
  // socket primitives are not exempt.
  EXPECT_EQ(Options{}.syscall_allowlist,
            std::vector<std::string>{"src/serve/epoll_server.cpp"});
  EXPECT_FALSE(lint_source("src/serve/socket_io.cpp", src).empty());
}

TEST(LintSyscall, OutsideSrcAndMembersAndMentionsAreClean) {
  const std::string src =
      "int a() { return epoll_create1(0); }\n"
      "void b(Loop* l) { l->epoll_wait(); }\n"
      "const char* s = \"epoll_ctl(fd)\";\n";
  EXPECT_TRUE(lint_source("tests/serve/x.cpp", src).empty());
  EXPECT_TRUE(lint_source("bench/x.cpp", src).empty());
  const auto fs = lint_source("src/serve/x.cpp", src);
  EXPECT_TRUE(has_rule_at(fs, "L7-raw-syscall", 1));
  EXPECT_EQ(fs.size(), 1u);  // member call and string literal stay clean
}

TEST(LintSyscall, SyscallOkWaiverSuppresses) {
  const std::string src =
      "// lint: syscall-ok(platform probe, no event loop)\n"
      "int a() { return eventfd(0, 0); }\n";
  EXPECT_TRUE(lint_source("src/runtime/x.cpp", src).empty());
}

TEST(LintSyscall, ServeDirIsDeterminismAndFpReduceCovered) {
  const std::string unordered =
      "std::unordered_map<int, double> m_;\n"
      "double f() { double s = 0; for (auto& kv : m_) s += kv.second; "
      "return s; }\n";
  EXPECT_TRUE(has_rule_at(lint_source("src/serve/x.cpp", unordered),
                          "L2-unordered-iter", 2));
  const std::string reduce =
      "double f(const std::vector<double>& v) {\n"
      "  return std::accumulate(v.begin(), v.end(), 0.0);\n"
      "}\n";
  EXPECT_TRUE(has_rule_at(lint_source("src/serve/x.cpp", reduce),
                          "L3-fp-reduce", 2));
}

// ---------------------------------------------------------------------------
// Output formats & ordering
// ---------------------------------------------------------------------------

TEST(LintOutput, TextFormatIsFileLineRuleMessage) {
  const auto fs =
      lint_source("src/core/x.cpp", "int a() { return rand(); }\n");
  ASSERT_EQ(fs.size(), 1u);
  const std::string text = to_text(fs);
  EXPECT_EQ(text.rfind("src/core/x.cpp:1: L1-nondet ", 0), 0u) << text;
}

TEST(LintOutput, JsonShapeAndEscaping) {
  std::vector<Finding> fs = {
      {"src/a.cpp", 3, "L1-nondet", "uses \"rand\"\\path"}};
  const std::string json = to_json(fs);
  EXPECT_EQ(json.rfind("[\n", 0), 0u);
  EXPECT_NE(json.find("\"file\": \"src/a.cpp\""), std::string::npos);
  EXPECT_NE(json.find("\"line\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"rule\": \"L1-nondet\""), std::string::npos);
  EXPECT_NE(json.find("uses \\\"rand\\\"\\\\path"), std::string::npos);
  EXPECT_EQ(json.substr(json.size() - 2), "]\n");
  EXPECT_EQ(to_json({}), "[]\n");
}

TEST(LintOutput, FindingsSortedByLineThenRule) {
  const std::string src =
      "std::unordered_map<int, double> m_;\n"
      "double f() { double s = 0; for (auto& kv : m_) s += kv.second; "
      "return s; }\n"
      "int a() { return rand(); }\n";
  const auto fs = lint_source("src/fed/x.cpp", src);
  ASSERT_EQ(fs.size(), 2u);
  EXPECT_EQ(fs[0].rule, "L2-unordered-iter");
  EXPECT_EQ(fs[1].rule, "L1-nondet");
  EXPECT_LT(fs[0].line, fs[1].line);
}

// ---------------------------------------------------------------------------
// Tokenizer hardening: raw strings and digit separators
// ---------------------------------------------------------------------------

TEST(LintScrub, RawStringContentsAreNotMatched) {
  const std::string src =
      "const char* a = R\"(rand() time(nullptr))\";\n"
      "int live() { return rand(); }\n";
  const auto fs = lint_source("src/core/x.cpp", src);
  EXPECT_FALSE(has_rule_at(fs, "L1-nondet", 1));
  EXPECT_TRUE(has_rule_at(fs, "L1-nondet", 2));
}

TEST(LintScrub, EncodingPrefixedRawStringsDoNotDesync) {
  // The '"' inside LR"(...)" must not open an ordinary string — that would
  // swallow the rest of the file and hide the rand() below.
  const std::string src =
      "const wchar_t* w = LR\"(a \" b)\";\n"
      "const char8_t* u = u8R\"(c \" d)\";\n"
      "int live() { return rand(); }\n";
  const auto fs = lint_source("src/core/x.cpp", src);
  EXPECT_TRUE(has_rule_at(fs, "L1-nondet", 3));
  EXPECT_EQ(fs.size(), 1u);
}

TEST(LintScrub, CustomDelimiterRawStringEndsAtItsDelimiter) {
  const std::string src =
      "const char* s = R\"xx(plain ) \" close)xx\";\n"
      "int live() { return rand(); }\n";
  const auto fs = lint_source("src/core/x.cpp", src);
  EXPECT_TRUE(has_rule_at(fs, "L1-nondet", 2));
  EXPECT_EQ(fs.size(), 1u);
}

TEST(LintScrub, IdentifierEndingInRIsNotARawStringPrefix) {
  // fooR"..." is an identifier next to an ordinary string; the string must
  // still be scrubbed as a string (ending at its closing quote).
  const std::string src =
      "auto v = fooR\"bar\";\n"
      "int live() { return rand(); }\n";
  const auto fs = lint_source("src/core/x.cpp", src);
  EXPECT_TRUE(has_rule_at(fs, "L1-nondet", 2));
}

TEST(LintScrub, DigitSeparatorsAreNotCharLiterals) {
  // 1'000'000 and hex 0xFF'FF must not open a char literal — that would
  // swallow code until the next apostrophe and hide real findings.
  const std::string src =
      "constexpr long big = 1'000'000;\n"
      "constexpr int mask = 0xFF'FF;\n"
      "constexpr int bits = 0b1010'1010;\n"
      "int live() { return rand(); }\n";
  const auto fs = lint_source("src/core/x.cpp", src);
  EXPECT_TRUE(has_rule_at(fs, "L1-nondet", 4));
  EXPECT_EQ(fs.size(), 1u);
}

TEST(LintScrub, CharLiteralsAfterIdentifiersStayCharLiterals) {
  // `return'a'` — the run before the quote is not a numeric literal, so
  // this is a char literal and its contents stay scrubbed.
  const std::string src =
      "char f() { return'r'; }\n"
      "int live() { return rand(); }\n";
  const auto fs = lint_source("src/core/x.cpp", src);
  EXPECT_FALSE(has_rule_at(fs, "L1-nondet", 1));
  EXPECT_TRUE(has_rule_at(fs, "L1-nondet", 2));
}

TEST(LintOutput, MultipleRulesReportTogether) {
  const std::string src =
      "using namespace std;\n"
      "int a() { return rand(); }\n";
  const auto fs = lint_source("src/nn/bad.hpp", src);
  const auto rules = rules_of(fs);
  EXPECT_NE(std::find(rules.begin(), rules.end(), "L4-header-guard"),
            rules.end());
  EXPECT_NE(std::find(rules.begin(), rules.end(), "L4-using-namespace"),
            rules.end());
  EXPECT_NE(std::find(rules.begin(), rules.end(), "L1-nondet"), rules.end());
}

}  // namespace
}  // namespace fedpower::lint
