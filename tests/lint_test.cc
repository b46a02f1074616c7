// mdmatch_lint: the seeded-violation fixtures under tests/lint_fixtures/
// must each trip their check, the clean fixture and the real tree must
// not. Fixtures are linted under pretend src/ paths (LintFile takes path
// and content separately) so the path-scoped rules fire.

#include "linter.h"

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace mdmatch::lint {
namespace {

std::string ReadFile(const std::string& relative) {
  const std::string path = std::string(MDMATCH_SOURCE_DIR) + "/" + relative;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

std::vector<Finding> LintFixture(const std::string& name,
                                 const std::string& pretend_path) {
  return LintFile(pretend_path, ReadFile("tests/lint_fixtures/" + name));
}

std::set<std::string> Checks(const std::vector<Finding>& findings) {
  std::set<std::string> checks;
  for (const Finding& f : findings) checks.insert(f.check);
  return checks;
}

TEST(LintStrip, CommentsStringsAndRawStringsBlankOut) {
  const std::string code =
      "int a = 1; // new delete .lock()\n"
      "const char* s = \"const_cast<int*>\";\n"
      "/* std::mutex */ int b = 2;\n"
      "const char* r = R\"x(naked new)x\";\n";
  const std::string stripped = StripCommentsAndStrings(code);
  EXPECT_EQ(stripped.find("new"), std::string::npos);
  EXPECT_EQ(stripped.find("const_cast"), std::string::npos);
  EXPECT_EQ(stripped.find("std::mutex"), std::string::npos);
  EXPECT_NE(stripped.find("int a = 1;"), std::string::npos);
  EXPECT_NE(stripped.find("int b = 2;"), std::string::npos);
  // Line structure survives, so findings keep their line numbers.
  EXPECT_EQ(std::count(stripped.begin(), stripped.end(), '\n'),
            std::count(code.begin(), code.end(), '\n'));
}

TEST(LintLayers, RanksFollowTheDag) {
  EXPECT_EQ(LayerRank("src/util/status.h"), 0);
  EXPECT_LT(LayerRank("src/schema/tuple.h"), LayerRank("src/sim/metric.h"));
  EXPECT_LT(LayerRank("src/match/blocking.cc"),
            LayerRank("src/candidate/snapshot.cc"));
  EXPECT_LT(LayerRank("src/candidate/catalog.cc"),
            LayerRank("src/api/session.cc"));
  EXPECT_LT(LayerRank("src/api/session.cc"),
            LayerRank("src/stream/ingest_driver.cc"));
  EXPECT_EQ(LayerRank("tools/mdmatch_tool.cc"), -1);
  EXPECT_EQ(LayerRank("bench/bench_pair_throughput.cc"), -1);
}

TEST(LintFixtures, FrozenMutation) {
  const auto findings =
      LintFixture("frozen_mutation.cc", "src/candidate/snapshot_bad.cc");
  EXPECT_EQ(Checks(findings),
            (std::set<std::string>{"frozen-mutation"}));
  // The three mutators and the two mutable fields are distinct findings.
  EXPECT_EQ(findings.size(), 5u)
      << "BumpVersion, Clear, scratch_, cached_pairs, Compact";
}

TEST(LintFixtures, FrozenMutationPersistentTrieNodeIsPathScoped) {
  // The persistent trie's Node is frozen only under its own path: the
  // epoch-transience contract says published nodes never mutate.
  const std::string node =
      "struct Node {\n"
      "  mutable int refs = 0;\n"
      "};\n";
  EXPECT_EQ(LintFile("src/util/persistent_trie.h", node).size(), 1u);
  // An unrelated Node type elsewhere is not in scope.
  EXPECT_TRUE(LintFile("src/api/other.h", node).empty());
}

TEST(LintFixtures, RawLock) {
  const auto findings = LintFixture("raw_lock.cc", "src/stream/bad.cc");
  EXPECT_EQ(Checks(findings), (std::set<std::string>{"raw-lock"}));
  // std::mutex decl + .lock() + .unlock().
  EXPECT_EQ(findings.size(), 3u);
}

TEST(LintFixtures, LayeringBackedge) {
  const auto findings =
      LintFixture("layering_backedge.cc", "src/match/bad.cc");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "layering");
  EXPECT_NE(findings[0].message.find("candidate"), std::string::npos);

  // A sanctioned back-edge carries an allow marker: the same content with
  // the marker above the include is clean.
  std::string marked = ReadFile("tests/lint_fixtures/layering_backedge.cc");
  const size_t include = marked.find("#include \"candidate/windowing.h\"");
  ASSERT_NE(include, std::string::npos);
  marked.insert(include,
                "// mdmatch-lint: allow(layering) the sample windows the "
                "instance\n");
  EXPECT_TRUE(LintFile("src/match/bad.cc", marked).empty());
  // And outside src/ the layering check does not apply at all.
  EXPECT_TRUE(LintFixture("layering_backedge.cc", "tools/bad.cc").empty());
}

TEST(LintFixtures, NakedNew) {
  const auto findings = LintFixture("naked_new.cc", "src/util/bad.cc");
  EXPECT_EQ(Checks(findings), (std::set<std::string>{"naked-new"}));
  EXPECT_EQ(findings.size(), 2u) << "one new, one delete";
  // Scope: the check covers src/ only.
  EXPECT_TRUE(LintFixture("naked_new.cc", "bench/bad.cc").empty());
}

TEST(LintFixtures, TsaEscapeNeedsJustification) {
  const auto findings = LintFixture("tsa_escape.cc", "src/stream/bad.cc");
  EXPECT_EQ(Checks(findings), (std::set<std::string>{"tsa-escape"}));
  EXPECT_EQ(findings.size(), 2u) << "declaration and definition";

  // The same escape with a justification comment is accepted.
  const std::string justified =
      "#include \"util/thread_annotations.h\"\n"
      "// Benign: counter is test-only and single-threaded here.\n"
      "void Bump() NO_THREAD_SAFETY_ANALYSIS;\n";
  EXPECT_TRUE(LintFile("src/stream/ok.cc", justified).empty());
}

TEST(LintFixtures, HotLoopAlloc) {
  const auto findings =
      LintFixture("hot_loop_alloc.cc", "src/match/bad.cc");
  EXPECT_EQ(Checks(findings), (std::set<std::string>{"hot-loop-alloc"}));
  EXPECT_EQ(findings.size(), 3u) << "ids, key, tail";
  // Same rules in the sim layer; everywhere else allocation is free.
  EXPECT_EQ(LintFixture("hot_loop_alloc.cc", "src/sim/bad.cc").size(), 3u);
  EXPECT_TRUE(LintFixture("hot_loop_alloc.cc", "src/api/bad.cc").empty());
  EXPECT_TRUE(LintFixture("hot_loop_alloc.cc", "bench/bad.cc").empty());
}

TEST(LintFixtures, HotLoopAllocSpellings) {
  // Outside any loop: clean even in scope.
  EXPECT_TRUE(LintFile("src/match/x.cc",
                       "void F() { std::vector<int> v; }\n")
                  .empty());
  // Inside a loop: flagged, including nested-template spellings.
  EXPECT_EQ(LintFile("src/match/x.cc",
                     "void F() {\n"
                     "  for (int i = 0; i < 3; ++i) {\n"
                     "    std::vector<std::pair<int, int>> v;\n"
                     "  }\n"
                     "}\n")
                .size(),
            1u);
  // References and statics in a loop don't allocate per iteration.
  EXPECT_TRUE(LintFile("src/match/x.cc",
                       "void F(std::vector<int>& in) {\n"
                       "  for (int i = 0; i < 3; ++i) {\n"
                       "    const std::vector<int>& v = in;\n"
                       "    static std::string cache;\n"
                       "    (void)v; (void)cache;\n"
                       "  }\n"
                       "}\n")
                  .empty());
}

TEST(LintFixtures, CleanFileHasNoFindings) {
  const auto findings = LintFixture("clean.cc", "src/stream/clean.cc");
  EXPECT_TRUE(findings.empty()) << findings.size() << " findings, first: "
                                << (findings.empty()
                                        ? ""
                                        : findings[0].check + " " +
                                              findings[0].message);
}

TEST(LintAllowlist, MarkerCoversTwoFollowingLines) {
  const std::string marker_above =
      "// mdmatch-lint: allow(naked-new) split declaration\n"
      "int* p =\n"
      "    new int(1);\n";
  EXPECT_TRUE(LintFile("src/util/x.cc", marker_above).empty());

  const std::string marker_too_far =
      "// mdmatch-lint: allow(naked-new) too far away\n"
      "int a;\n"
      "int b;\n"
      "int* p = new int(1);\n";
  EXPECT_EQ(LintFile("src/util/x.cc", marker_too_far).size(), 1u);

  const std::string wrong_check =
      "// mdmatch-lint: allow(raw-lock) wrong check name\n"
      "int* p = new int(1);\n";
  EXPECT_EQ(LintFile("src/util/x.cc", wrong_check).size(), 1u);
}

// The real tree's most concurrency-dense files stay clean — the same
// invariant the mdmatch_lint_tree ctest enforces tree-wide, kept here
// at unit granularity for a sharper failure message.
TEST(LintTree, CoreConcurrentFilesAreClean) {
  for (const std::string& file :
       {std::string("src/api/session.h"), std::string("src/api/session.cc"),
        std::string("src/stream/ingest_driver.h"),
        std::string("src/stream/ingest_driver.cc"),
        std::string("src/candidate/catalog.cc"),
        std::string("src/util/thread_annotations.h")}) {
    const auto findings = LintFile(file, ReadFile(file));
    EXPECT_TRUE(findings.empty())
        << file << ": " << findings.size() << " findings, first: "
        << (findings.empty() ? ""
                             : findings[0].check + " " + findings[0].message);
  }
}

}  // namespace
}  // namespace mdmatch::lint
