// Tests for plan serialization (api/plan_io): a compiled MatchPlan saved
// and reloaded must execute identically — with no re-deduction and no EM
// retraining on load.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/executor.h"
#include "api/plan.h"
#include "api/plan_io.h"
#include "core/find_rcks.h"
#include "datagen/credit_billing.h"

namespace mdmatch::api {
namespace {

std::vector<std::pair<uint32_t, uint32_t>> SortedPairs(
    const match::PairSet& set) {
  auto pairs = set.pairs();
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

class PlanIoTest : public testing::Test {
 protected:
  void SetUp() override {
    datagen::CreditBillingOptions gen;
    gen.num_base = 300;
    gen.seed = 77;
    data_ = datagen::GenerateCreditBilling(gen, &ops_);
  }

  Result<PlanPtr> BuildPlan(PlanOptions options = {}) {
    return PlanBuilder(data_.pair, data_.target, &ops_)
        .WithSigma(data_.mds)
        .WithOptions(options)
        .WithTrainingInstance(&data_.instance)
        .Build();
  }

  sim::SimOpRegistry ops_;
  datagen::CreditBillingData data_;
};

TEST_F(PlanIoTest, RuleBasedPlanRoundTrips) {
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok()) << plan.status();

  std::string text = SerializePlan(**plan);
  ASSERT_FALSE(text.empty());

  const size_t deductions = FindRcksInvocationCount();
  auto loaded = DeserializePlan(text, data_.pair, data_.target, &ops_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(FindRcksInvocationCount(), deductions)
      << "loading a plan must not re-deduce";
  EXPECT_FALSE((*loaded)->compile_stats().deduced);

  // Structure survives.
  ASSERT_EQ((*loaded)->rcks().size(), (*plan)->rcks().size());
  for (size_t i = 0; i < (*plan)->rcks().size(); ++i) {
    EXPECT_TRUE((*loaded)->rcks()[i].SameElements((*plan)->rcks()[i]));
  }
  ASSERT_EQ((*loaded)->rules().size(), (*plan)->rules().size());
  ASSERT_EQ((*loaded)->sort_keys().size(), (*plan)->sort_keys().size());
  EXPECT_EQ((*loaded)->sigma().size(), (*plan)->sigma().size());
  EXPECT_EQ((*loaded)->options().window_size, (*plan)->options().window_size);

  // Behavior survives: identical matches on the same batch.
  auto original_run = Executor(*plan).Run(data_.instance);
  auto loaded_run = Executor(*loaded).Run(data_.instance);
  ASSERT_TRUE(original_run.ok() && loaded_run.ok());
  EXPECT_GT(original_run->matches.size(), 0u);
  EXPECT_EQ(SortedPairs(original_run->matches),
            SortedPairs(loaded_run->matches));
}

TEST_F(PlanIoTest, FellegiSunterPlanRoundTripsWithoutRetraining) {
  PlanOptions options;
  options.matcher = PlanOptions::Matcher::kFellegiSunter;
  auto plan = BuildPlan(options);
  ASSERT_TRUE(plan.ok()) << plan.status();

  std::string text = SerializePlan(**plan);
  auto loaded = DeserializePlan(text, data_.pair, data_.target, &ops_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  // The trained model ships inside the file — parameters survive exactly
  // (1e-12 to allow decimal round-tripping at 17 significant digits).
  ASSERT_NE((*loaded)->fs(), nullptr);
  const auto& original_model = (*plan)->fs()->model();
  const auto& loaded_model = (*loaded)->fs()->model();
  ASSERT_EQ(loaded_model.m.size(), original_model.m.size());
  for (size_t i = 0; i < original_model.m.size(); ++i) {
    EXPECT_NEAR(loaded_model.m[i], original_model.m[i], 1e-12);
    EXPECT_NEAR(loaded_model.u[i], original_model.u[i], 1e-12);
  }
  EXPECT_NEAR(loaded_model.p, original_model.p, 1e-12);

  auto original_run = Executor(*plan).Run(data_.instance);
  auto loaded_run = Executor(*loaded).Run(data_.instance);
  ASSERT_TRUE(original_run.ok() && loaded_run.ok());
  EXPECT_EQ(SortedPairs(original_run->matches),
            SortedPairs(loaded_run->matches));
}

TEST_F(PlanIoTest, BlockingPlanRoundTrips) {
  PlanOptions options;
  options.candidates = PlanOptions::Candidates::kBlocking;
  auto plan = BuildPlan(options);
  ASSERT_TRUE(plan.ok()) << plan.status();

  auto loaded =
      DeserializePlan(SerializePlan(**plan), data_.pair, data_.target, &ops_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ((*loaded)->block_key().elements().size(),
            (*plan)->block_key().elements().size());

  auto original_run = Executor(*plan).Run(data_.instance);
  auto loaded_run = Executor(*loaded).Run(data_.instance);
  ASSERT_TRUE(original_run.ok() && loaded_run.ok());
  EXPECT_EQ(SortedPairs(original_run->matches),
            SortedPairs(loaded_run->matches));
}

TEST_F(PlanIoTest, SaveAndLoadFile) {
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok()) << plan.status();

  std::string path = testing::TempDir() + "/mdmatch_plan_io_test.mdp";
  ASSERT_TRUE(SavePlanToFile(path, **plan).ok());
  auto loaded = LoadPlanFromFile(path, data_.pair, data_.target, &ops_);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ((*loaded)->rcks().size(), (*plan)->rcks().size());
}

TEST_F(PlanIoTest, LoadIntoFreshRegistryRegistersOperators) {
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok()) << plan.status();

  // A bare registry holds only "="; loading must re-register dl@0.80 etc.
  sim::SimOpRegistry fresh;
  auto loaded = DeserializePlan(SerializePlan(**plan), data_.pair,
                                data_.target, &fresh);
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  auto run = Executor(*loaded).Run(data_.instance);
  ASSERT_TRUE(run.ok()) << run.status();
  auto baseline = Executor(*plan).Run(data_.instance);
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(SortedPairs(run->matches), SortedPairs(baseline->matches));
}

TEST_F(PlanIoTest, SerializedPlansCarryVersionAndChecksum) {
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok()) << plan.status();
  std::string text = SerializePlan(**plan);
  EXPECT_EQ(text.rfind("mdmatch-plan v2\n", 0), 0u)
      << "first line must carry the format version";
  EXPECT_NE(text.find("\nchecksum "), std::string::npos);
}

TEST_F(PlanIoTest, RejectsCorruptContent) {
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok()) << plan.status();
  std::string text = SerializePlan(**plan);

  // Flip one digit inside a content line (window_size) — parseable, but
  // no longer the plan the checksum was computed over.
  size_t pos = text.find("window_size ");
  ASSERT_NE(pos, std::string::npos);
  pos += std::string("window_size ").size();
  text[pos] = text[pos] == '9' ? '8' : '9';

  auto loaded = DeserializePlan(text, data_.pair, data_.target, &ops_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  EXPECT_NE(loaded.status().message().find("checksum mismatch"),
            std::string::npos)
      << loaded.status();
}

TEST_F(PlanIoTest, RejectsTruncatedV2File) {
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok()) << plan.status();
  std::string text = SerializePlan(**plan);
  // Cut before the checksum line: a v2 file without one is truncated.
  text.resize(text.find("\nchecksum "));
  text += "\nend\n";
  auto loaded = DeserializePlan(text, data_.pair, data_.target, &ops_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("checksum"), std::string::npos);
}

TEST_F(PlanIoTest, RejectsFutureFormatVersionWithClearError) {
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok()) << plan.status();
  std::string text = SerializePlan(**plan);
  text.replace(0, std::string("mdmatch-plan v2").size(), "mdmatch-plan v7");
  auto loaded = DeserializePlan(text, data_.pair, data_.target, &ops_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("newer than this library"),
            std::string::npos)
      << loaded.status();
}

// A v1 file — the PR 1 format, no checksum — must still load, and comment
// or whitespace edits must not disturb the v2 checksum.
TEST_F(PlanIoTest, AcceptsLegacyV1AndAnnotatedV2Files) {
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok()) << plan.status();
  std::string text = SerializePlan(**plan);

  std::string v1 = text;
  v1.replace(0, std::string("mdmatch-plan v2").size(), "mdmatch-plan v1");
  v1.erase(v1.find("\nchecksum "),
           v1.find("\nend\n") - v1.find("\nchecksum "));
  auto legacy = DeserializePlan(v1, data_.pair, data_.target, &ops_);
  ASSERT_TRUE(legacy.ok()) << legacy.status();
  EXPECT_EQ((*legacy)->rcks().size(), (*plan)->rcks().size());

  std::string annotated =
      text.substr(0, text.find('\n') + 1) +
      "# reviewed 2026-07: ships with the fraud fleet\n\n" +
      text.substr(text.find('\n') + 1);
  auto loaded = DeserializePlan(annotated, data_.pair, data_.target, &ops_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
}

// A negative window must not wrap to a huge count, and a loaded window
// passes Build's range check like a compiled one. The oversized case is a
// v1 file, which has no checksum to stop the edit earlier.
TEST_F(PlanIoTest, RejectsNegativeAndOversizedWindows) {
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok()) << plan.status();
  const std::string text = SerializePlan(**plan);
  auto with_window = [](std::string plan_text, const std::string& value) {
    const size_t pos =
        plan_text.find("window_size ") + std::string("window_size ").size();
    plan_text.replace(pos, plan_text.find('\n', pos) - pos, value);
    return plan_text;
  };

  auto negative = DeserializePlan(with_window(text, "-1"), data_.pair,
                                  data_.target, &ops_);
  ASSERT_FALSE(negative.ok());
  EXPECT_EQ(negative.status().code(), StatusCode::kParseError);
  EXPECT_NE(negative.status().message().find("bad integer '-1'"),
            std::string::npos)
      << negative.status();

  std::string v1 = text;
  v1.replace(0, std::string("mdmatch-plan v2").size(), "mdmatch-plan v1");
  v1.erase(v1.find("\nchecksum "),
           v1.find("\nend\n") - v1.find("\nchecksum "));
  auto oversized = DeserializePlan(with_window(v1, "4294967296"), data_.pair,
                                   data_.target, &ops_);
  ASSERT_FALSE(oversized.ok());
  EXPECT_EQ(oversized.status().code(), StatusCode::kInvalidArgument);
  auto widest = DeserializePlan(with_window(v1, "4294967295"), data_.pair,
                                data_.target, &ops_);
  EXPECT_TRUE(widest.ok()) << widest.status();
}

/// `text` as a v1 file: no checksum line, so edits reach the parser.
std::string AsV1(std::string text) {
  text.replace(0, std::string("mdmatch-plan v2").size(), "mdmatch-plan v1");
  text.erase(text.find("\nchecksum "),
             text.find("\nend\n") - text.find("\nchecksum "));
  return text;
}

// A similarity threshold outside [0, 1] is not an operator a plan file can
// name: the load fails and registers nothing.
TEST_F(PlanIoTest, RejectsSimilarityThresholdsOutsideUnitInterval) {
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok()) << plan.status();
  std::string text = AsV1(SerializePlan(**plan));
  ASSERT_NE(text.find("~dl@0.80"), std::string::npos);
  for (size_t at = text.find("~dl@0.80"); at != std::string::npos;
       at = text.find("~dl@0.80", at)) {
    text.replace(at, std::string("~dl@0.80").size(), "~dl@1.50");
  }
  auto loaded = DeserializePlan(text, data_.pair, data_.target, &ops_);
  EXPECT_FALSE(loaded.ok());
  EXPECT_FALSE(ops_.Find("dl@1.50").ok());
}

// `~name` tokens register operators only from plan lines, never from
// comments, and count parameters are digits only: `~lev-1` once wrapped
// to lev18446744073709551615 through a double -> size_t cast.
TEST_F(PlanIoTest, NegativeCountOperatorsRegisterNothing) {
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok()) << plan.status();
  const std::string text = SerializePlan(**plan);

  // In a comment: the file still fails for its own reason (no RCKs) ...
  EXPECT_FALSE(DeserializePlan("mdmatch-plan v1\n# tuned with ~lev-1\nend\n",
                               data_.pair, data_.target, &ops_)
                   .ok());
  // ... and a valid plan carrying the comment loads.
  const std::string annotated = text.substr(0, text.find('\n') + 1) +
                                "# tuned with ~lev-1 ~prefix-1\n" +
                                text.substr(text.find('\n') + 1);
  auto commented = DeserializePlan(annotated, data_.pair, data_.target, &ops_);
  EXPECT_TRUE(commented.ok()) << commented.status();

  // In an RCK line: the operator is unknown, so the line fails to parse.
  std::string v1 = AsV1(text);
  const size_t rck = v1.find("\nrck ");
  ASSERT_NE(rck, std::string::npos);
  const size_t eq = v1.find(" = ", rck);
  ASSERT_LT(eq, v1.find('\n', rck + 1));
  v1.replace(eq, 3, " ~lev-1 ");
  auto in_rck = DeserializePlan(v1, data_.pair, data_.target, &ops_);
  ASSERT_FALSE(in_rck.ok());
  EXPECT_EQ(in_rck.status().code(), StatusCode::kParseError);

  EXPECT_EQ(ops_.Find("lev18446744073709551615").status().code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(ops_.Find("prefix18446744073709551615").ok());
}

TEST_F(PlanIoTest, RejectsGarbage) {
  EXPECT_FALSE(
      DeserializePlan("", data_.pair, data_.target, &ops_).ok());
  EXPECT_FALSE(
      DeserializePlan("not a plan\n", data_.pair, data_.target, &ops_).ok());
  EXPECT_FALSE(DeserializePlan("mdmatch-plan v1\nbogus directive\nend\n",
                               data_.pair, data_.target, &ops_)
                   .ok());
  // A header-only file has no RCKs: invalid.
  EXPECT_FALSE(DeserializePlan("mdmatch-plan v1\nend\n", data_.pair,
                               data_.target, &ops_)
                   .ok());
}

}  // namespace
}  // namespace mdmatch::api
