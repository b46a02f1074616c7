// Tests for the incremental session API (api/session): a MatchSession fed
// any sequence of Upsert / Remove / Flush deltas must produce exactly the
// match pairs and clusters of a one-shot Executor::Run over the equivalent
// single batch (session.Corpus()), for every thread count — including the
// windowing subtleties
// (removals pulling old pairs into a window, insertions pushing standing
// matches out of every window).

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/executor.h"
#include "api/plan.h"
#include "api/session.h"
#include "datagen/credit_billing.h"
#include "match/clustering.h"

namespace mdmatch::api {
namespace {

std::vector<std::pair<uint32_t, uint32_t>> SortedPairs(
    const match::PairSet& set) {
  auto pairs = set.pairs();
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

/// The session's standing matches as (left id, right id).
std::set<std::pair<TupleId, TupleId>> IdPairs(const MatchSession& session) {
  const SessionView view = session.View();
  const Instance corpus = view.Corpus();
  const match::MatchResult matches = view.Matches();
  std::set<std::pair<TupleId, TupleId>> out;
  for (const auto& [l, r] : matches.pairs()) {
    out.emplace(corpus.left().tuple(l).id(), corpus.right().tuple(r).id());
  }
  return out;
}

/// Order-independent form of a clustering: sorted clusters of sorted
/// (side, position) members.
std::vector<std::vector<std::pair<int, uint32_t>>> CanonicalClusters(
    const match::Clustering& clustering) {
  std::vector<std::vector<std::pair<int, uint32_t>>> out;
  for (const auto& cluster : clustering.clusters()) {
    std::vector<std::pair<int, uint32_t>> members;
    for (const auto& r : cluster) members.emplace_back(r.side, r.index);
    std::sort(members.begin(), members.end());
    out.push_back(std::move(members));
  }
  std::sort(out.begin(), out.end());
  return out;
}

class ApiSessionTest : public testing::Test {
 protected:
  void SetUp() override {
    datagen::CreditBillingOptions gen;
    gen.num_base = 200;
    gen.seed = 55;
    data_ = datagen::GenerateCreditBilling(gen, &ops_);
  }

  Result<PlanPtr> BuildPlan(PlanOptions options = {}) {
    return PlanBuilder(data_.pair, data_.target, &ops_)
        .WithSigma(data_.mds)
        .WithOptions(options)
        .WithTrainingInstance(&data_.instance)
        .Build();
  }

  /// Upserts rows [begin, end) of both relations into the session.
  void UpsertRange(MatchSession* session, size_t begin, size_t end) {
    const Relation& left = data_.instance.left();
    const Relation& right = data_.instance.right();
    for (size_t i = begin; i < end && i < left.size(); ++i) {
      ASSERT_TRUE(session->Upsert(0, left.tuple(i)).ok());
    }
    for (size_t i = begin; i < end && i < right.size(); ++i) {
      ASSERT_TRUE(session->Upsert(1, right.tuple(i)).ok());
    }
  }

  /// One-shot ground truth over the session's standing corpus.
  void ExpectSessionEqualsOneShot(const PlanPtr& plan,
                                  const MatchSession& session) {
    Instance corpus = session.Corpus();
    auto oneshot = Executor(plan).Run(corpus);
    ASSERT_TRUE(oneshot.ok()) << oneshot.status();
    EXPECT_EQ(SortedPairs(session.Matches()), SortedPairs(oneshot->matches));
    EXPECT_EQ(CanonicalClusters(session.Clusters()),
              CanonicalClusters(match::ClusterMatches(oneshot->matches,
                                                      corpus)));
  }

  /// The full incremental scenario of the acceptance criteria: several
  /// Upsert deltas, removals, and in-place updates, flushed separately.
  void RunIncrementalScenario(const PlanPtr& plan, size_t num_threads) {
    SessionOptions options;
    options.num_threads = num_threads;
    options.min_pairs_per_thread = 1;
    MatchSession session(plan, options);

    // Delta 1 + delta 2: two thirds of the data in two flushes.
    const size_t third = data_.instance.left().size() / 3;
    UpsertRange(&session, 0, third);
    ASSERT_TRUE(session.Flush().ok());
    UpsertRange(&session, third, 2 * third);
    auto second = session.Flush();
    ASSERT_TRUE(second.ok());
    EXPECT_GT(second->matches_added, 0u);
    ExpectSessionEqualsOneShot(plan, session);

    // Removals from the standing corpus (both sides).
    size_t removed = 0;
    for (size_t i = 0; i < 2 * third; i += 9, ++removed) {
      ASSERT_TRUE(
          session.Remove(0, data_.instance.left().tuple(i).id()).ok());
      ASSERT_TRUE(
          session.Remove(1, data_.instance.right().tuple(i).id()).ok());
    }
    auto after_remove = session.Flush();
    ASSERT_TRUE(after_remove.ok());
    EXPECT_EQ(after_remove->removed, 2 * removed);
    ExpectSessionEqualsOneShot(plan, session);

    // Delta 3 plus in-place updates: corrupt one attribute of a few
    // surviving records (their standing matches must be re-decided
    // against the new values).
    UpsertRange(&session, 2 * third, data_.instance.left().size());
    for (size_t i = 1; i < third; i += 11) {
      Tuple updated = data_.instance.left().tuple(i);
      updated.set_value(0, "zzz-updated-" + std::to_string(i));
      ASSERT_TRUE(session.Upsert(0, std::move(updated)).ok());
    }
    ASSERT_TRUE(session.Flush().ok());
    ExpectSessionEqualsOneShot(plan, session);
    EXPECT_GT(session.Matches().size(), 0u);
  }

  sim::SimOpRegistry ops_;
  datagen::CreditBillingData data_;
};

TEST_F(ApiSessionTest, IncrementalWindowingMatchesOneShotSingleThread) {
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok()) << plan.status();
  RunIncrementalScenario(*plan, 1);
}

TEST_F(ApiSessionTest, IncrementalWindowingMatchesOneShotFourThreads) {
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok()) << plan.status();
  RunIncrementalScenario(*plan, 4);
}

// The widest window Build accepts covers every cross pair. The session's
// window arithmetic must not wrap on it: it matches the one-shot run,
// which compares every pair, across inserts and removals.
TEST_F(ApiSessionTest, WidestWindowMatchesOneShot) {
  PlanOptions options;
  options.window_size = UINT32_MAX;
  auto plan = BuildPlan(options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  MatchSession session(*plan);
  UpsertRange(&session, 0, 40);
  ASSERT_TRUE(session.Flush().ok());
  UpsertRange(&session, 40, 80);
  ASSERT_TRUE(session.Flush().ok());
  for (size_t i = 0; i < 80; i += 7) {
    ASSERT_TRUE(session.Remove(1, data_.instance.right().tuple(i).id()).ok());
  }
  ASSERT_TRUE(session.Flush().ok());

  const Instance corpus = session.Corpus();
  auto oneshot = Executor(*plan).Run(corpus);
  ASSERT_TRUE(oneshot.ok()) << oneshot.status();
  EXPECT_EQ(oneshot->pairs_compared, corpus.NumPairs());
  EXPECT_GT(oneshot->matches.size(), 0u);
  ExpectSessionEqualsOneShot(*plan, session);
}

// A load into an empty session is the one-shot sort-then-window: its one
// flush evaluates exactly the pairs Executor::Run compares over the same
// corpus, and asks the index for no rank.
TEST_F(ApiSessionTest, OneFlushLoadEvaluatesTheOneShotCandidates) {
  auto base = BuildPlan();
  ASSERT_TRUE(base.ok()) << base.status();
  const std::vector<match::KeyFunction>& keys = (*base)->sort_keys();
  ASSERT_GE(keys.size(), 3u);
  struct Case {
    const char* name;
    std::vector<match::KeyFunction> keys;
    size_t window;
    bool blocking;
  };
  const std::vector<Case> cases = {
      {"1 pass", {keys[0]}, 10, false},
      {"3 passes", {keys[0], keys[1], keys[2]}, 10, false},
      {"the same key twice", {keys[1], keys[1]}, 10, false},
      {"window 2", {keys[0], keys[1], keys[2]}, 2, false},
      {"a window wider than the corpus", {keys[0], keys[2]}, 5000, false},
      {"blocking", {}, 10, true},
  };
  const size_t rows =
      std::max(data_.instance.left().size(), data_.instance.right().size());
  for (const Case& c : cases) {
    PlanOptions options;
    options.window_size = c.window;
    if (c.blocking) options.candidates = PlanOptions::Candidates::kBlocking;
    PlanBuilder builder(data_.pair, data_.target, &ops_);
    builder.WithSigma(data_.mds)
        .WithOptions(options)
        .WithTrainingInstance(&data_.instance)
        .WithPrecompiledRcks((*base)->rcks());
    if (!c.blocking) builder.WithSortKeys(c.keys);
    auto plan = builder.Build();
    ASSERT_TRUE(plan.ok()) << c.name << ": " << plan.status();

    MatchSession session(*plan);
    UpsertRange(&session, 0, rows);
    auto load = session.Flush();
    ASSERT_TRUE(load.ok()) << load.status();
    auto oneshot = Executor(*plan).Run(session.Corpus());
    ASSERT_TRUE(oneshot.ok()) << oneshot.status();
    EXPECT_GT(oneshot->pairs_compared, 0u) << c.name;
    EXPECT_EQ(load->pairs_evaluated, oneshot->pairs_compared) << c.name;
    EXPECT_EQ(load->rank_queries, 0u) << c.name;
    ExpectSessionEqualsOneShot(*plan, session);
  }
}

TEST_F(ApiSessionTest, IncrementalBlockingMatchesOneShot) {
  PlanOptions options;
  options.candidates = PlanOptions::Candidates::kBlocking;
  auto plan = BuildPlan(options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  RunIncrementalScenario(*plan, 1);
  RunIncrementalScenario(*plan, 4);
}

TEST_F(ApiSessionTest, IncrementalFellegiSunterMatchesOneShot) {
  PlanOptions options;
  options.matcher = PlanOptions::Matcher::kFellegiSunter;
  auto plan = BuildPlan(options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  RunIncrementalScenario(*plan, 4);
}

TEST_F(ApiSessionTest, ClosurePlanReportsImpliedPairs) {
  PlanOptions options;
  options.transitive_closure = true;
  auto plan = BuildPlan(options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  RunIncrementalScenario(*plan, 1);
}

// One oversized batch at 4 threads: the whole dataset in a single flush,
// its evaluation chunked over 4 workers, must reproduce the one-shot (and
// the single-threaded session) exactly — for windowing and blocking.
TEST_F(ApiSessionTest, ShardedBulkLoadMatchesOneShot) {
  for (bool blocking : {false, true}) {
    PlanOptions plan_options;
    if (blocking) {
      plan_options.candidates = PlanOptions::Candidates::kBlocking;
    }
    auto plan = BuildPlan(plan_options);
    ASSERT_TRUE(plan.ok()) << plan.status();

    SessionOptions threaded;
    threaded.num_threads = 4;
    threaded.min_pairs_per_thread = 1;  // every worker gets pairs
    MatchSession session(*plan, threaded);
    UpsertRange(&session, 0, data_.instance.left().size());
    auto report = session.Flush();
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_GT(report->pairs_evaluated, 4u);
    ExpectSessionEqualsOneShot(*plan, session);

    MatchSession single(*plan);  // 1 thread
    UpsertRange(&single, 0, data_.instance.left().size());
    ASSERT_TRUE(single.Flush().ok());
    EXPECT_EQ(SortedPairs(session.Matches()), SortedPairs(single.Matches()));
  }
}

// A 4-thread flush against an already-indexed standing corpus (not just a
// cold bulk load), with removals in the same delta, must also be exact.
TEST_F(ApiSessionTest, ShardedIncrementalDeltaMatchesOneShot) {
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok()) << plan.status();
  SessionOptions options;
  options.num_threads = 4;
  options.min_pairs_per_thread = 1;
  MatchSession session(*plan, options);
  const size_t half = data_.instance.left().size() / 2;
  UpsertRange(&session, 0, half);
  ASSERT_TRUE(session.Flush().ok());
  for (size_t i = 0; i < half; i += 13) {
    ASSERT_TRUE(session.Remove(0, data_.instance.left().tuple(i).id()).ok());
  }
  UpsertRange(&session, half, data_.instance.left().size());
  auto report = session.Flush();
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->removed, 0u);
  ExpectSessionEqualsOneShot(*plan, session);
}

// Window drift pinned on one standing pair, under one sort key and a
// window of 2, so only neighbours in the order are candidates: a record
// sorting between the pair's records retires it, removing that record
// brings it back through the removal-gap scan, and an update that keeps
// the key, flushed with an insert next to it, stays exact.
TEST_F(ApiSessionTest, DriftRetiresAndGapScanRestoresAStandingPair) {
  auto base = BuildPlan();
  ASSERT_TRUE(base.ok()) << base.status();
  const match::KeyFunction key = (*base)->sort_keys().front();
  PlanOptions options;
  options.window_size = 2;
  auto plan = PlanBuilder(data_.pair, data_.target, &ops_)
                  .WithSigma(data_.mds)
                  .WithOptions(options)
                  .WithTrainingInstance(&data_.instance)
                  .WithSortKeys({key})
                  .Build();
  ASSERT_TRUE(plan.ok()) << plan.status();
  MatchSession session(*plan);
  UpsertRange(&session, 0, data_.instance.left().size());
  ASSERT_TRUE(session.Flush().ok());

  // A standing pair: its records are neighbours in the order. A copy of
  // the first of them under a fresh id sorts right after it (same key and
  // side, a later seq), so between the two.
  const Instance corpus = session.Corpus();
  const match::MatchResult matches = session.Matches();
  ASSERT_GT(matches.size(), 0u);
  const Tuple left = corpus.left().tuple(matches.pairs().front().first);
  const Tuple right = corpus.right().tuple(matches.pairs().front().second);
  const std::pair<TupleId, TupleId> pair{left.id(), right.id()};
  const int first = key.Render(left, 0) <= key.Render(right, 1) ? 0 : 1;
  const Tuple& copied = first == 0 ? left : right;
  const TupleId copy_id = 1000000;
  ASSERT_TRUE(session.Upsert(first, Tuple(copy_id, copied.values())).ok());
  auto pushed = session.Flush();
  ASSERT_TRUE(pushed.ok()) << pushed.status();
  EXPECT_EQ(pushed->matches_dropped, 1u) << "the pair drifted out";
  EXPECT_EQ(IdPairs(session).count(pair), 0u);
  ExpectSessionEqualsOneShot(*plan, session);

  ASSERT_TRUE(session.Remove(first, copy_id).ok());
  auto pulled = session.Flush();
  ASSERT_TRUE(pulled.ok()) << pulled.status();
  EXPECT_GE(pulled->matches_added, 1u);
  EXPECT_EQ(IdPairs(session).count(pair), 1u) << "the gap scan restores it";
  ExpectSessionEqualsOneShot(*plan, session);

  // An update of the first record that leaves its key unchanged (its old
  // and new index entries are equal), next to an insert of another copy.
  Tuple updated = copied;
  bool same_key = false;
  for (AttrId a = 0; a < static_cast<AttrId>(copied.arity()) && !same_key;
       ++a) {
    updated = copied;
    updated.set_value(a, copied.value(a) + "~");
    same_key = key.Render(updated, first) == key.Render(copied, first);
  }
  ASSERT_TRUE(same_key) << "no attribute outside the sort key";
  ASSERT_TRUE(session.Upsert(first, std::move(updated)).ok());
  ASSERT_TRUE(session.Upsert(first, Tuple(copy_id + 1, copied.values())).ok());
  ASSERT_TRUE(session.Flush().ok());
  ExpectSessionEqualsOneShot(*plan, session);
}

TEST_F(ApiSessionTest, MatchesAreQueryableBetweenIngests) {
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok()) << plan.status();
  MatchSession session(*plan);

  EXPECT_EQ(session.Matches().size(), 0u);
  UpsertRange(&session, 0, data_.instance.left().size());
  EXPECT_GT(session.pending_ops(), 0u);
  EXPECT_EQ(session.left_size(), 0u) << "staged records are not live";
  EXPECT_EQ(session.Matches().size(), 0u);

  auto report = session.Flush();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(session.pending_ops(), 0u);
  EXPECT_EQ(session.left_size(), data_.instance.left().size());
  EXPECT_GT(session.Matches().size(), 0u);
  EXPECT_EQ(session.Matches().size(), report->total_matches);
}

TEST_F(ApiSessionTest, ClusterMembershipQueries) {
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok()) << plan.status();
  MatchSession session(*plan);
  UpsertRange(&session, 0, data_.instance.left().size());
  ASSERT_TRUE(session.Flush().ok());

  match::MatchResult matches = session.Matches();
  ASSERT_GT(matches.size(), 0u);
  Instance corpus = session.Corpus();
  const auto& [l, r] = matches.pairs().front();
  const TupleId left_id = corpus.left().tuple(l).id();
  const TupleId right_id = corpus.right().tuple(r).id();

  auto same = session.SameCluster(0, left_id, 1, right_id);
  ASSERT_TRUE(same.ok()) << same.status();
  EXPECT_TRUE(*same) << "matched records must share a cluster";

  // Find a left record matched to nothing: different cluster.
  for (uint32_t i = 0; i < corpus.left().size(); ++i) {
    bool in_any = false;
    for (const auto& [ml, mr] : matches.pairs()) {
      (void)mr;
      if (ml == i) in_any = true;
    }
    if (!in_any) {
      auto diff = session.SameCluster(0, corpus.left().tuple(i).id(), 1,
                                      right_id);
      ASSERT_TRUE(diff.ok());
      EXPECT_FALSE(*diff);
      break;
    }
  }

  EXPECT_FALSE(session.ClusterOf(0, 999999).ok());
  EXPECT_FALSE(session.ClusterOf(7, left_id).ok());
}

// Removing the only billing record bridging a cluster must split it (the
// stale union-find is rebuilt from the surviving pairs).
TEST_F(ApiSessionTest, RemovalSplitsClusters) {
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok()) << plan.status();
  MatchSession session(*plan);
  UpsertRange(&session, 0, data_.instance.left().size());
  ASSERT_TRUE(session.Flush().ok());

  // Find two left records matched to one shared billing record.
  match::MatchResult matches = session.Matches();
  Instance corpus = session.Corpus();
  for (const auto& [l1, r1] : matches.pairs()) {
    for (const auto& [l2, r2] : matches.pairs()) {
      if (r1 != r2 || l1 == l2) continue;
      const TupleId a = corpus.left().tuple(l1).id();
      const TupleId b = corpus.left().tuple(l2).id();
      auto joined = session.SameCluster(0, a, 0, b);
      ASSERT_TRUE(joined.ok());
      ASSERT_TRUE(*joined);
      ASSERT_TRUE(session.Remove(1, corpus.right().tuple(r1).id()).ok());
      auto report = session.Flush();
      ASSERT_TRUE(report.ok());
      EXPECT_GE(report->matches_dropped, 2u);
      ExpectSessionEqualsOneShot(*plan, session);
      auto split = session.SameCluster(0, a, 0, b);
      ASSERT_TRUE(split.ok());
      // They may still be joined through another bridge; the one-shot
      // equivalence above is the real check. Just exercise the query.
      (void)*split;
      return;
    }
  }
  GTEST_SKIP() << "no shared billing match in this dataset";
}

TEST_F(ApiSessionTest, ValidatesArgs) {
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok()) << plan.status();
  MatchSession session(*plan);

  EXPECT_EQ(session.Upsert(2, data_.instance.left().tuple(0)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session.Upsert(1, data_.instance.left().tuple(0)).code(),
            StatusCode::kInvalidArgument)
      << "credit tuple arity must not fit the billing schema";
  EXPECT_EQ(session.Remove(0, 12345).code(), StatusCode::kNotFound);

  // Remove of a staged-but-unflushed record is legal and nets to a no-op.
  ASSERT_TRUE(session.Upsert(0, data_.instance.left().tuple(0)).ok());
  ASSERT_TRUE(session.Remove(0, data_.instance.left().tuple(0).id()).ok());
  auto report = session.Flush();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(session.left_size(), 0u);
}

TEST_F(ApiSessionTest, EmptyFlushIsANoOp) {
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok()) << plan.status();
  MatchSession session(*plan);
  auto report = session.Flush();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->upserted, 0u);
  EXPECT_EQ(report->pairs_evaluated, 0u);
  EXPECT_EQ(report->total_matches, 0u);
}

}  // namespace
}  // namespace mdmatch::api
