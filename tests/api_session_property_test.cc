// Property test for the MatchSession equivalence contract: *any* split of
// a corpus into Upsert deltas — contiguous or randomly interleaved, with
// or without a mixed removal/update/insert wave and the insert flushes
// after it — must yield exactly the match set and clusters of a
// single-batch Executor::Run over the final corpus, at 1 and 4 threads,
// with cluster handles that map the clusters one-to-one after every
// flush. A churn soak holds the same contract after every flush of a long
// run of removal, re-insert and update waves, across window sizes and for
// blocking.

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <string_view>
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

class ApiSessionPropertyTest : public testing::Test {
 protected:
  void SetUp() override {
    datagen::CreditBillingOptions gen;
    gen.num_base = 120;
    gen.seed = 91;
    data_ = datagen::GenerateCreditBilling(gen, &ops_);
    plan_ = BuildPlan({});
  }

  PlanPtr BuildPlan(PlanOptions options) {
    return PlanBuilder(data_.pair, data_.target, &ops_)
        .WithSigma(data_.mds)
        .WithOptions(std::move(options))
        .WithTrainingInstance(&data_.instance)
        .Build()
        .value();
  }

  /// The session's matches and clusters equal one-shot execution on its
  /// corpus.
  static void AssertEqualsOneShot(const PlanPtr& plan,
                                  const MatchSession& session,
                                  const std::string& context) {
    const SessionView view = session.View();
    const Instance corpus = view.Corpus();
    auto oneshot = Executor(plan).Run(corpus);
    ASSERT_TRUE(oneshot.ok()) << oneshot.status();
    ASSERT_EQ(SortedPairs(view.Matches()), SortedPairs(oneshot->matches))
        << context;
    ASSERT_EQ(CanonicalClusters(view.Clusters()),
              CanonicalClusters(
                  match::ClusterMatches(oneshot->matches, corpus)))
        << context;
  }

  /// ClusterOf must map Clusters() one-to-one: every member of a cluster
  /// carries the same handle, and no two clusters share one.
  static void ExpectHandlesMatchClusters(const MatchSession& session) {
    const SessionView view = session.View();
    const Instance corpus = view.Corpus();
    const match::Clustering clustering = view.Clusters();
    std::map<uint64_t, size_t> cluster_of_handle;
    for (size_t c = 0; c < clustering.num_clusters(); ++c) {
      for (const match::RecordRef& ref : clustering.clusters()[c]) {
        const Relation& rel = ref.side == 0 ? corpus.left() : corpus.right();
        auto handle = view.ClusterOf(ref.side, rel.tuple(ref.index).id());
        ASSERT_TRUE(handle.ok()) << handle.status();
        const auto [it, inserted] = cluster_of_handle.emplace(*handle, c);
        ASSERT_EQ(it->second, c) << "one handle spans two clusters";
      }
    }
    ASSERT_EQ(cluster_of_handle.size(), clustering.num_clusters())
        << "a cluster carries two handles";
  }

  static void FlushAndCheckHandles(MatchSession* session) {
    auto report = session->Flush();
    ASSERT_TRUE(report.ok()) << report.status();
    ExpectHandlesMatchClusters(*session);
  }

  /// Ingests the dataset as `num_deltas` flushes with records assigned to
  /// deltas by `rng`. With removals, a fifth of the records is held back:
  /// one flush then mixes removals, in-place updates and a third of the
  /// held-back inserts, and two insert-only flushes bring in the rest.
  /// Cluster handles are checked after every flush; the final state is
  /// checked against one-shot execution on the session's corpus.
  void CheckRandomSplit(size_t num_deltas, size_t num_threads,
                        bool with_removals, uint64_t seed) {
    std::mt19937_64 rng(seed);
    SessionOptions options;
    options.num_threads = num_threads;
    options.min_pairs_per_thread = 1;
    MatchSession session(plan_, options);
    auto upsert = [&](int side, uint32_t row) {
      const Relation& rel = side == 0 ? data_.instance.left()
                                      : data_.instance.right();
      return session.Upsert(side, rel.tuple(row));
    };

    // Random delta assignment per record, both sides.
    std::uniform_int_distribution<size_t> pick(0, num_deltas - 1);
    std::uniform_real_distribution<double> coin(0, 1);
    std::vector<std::vector<std::pair<int, uint32_t>>> deltas(num_deltas);
    std::vector<std::pair<int, uint32_t>> late;
    for (int side = 0; side < 2; ++side) {
      const Relation& rel = side == 0 ? data_.instance.left()
                                      : data_.instance.right();
      for (uint32_t i = 0; i < rel.size(); ++i) {
        if (with_removals && coin(rng) < 0.2) {
          late.emplace_back(side, i);
        } else {
          deltas[pick(rng)].emplace_back(side, i);
        }
      }
    }
    for (const auto& delta : deltas) {
      for (const auto& [side, row] : delta) {
        ASSERT_TRUE(upsert(side, row).ok());
      }
      ASSERT_NO_FATAL_FAILURE(FlushAndCheckHandles(&session));
    }

    if (with_removals) {
      // One mixed flush: removals, in-place updates and inserts.
      Instance before = session.Corpus();
      for (int side = 0; side < 2; ++side) {
        const Relation& rel = side == 0 ? before.left() : before.right();
        for (uint32_t i = 0; i < rel.size(); ++i) {
          if (coin(rng) < 0.1) {
            ASSERT_TRUE(session.Remove(side, rel.tuple(i).id()).ok());
          } else if (coin(rng) < 0.1) {
            // The record's values change, so its standing matches retire
            // and it is re-evaluated under the new values.
            Tuple updated = rel.tuple(i);
            updated.set_value(0, updated.value(0) + "x");
            ASSERT_TRUE(session.Upsert(side, std::move(updated)).ok());
          }
        }
      }
      const size_t in_wave = late.size() / 3;
      for (size_t k = 0; k < in_wave; ++k) {
        ASSERT_TRUE(upsert(late[k].first, late[k].second).ok());
      }
      ASSERT_NO_FATAL_FAILURE(FlushAndCheckHandles(&session));
      // Insert-only flushes after the wave.
      const size_t mid = in_wave + (late.size() - in_wave) / 2;
      for (const auto& [begin, end] : {std::make_pair(in_wave, mid),
                                       std::make_pair(mid, late.size())}) {
        for (size_t k = begin; k < end; ++k) {
          ASSERT_TRUE(upsert(late[k].first, late[k].second).ok());
        }
        ASSERT_NO_FATAL_FAILURE(FlushAndCheckHandles(&session));
      }
    }

    AssertEqualsOneShot(plan_, session,
                        "deltas=" + std::to_string(num_deltas) +
                            " threads=" + std::to_string(num_threads) +
                            " removals=" + std::to_string(with_removals) +
                            " seed=" + std::to_string(seed));
  }

  /// Churn soak: after a bulk load, waves that remove a share of the live
  /// records, re-insert most removed ones and update a few more, one
  /// flush each — at least 30, and on until the seq space exceeds 4x the
  /// live corpus (seqs are never reused, so every re-insert takes a fresh
  /// one). After every flush the session equals one-shot execution and
  /// ClusterOf maps Clusters() one-to-one.
  void CheckChurnSoak(const PlanPtr& plan, uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> coin(0, 1);
    MatchSession session(plan);
    std::vector<bool> live[2];
    for (int side = 0; side < 2; ++side) {
      const Relation& rel = side == 0 ? data_.instance.left()
                                      : data_.instance.right();
      live[side].assign(rel.size(), true);
      for (uint32_t i = 0; i < rel.size(); ++i) {
        ASSERT_TRUE(session.Upsert(side, rel.tuple(i)).ok());
      }
    }
    ASSERT_NO_FATAL_FAILURE(FlushAndCheckHandles(&session));
    auto seq_space = [&session] {
      const SessionView view = session.View();
      const SharedMatchState& state = *view.state()->state;
      return size_t{state.next_seq[0]} + state.next_seq[1];
    };
    auto corpus = [&session] {
      return session.left_size() + session.right_size();
    };
    for (size_t wave = 0; wave < 30 || seq_space() <= 4 * corpus(); ++wave) {
      ASSERT_LT(wave, 200u) << "the seq space stopped growing";
      for (int side = 0; side < 2; ++side) {
        const Relation& rel = side == 0 ? data_.instance.left()
                                        : data_.instance.right();
        for (uint32_t i = 0; i < rel.size(); ++i) {
          const double roll = coin(rng);
          if (live[side][i] && roll < 0.3) {
            ASSERT_TRUE(session.Remove(side, rel.tuple(i).id()).ok());
            live[side][i] = false;
          } else if (live[side][i] && roll < 0.35) {
            Tuple updated = rel.tuple(i);
            updated.set_value(0, updated.value(0) + "~" +
                                     std::to_string(wave));
            ASSERT_TRUE(session.Upsert(side, std::move(updated)).ok());
          } else if (!live[side][i] && roll < 0.7) {
            ASSERT_TRUE(session.Upsert(side, rel.tuple(i)).ok());
            live[side][i] = true;
          }
        }
      }
      ASSERT_NO_FATAL_FAILURE(FlushAndCheckHandles(&session));
      ASSERT_NO_FATAL_FAILURE(AssertEqualsOneShot(
          plan, session,
          "seed=" + std::to_string(seed) + " wave=" + std::to_string(wave)));
    }
    EXPECT_GT(seq_space(), 4 * corpus());
  }

  sim::SimOpRegistry ops_;
  datagen::CreditBillingData data_;
  PlanPtr plan_;
};

TEST_F(ApiSessionPropertyTest, AnySplitEqualsSingleBatchSingleThread) {
  for (size_t deltas : {1, 2, 5}) {
    for (uint64_t seed : {7u, 21u}) {
      CheckRandomSplit(deltas, /*num_threads=*/1, /*with_removals=*/false,
                       seed);
    }
  }
}

TEST_F(ApiSessionPropertyTest, AnySplitEqualsSingleBatchFourThreads) {
  for (size_t deltas : {2, 4}) {
    for (uint64_t seed : {7u, 21u}) {
      CheckRandomSplit(deltas, /*num_threads=*/4, /*with_removals=*/false,
                       seed);
    }
  }
}

TEST_F(ApiSessionPropertyTest, ChurnSoakAcrossWindowSizes) {
  for (size_t window : {2, 3, 10}) {
    PlanOptions options;
    options.window_size = window;
    CheckChurnSoak(BuildPlan(options), /*seed=*/window);
  }
}

TEST_F(ApiSessionPropertyTest, ChurnSoakBlocking) {
  PlanOptions options;
  options.candidates = PlanOptions::Candidates::kBlocking;
  CheckChurnSoak(BuildPlan(options), /*seed=*/5);
}

TEST_F(ApiSessionPropertyTest, SplitsWithRemovalWaveStillMatch) {
  CheckRandomSplit(3, /*num_threads=*/1, /*with_removals=*/true, 13);
  CheckRandomSplit(3, /*num_threads=*/4, /*with_removals=*/true, 13);
  CheckRandomSplit(5, /*num_threads=*/4, /*with_removals=*/true, 29);
  for (uint64_t seed : {7u, 29u}) {
    CheckRandomSplit(4, /*num_threads=*/4, /*with_removals=*/true, seed);
  }
}

// A load in chunks of 1, 7 and 1,000 records, with the sides interleaved
// or in blocks (left records first, as perfbench stages its standing
// corpus), then a removal wave: after every flush the session equals
// one-shot execution, and no flush evaluates a pair twice. The plan's one
// rule is a logging predicate over a column rewritten to the record's
// side and id, so each evaluated pair logs one line naming its records.
TEST_F(ApiSessionPropertyTest, ChunkedLoadsEvaluateEachPairOnce) {
  std::vector<std::pair<std::string, std::string>> evaluated;
  bool logging = false;
  auto logged = ops_.Register(
      "logged-ids", [&evaluated, &logging](std::string_view a,
                                           std::string_view b) {
        if (logging) evaluated.emplace_back(a, b);
        return a.back() == b.back();  // symmetric, about one pair in ten
      });
  ASSERT_TRUE(logged.ok()) << logged.status();
  const AttrPair ids{data_.target.left()[0], data_.target.right()[0]};
  auto plan = PlanBuilder(data_.pair, data_.target, &ops_)
                  .WithSigma(data_.mds)
                  .WithPrecompiledRcks(plan_->rcks())
                  .WithSortKeys(plan_->sort_keys())
                  .WithRules({RelativeKey({Conjunct{ids, *logged}})})
                  .Build();
  ASSERT_TRUE(plan.ok()) << plan.status();
  std::vector<std::pair<int, Tuple>> records[2];  // [interleaved, blocks]
  for (int side = 0; side < 2; ++side) {
    const Relation& rel = data_.instance.side(side);
    for (uint32_t i = 0; i < rel.size(); ++i) {
      Tuple tuple = rel.tuple(i);
      tuple.set_value(side == 0 ? ids.left : ids.right,
                      std::string(side == 0 ? "L" : "R")
                          .append(std::to_string(tuple.id())));
      records[1].emplace_back(side, std::move(tuple));
    }
  }
  // Interleaved: left 0, right 0, left 1, right 1, ...
  const size_t left = data_.instance.left().size();
  for (size_t l = 0, r = left; l < left || r < records[1].size();) {
    if (l < left) records[0].push_back(records[1][l++]);
    if (r < records[1].size()) records[0].push_back(records[1][r++]);
  }

  auto flush = [&](MatchSession* session, const std::string& context) {
    evaluated.clear();
    logging = true;
    auto report = session->Flush();
    logging = false;
    ASSERT_TRUE(report.ok()) << report.status();
    ASSERT_EQ(evaluated.size(), report->pairs_evaluated) << context;
    std::sort(evaluated.begin(), evaluated.end());
    ASSERT_EQ(std::adjacent_find(evaluated.begin(), evaluated.end()),
              evaluated.end())
        << context << ": a pair was evaluated twice";
    ASSERT_NO_FATAL_FAILURE(AssertEqualsOneShot(*plan, *session, context));
  };
  for (size_t chunk : {1, 7, 1000}) {
    for (int order = 0; order < 2; ++order) {
      const std::string context = "chunk=" + std::to_string(chunk) +
                                  (order == 0 ? " interleaved" : " blocks");
      MatchSession session(*plan);
      const auto& load = records[order];
      for (size_t i = 0; i < load.size(); ++i) {
        ASSERT_TRUE(session.Upsert(load[i].first, load[i].second).ok());
        if ((i + 1) % chunk == 0 || i + 1 == load.size()) {
          ASSERT_NO_FATAL_FAILURE(
              flush(&session, context + " at " + std::to_string(i + 1)));
        }
      }
      ASSERT_GT(session.Matches().size(), 0u);
      for (size_t i = 0; i < load.size(); i += 4) {
        ASSERT_TRUE(session.Remove(load[i].first, load[i].second.id()).ok());
      }
      ASSERT_NO_FATAL_FAILURE(flush(&session, context + " removal wave"));
    }
  }
}

}  // namespace
}  // namespace mdmatch::api
