// Property test for the MatchSession equivalence contract: *any* split of
// a corpus into Upsert deltas — contiguous or randomly interleaved, with
// or without a mixed removal/update/insert wave and the insert flushes
// after it — must yield exactly the match set and clusters of a
// single-batch Executor::Run over the final corpus, at 1 and 4 threads,
// with cluster handles that map the clusters one-to-one after every
// flush.

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
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
    plan_ = PlanBuilder(data_.pair, data_.target, &ops_)
                .WithSigma(data_.mds)
                .WithTrainingInstance(&data_.instance)
                .Build()
                .value();
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

    Instance corpus = session.Corpus();
    auto oneshot = Executor(plan_).Run(corpus);
    ASSERT_TRUE(oneshot.ok()) << oneshot.status();
    EXPECT_EQ(SortedPairs(session.Matches()), SortedPairs(oneshot->matches))
        << "deltas=" << num_deltas << " threads=" << num_threads
        << " removals=" << with_removals << " seed=" << seed;
    EXPECT_EQ(CanonicalClusters(session.Clusters()),
              CanonicalClusters(
                  match::ClusterMatches(oneshot->matches, corpus)))
        << "deltas=" << num_deltas << " threads=" << num_threads
        << " removals=" << with_removals << " seed=" << seed;
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

TEST_F(ApiSessionPropertyTest, SplitsWithRemovalWaveStillMatch) {
  CheckRandomSplit(3, /*num_threads=*/1, /*with_removals=*/true, 13);
  CheckRandomSplit(3, /*num_threads=*/4, /*with_removals=*/true, 13);
  CheckRandomSplit(5, /*num_threads=*/4, /*with_removals=*/true, 29);
  for (uint64_t seed : {7u, 29u}) {
    CheckRandomSplit(4, /*num_threads=*/4, /*with_removals=*/true, seed);
  }
}

}  // namespace
}  // namespace mdmatch::api
