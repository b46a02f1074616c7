// Tests for the streaming subsystem: GenerationDiff correctness (both
// the O(changes) consecutive path and the hashed gap fallback must
// produce the same canonical id-based encoding), IngestDriver
// backpressure / drain / shutdown semantics, and the subscription
// delivery contract — gap-free, in generation order, resync on
// overflow.
//
// The load-bearing suite is the reconstruction property: the strict
// DeltaReplica (rejects gaps, double-adds and phantom retires) driven
// purely by delivered deltas must end bit-identical to the session's
// own final state, for windowing and blocking plans, under 1 and 4
// concurrent producers. That proves the whole chain — parent-delta
// recording at publish, same-flush churn netting, diff translation to
// ids, fan-out ordering — end to end.
//
// Suite names contain "Stream" so CI's TSan job picks them up.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/plan.h"
#include "api/session.h"
#include "datagen/credit_billing.h"
#include "stream/delta.h"
#include "stream/ingest_driver.h"
#include "stream/sink.h"

namespace mdmatch::stream {
namespace {

/// The session's standing match state in the same id-pair encoding the
/// delta stream uses — the oracle every replica is compared against.
std::set<IdPair> SessionIdPairs(const api::SessionGeneration& gen) {
  std::set<IdPair> out;
  gen.state->matches.ForEach([&](uint32_t l, uint32_t r) {
    out.insert(IdPair{(*gen.state->corpus[0].Get(l))->tuple.id(),
                      (*gen.state->corpus[1].Get(r))->tuple.id()});
  });
  return out;
}

/// Applies every delivered delta into a strict DeltaReplica; any Apply
/// failure is latched and fails the test on the main thread.
class ReplicaSink : public MatchDeltaSink {
 public:
  void OnDelta(const MatchDelta& delta) override {
    std::lock_guard<std::mutex> lock(mu_);
    Status st = replica_.Apply(delta);
    if (!st.ok() && error_.empty()) error_ = st.ToString();
    ++deliveries_;
  }

  std::string error() const {
    std::lock_guard<std::mutex> lock(mu_);
    return error_;
  }
  size_t deliveries() const {
    std::lock_guard<std::mutex> lock(mu_);
    return deliveries_;
  }
  std::set<IdPair> pairs() const {
    std::lock_guard<std::mutex> lock(mu_);
    return replica_.pairs();
  }
  uint64_t generation() const {
    std::lock_guard<std::mutex> lock(mu_);
    return replica_.generation();
  }
  size_t resyncs() const {
    std::lock_guard<std::mutex> lock(mu_);
    return replica_.resyncs();
  }

 private:
  mutable std::mutex mu_;
  DeltaReplica replica_;
  std::string error_;
  size_t deliveries_ = 0;
};

class StreamTest : public testing::Test {
 protected:
  void SetUp() override {
    datagen::CreditBillingOptions gen;
    gen.num_base = 120;
    gen.seed = 515;
    data_ = datagen::GenerateCreditBilling(gen, &ops_);
  }

  Result<api::PlanPtr> BuildPlan(api::PlanOptions options = {}) {
    return api::PlanBuilder(data_.pair, data_.target, &ops_)
        .WithSigma(data_.mds)
        .WithOptions(options)
        .WithTrainingInstance(&data_.instance)
        .Build();
  }

  sim::SimOpRegistry ops_;
  datagen::CreditBillingData data_;
};

using StreamDeltaTest = StreamTest;
using StreamIngestDriverTest = StreamTest;

TEST_F(StreamDeltaTest, ConsecutiveDiffIsTheSetDifference) {
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok());
  api::MatchSession session(*plan);
  for (size_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(session.Upsert(0, data_.instance.left().tuple(i)).ok());
    ASSERT_TRUE(session.Upsert(1, data_.instance.right().tuple(i)).ok());
  }
  ASSERT_TRUE(session.Flush().ok());
  const api::SessionGenerationPtr g1 = session.View().state();

  for (size_t i = 40; i < 80; ++i) {
    ASSERT_TRUE(session.Upsert(0, data_.instance.left().tuple(i)).ok());
    ASSERT_TRUE(session.Upsert(1, data_.instance.right().tuple(i)).ok());
  }
  ASSERT_TRUE(session.Flush().ok());
  const api::SessionGenerationPtr g2 = session.View().state();

  const MatchDelta delta = GenerationDiff(*g1, *g2);
  EXPECT_EQ(delta.from_generation, g1->generation);
  EXPECT_EQ(delta.to_generation, g2->generation);
  EXPECT_FALSE(delta.resync);
  EXPECT_TRUE(std::is_sorted(delta.added.begin(), delta.added.end()));

  const std::set<IdPair> before = SessionIdPairs(*g1);
  const std::set<IdPair> after = SessionIdPairs(*g2);
  std::set<IdPair> expect_added;
  std::set_difference(after.begin(), after.end(), before.begin(),
                      before.end(),
                      std::inserter(expect_added, expect_added.end()));
  EXPECT_EQ(std::set<IdPair>(delta.added.begin(), delta.added.end()),
            expect_added);
  EXPECT_TRUE(delta.retired.empty());  // insert-only transition
  ASSERT_GT(delta.added.size(), 0u);
}

TEST_F(StreamDeltaTest, RemovalsShowUpAsRetiredPairsWithStableIds) {
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok());
  api::MatchSession session(*plan);
  for (size_t i = 0; i < 60; ++i) {
    ASSERT_TRUE(session.Upsert(0, data_.instance.left().tuple(i)).ok());
    ASSERT_TRUE(session.Upsert(1, data_.instance.right().tuple(i)).ok());
  }
  ASSERT_TRUE(session.Flush().ok());
  const api::SessionGenerationPtr g1 = session.View().state();
  const std::set<IdPair> before = SessionIdPairs(*g1);
  ASSERT_GT(before.size(), 0u);

  // Remove early right-side records: positions renumber underneath, but
  // the retired pairs must name the removed records by their ids.
  for (size_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        session.Remove(1, data_.instance.right().tuple(i).id()).ok());
  }
  ASSERT_TRUE(session.Flush().ok());
  const api::SessionGenerationPtr g2 = session.View().state();

  const MatchDelta delta = GenerationDiff(*g1, *g2);
  const std::set<IdPair> after = SessionIdPairs(*g2);
  std::set<IdPair> expect_retired;
  std::set_difference(before.begin(), before.end(), after.begin(),
                      after.end(),
                      std::inserter(expect_retired, expect_retired.end()));
  EXPECT_EQ(std::set<IdPair>(delta.retired.begin(), delta.retired.end()),
            expect_retired);
  ASSERT_GT(delta.retired.size(), 0u);

  // Replaying seed + delta reconstructs the final state exactly.
  DeltaReplica replica;
  ASSERT_TRUE(replica.Apply(FullStateDelta(*g1)).ok());
  ASSERT_TRUE(replica.Apply(delta).ok());
  EXPECT_EQ(replica.pairs(), after);
}

TEST_F(StreamDeltaTest, GapDiffEqualsChainedConsecutiveDiffs) {
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok());
  api::MatchSession session(*plan);

  std::vector<api::SessionGenerationPtr> gens;
  gens.push_back(session.View().state());
  for (size_t wave = 0; wave < 3; ++wave) {
    for (size_t i = wave * 30; i < (wave + 1) * 30; ++i) {
      ASSERT_TRUE(session.Upsert(0, data_.instance.left().tuple(i)).ok());
      ASSERT_TRUE(session.Upsert(1, data_.instance.right().tuple(i)).ok());
    }
    if (wave == 2) {
      // Mix in updates and removals so the gap has retired pairs too.
      for (size_t i = 0; i < 8; ++i) {
        Tuple t = data_.instance.left().tuple(i);
        t.set_value(2, t.value(2) + "x");
        ASSERT_TRUE(session.Upsert(0, std::move(t)).ok());
        ASSERT_TRUE(
            session.Remove(1, data_.instance.right().tuple(i).id()).ok());
      }
    }
    ASSERT_TRUE(session.Flush().ok());
    gens.push_back(session.View().state());
  }

  // Chained consecutive diffs (the recorded O(changes) path)...
  DeltaReplica chained;
  ASSERT_TRUE(chained.Apply(FullStateDelta(*gens[0])).ok());
  for (size_t i = 1; i < gens.size(); ++i) {
    ASSERT_TRUE(chained.Apply(GenerationDiff(*gens[i - 1], *gens[i])).ok());
  }
  // ...and one gap diff (the hashed fallback) land on the same state.
  DeltaReplica gapped;
  ASSERT_TRUE(gapped.Apply(FullStateDelta(*gens[0])).ok());
  ASSERT_TRUE(
      gapped.Apply(GenerationDiff(*gens[0], *gens.back())).ok());
  EXPECT_EQ(chained.pairs(), gapped.pairs());
  EXPECT_EQ(chained.pairs(), SessionIdPairs(*gens.back()));

  // Same generation on both sides: the empty diff.
  const MatchDelta none = GenerationDiff(*gens.back(), *gens.back());
  EXPECT_TRUE(none.added.empty());
  EXPECT_TRUE(none.retired.empty());
  EXPECT_TRUE(none.merges.empty());
}

TEST_F(StreamDeltaTest, FirstMatchBetweenStandingRecordsIsASingletonMerge) {
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok());
  // Two standing singleton clusters fused by an update: generation 1
  // holds the right record plus a mangled left record (no match), then
  // the left record's true values arrive — the added pair must come
  // with a merge event naming both singleton clusters. A record that is
  // *new* in the to-generation never names a cluster (it only provides
  // connectivity), so both records have to pre-exist.
  for (size_t i = 0; i < 20; ++i) {
    api::MatchSession session(*plan);
    Tuple mangled = data_.instance.left().tuple(i);
    for (size_t v = 0; v < mangled.arity(); ++v) {
      mangled.set_value(v, "mangled-" + std::to_string(v));
    }
    ASSERT_TRUE(session.Upsert(0, std::move(mangled)).ok());
    ASSERT_TRUE(session.Upsert(1, data_.instance.right().tuple(i)).ok());
    ASSERT_TRUE(session.Flush().ok());
    const api::SessionGenerationPtr g1 = session.View().state();
    if (!g1->state->matches.empty()) continue;  // mangle too weak

    ASSERT_TRUE(session.Upsert(0, data_.instance.left().tuple(i)).ok());
    ASSERT_TRUE(session.Flush().ok());
    const api::SessionGenerationPtr g2 = session.View().state();

    const MatchDelta delta = GenerationDiff(*g1, *g2);
    if (delta.added.empty()) continue;  // this pair doesn't match alone

    ASSERT_EQ(delta.merges.size(), 1u);
    const std::vector<std::pair<int, TupleId>> expect = {
        {0, data_.instance.left().tuple(i).id()},
        {1, data_.instance.right().tuple(i).id()}};
    EXPECT_EQ(delta.merges[0].members, expect);
    return;
  }
  FAIL() << "no standing singleton pair fused in 20 attempts";
}

TEST_F(StreamDeltaTest, MergesOnlyNameClustersThatExistedSeparately) {
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok());
  api::MatchSession session(*plan);
  for (size_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(session.Upsert(0, data_.instance.left().tuple(i)).ok());
    ASSERT_TRUE(session.Upsert(1, data_.instance.right().tuple(i)).ok());
  }
  ASSERT_TRUE(session.Flush().ok());
  const api::SessionGenerationPtr g1 = session.View().state();
  for (size_t i = 40; i < 100; ++i) {
    ASSERT_TRUE(session.Upsert(0, data_.instance.left().tuple(i)).ok());
    ASSERT_TRUE(session.Upsert(1, data_.instance.right().tuple(i)).ok());
  }
  ASSERT_TRUE(session.Flush().ok());
  const api::SessionGenerationPtr g2 = session.View().state();

  const MatchDelta delta = GenerationDiff(*g1, *g2);
  for (const ClusterMergeEvent& merge : delta.merges) {
    EXPECT_GE(merge.members.size(), 2u);
    EXPECT_TRUE(
        std::is_sorted(merge.members.begin(), merge.members.end()));
    for (const auto& [side, id] : merge.members) {
      // Every named cluster is anchored by a record that existed in g1.
      EXPECT_TRUE(g1->state->ids[side].Get(id) != nullptr)
          << "merge member (" << side << ", " << id
          << ") did not exist in the from-generation";
    }
  }
}

TEST_F(StreamDeltaTest, ReplicaRejectsGapsAndInconsistentDeltas) {
  DeltaReplica replica;
  MatchDelta gap;
  gap.from_generation = 3;
  gap.to_generation = 4;
  EXPECT_EQ(replica.Apply(gap).code(), StatusCode::kFailedPrecondition);

  MatchDelta first;
  first.from_generation = 0;
  first.to_generation = 1;
  first.added = {IdPair{1, 2}};
  ASSERT_TRUE(replica.Apply(first).ok());

  MatchDelta dup;
  dup.from_generation = 1;
  dup.to_generation = 2;
  dup.added = {IdPair{1, 2}};  // already held
  EXPECT_EQ(replica.Apply(dup).code(), StatusCode::kInternal);

  DeltaReplica fresh;
  ASSERT_TRUE(fresh.Apply(first).ok());
  MatchDelta phantom;
  phantom.from_generation = 1;
  phantom.to_generation = 2;
  phantom.retired = {IdPair{7, 7}};  // never held
  EXPECT_EQ(fresh.Apply(phantom).code(), StatusCode::kInternal);
}

TEST_F(StreamIngestDriverTest, DrainBarrierCoversEverythingEnqueued) {
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok());
  IngestDriver driver(*plan);
  for (size_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(driver.Upsert(0, data_.instance.left().tuple(i)).ok());
    ASSERT_TRUE(driver.Upsert(1, data_.instance.right().tuple(i)).ok());
  }
  auto report = driver.Drain();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(driver.session().left_size(), 50u);
  EXPECT_EQ(driver.session().right_size(), 50u);
  EXPECT_GT(driver.generation(), 0u);
  // An idle Drain is immediate and returns the standing report.
  auto again = driver.Drain();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->generation, report->generation);

  const IngestStats stats = driver.stats();
  EXPECT_EQ(stats.ops_enqueued, 100u);
  EXPECT_EQ(stats.ops_flushed, 100u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_GT(stats.flushes, 0u);
}

TEST_F(StreamIngestDriverTest, AsyncMatchesSynchronousIngestExactly) {
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok());

  api::MatchSession sync_session(*plan);
  IngestDriver driver(*plan);
  for (size_t i = 0; i < 80; ++i) {
    ASSERT_TRUE(
        sync_session.Upsert(0, data_.instance.left().tuple(i)).ok());
    ASSERT_TRUE(
        sync_session.Upsert(1, data_.instance.right().tuple(i)).ok());
    ASSERT_TRUE(driver.Upsert(0, data_.instance.left().tuple(i)).ok());
    ASSERT_TRUE(driver.Upsert(1, data_.instance.right().tuple(i)).ok());
  }
  ASSERT_TRUE(sync_session.Flush().ok());
  ASSERT_TRUE(driver.Drain().ok());

  EXPECT_EQ(SessionIdPairs(*driver.View().state()),
            SessionIdPairs(*sync_session.View().state()));

  // The rest of the corpus as a stream: the driver takes every record
  // with no barrier in between, so its flusher coalesces whatever queued
  // up per cycle, while the synchronous session flushes each record
  // alone. Both must land on the same state.
  std::vector<std::pair<int, Tuple>> tail;
  for (size_t i = 80; i < data_.instance.left().size(); ++i) {
    tail.emplace_back(0, data_.instance.left().tuple(i));
  }
  for (size_t i = 80; i < data_.instance.right().size(); ++i) {
    tail.emplace_back(1, data_.instance.right().tuple(i));
  }
  ASSERT_FALSE(tail.empty());
  for (const auto& [side, tuple] : tail) {
    ASSERT_TRUE(driver.Upsert(side, tuple).ok());
  }
  for (const auto& [side, tuple] : tail) {
    ASSERT_TRUE(sync_session.Upsert(side, tuple).ok());
    ASSERT_TRUE(sync_session.Flush().ok());
  }
  ASSERT_TRUE(driver.Drain().ok());

  EXPECT_EQ(driver.session().left_size(), data_.instance.left().size());
  EXPECT_EQ(driver.session().right_size(), data_.instance.right().size());
  EXPECT_EQ(SessionIdPairs(*driver.View().state()),
            SessionIdPairs(*sync_session.View().state()));
}

TEST_F(StreamIngestDriverTest, RejectBackpressureSurfacesQueueFull) {
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok());
  IngestDriverOptions options;
  options.queue_capacity = 1;
  options.backpressure = IngestDriverOptions::Backpressure::kReject;
  IngestDriver driver(*plan, {}, options);

  // Seed a standing corpus so each flush cycle takes real time, then
  // spam a capacity-1 queue: some ops must bounce with kQueueFull.
  size_t rejected = 0;
  for (size_t round = 0; round < 200; ++round) {
    for (size_t i = 0; i < 60; ++i) {
      Status st = driver.Upsert(0, data_.instance.left().tuple(i));
      if (!st.ok()) {
        ASSERT_EQ(st.code(), StatusCode::kQueueFull) << st.ToString();
        ++rejected;
      }
    }
    if (rejected > 0 && round >= 2) break;
  }
  ASSERT_GT(rejected, 0u);
  EXPECT_EQ(driver.stats().ops_rejected, rejected);
  // Rejections lost no accepted op: everything enqueued still flushes.
  ASSERT_TRUE(driver.Drain().ok());
  EXPECT_EQ(driver.stats().ops_flushed, driver.stats().ops_enqueued);
}

TEST_F(StreamIngestDriverTest, BlockBackpressureAcceptsEverything) {
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok());
  IngestDriverOptions options;
  options.queue_capacity = 4;  // forces producers through the wait path
  IngestDriver driver(*plan, {}, options);
  for (size_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(driver.Upsert(0, data_.instance.left().tuple(i)).ok());
    ASSERT_TRUE(driver.Upsert(1, data_.instance.right().tuple(i)).ok());
  }
  ASSERT_TRUE(driver.Drain().ok());
  const IngestStats stats = driver.stats();
  EXPECT_EQ(stats.ops_rejected, 0u);
  EXPECT_EQ(stats.ops_flushed, 200u);
  EXPECT_EQ(driver.session().left_size(), 100u);
}

TEST_F(StreamIngestDriverTest, StopIsCleanAndRefusesLaterOps) {
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok());
  IngestDriver driver(*plan);
  ReplicaSink sink;
  driver.Subscribe(&sink);
  for (size_t i = 0; i < 30; ++i) {
    ASSERT_TRUE(driver.Upsert(0, data_.instance.left().tuple(i)).ok());
    ASSERT_TRUE(driver.Upsert(1, data_.instance.right().tuple(i)).ok());
  }
  driver.Stop();
  // Stop flushed the tail and delivered every delta before returning.
  EXPECT_EQ(sink.error(), "");
  EXPECT_EQ(sink.generation(), driver.generation());
  EXPECT_EQ(sink.pairs(), SessionIdPairs(*driver.View().state()));

  EXPECT_EQ(driver.Upsert(0, data_.instance.left().tuple(0)).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(driver.Remove(0, 1).code(), StatusCode::kFailedPrecondition);
  driver.Stop();  // idempotent
}

TEST_F(StreamIngestDriverTest, SubscribeMidStreamWithInitialSnapshot) {
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok());
  IngestDriver driver(*plan);
  for (size_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(driver.Upsert(0, data_.instance.left().tuple(i)).ok());
    ASSERT_TRUE(driver.Upsert(1, data_.instance.right().tuple(i)).ok());
  }
  ASSERT_TRUE(driver.Drain().ok());

  // Late subscriber: one resync snapshot of the standing state, then
  // incremental deltas chained onto it.
  ReplicaSink sink;
  SubscribeOptions options;
  options.initial_snapshot = true;
  driver.Subscribe(&sink, options);
  for (size_t i = 40; i < 80; ++i) {
    ASSERT_TRUE(driver.Upsert(0, data_.instance.left().tuple(i)).ok());
    ASSERT_TRUE(driver.Upsert(1, data_.instance.right().tuple(i)).ok());
  }
  driver.Stop();
  EXPECT_EQ(sink.error(), "");
  EXPECT_GE(sink.resyncs(), 1u);
  EXPECT_EQ(sink.generation(), driver.generation());
  EXPECT_EQ(sink.pairs(), SessionIdPairs(*driver.View().state()));
}

TEST_F(StreamIngestDriverTest, SlowSubscriberIsResyncedNotUnbounded) {
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok());
  IngestDriverOptions options;
  options.subscriber_queue_capacity = 1;
  IngestDriver driver(*plan, {}, options);

  // A sink that sleeps through deliveries behind a queue of 1: the
  // fan-out must overflow it and replace the backlog with one resync.
  class SleepySink : public MatchDeltaSink {
   public:
    void OnDelta(const MatchDelta& delta) override {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      std::lock_guard<std::mutex> lock(mu_);
      Status st = replica_.Apply(delta);
      if (!st.ok() && error_.empty()) error_ = st.ToString();
    }
    std::string error() const {
      std::lock_guard<std::mutex> lock(mu_);
      return error_;
    }
    const DeltaReplica& replica() const { return replica_; }

   private:
    mutable std::mutex mu_;
    DeltaReplica replica_;
    std::string error_;
  } sink;

  driver.Subscribe(&sink);

  // Many single-record generations back to back, each forced through
  // its own flush cycle by the Drain barrier.
  for (size_t i = 0; i < 25; ++i) {
    ASSERT_TRUE(driver.Upsert(0, data_.instance.left().tuple(i)).ok());
    ASSERT_TRUE(driver.Upsert(1, data_.instance.right().tuple(i)).ok());
    ASSERT_TRUE(driver.Drain().ok());
  }
  driver.Stop();

  EXPECT_EQ(sink.error(), "");
  EXPECT_GT(driver.stats().resyncs, 0u);
  // Lossy on intermediate generations, never on the final state.
  EXPECT_EQ(sink.replica().pairs(), SessionIdPairs(*driver.View().state()));
  EXPECT_EQ(sink.replica().generation(), driver.generation());
  EXPECT_GE(sink.replica().resyncs(), 1u);
}

TEST_F(StreamIngestDriverTest, UnsubscribeStopsDeliveryImmediately) {
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok());
  IngestDriver driver(*plan);
  ReplicaSink sink;
  const IngestDriver::SubscriptionId id = driver.Subscribe(&sink);
  ASSERT_TRUE(driver.Upsert(0, data_.instance.left().tuple(0)).ok());
  ASSERT_TRUE(driver.Drain().ok());
  EXPECT_TRUE(driver.Unsubscribe(id));
  EXPECT_FALSE(driver.Unsubscribe(id));
  const size_t delivered = sink.deliveries();

  for (size_t i = 1; i < 20; ++i) {
    ASSERT_TRUE(driver.Upsert(0, data_.instance.left().tuple(i)).ok());
  }
  ASSERT_TRUE(driver.Drain().ok());
  EXPECT_EQ(sink.deliveries(), delivered);
}

TEST_F(StreamIngestDriverTest, ConcurrentStopAndUnsubscribeJoinExactlyOnce) {
  // Regression: Stop() used to snapshot raw Subscriber pointers and join
  // their threads while a concurrent Unsubscribe() erased (and destroyed)
  // the same subscribers — a use-after-free plus a potential double-join
  // (std::terminate). Both paths now funnel through StopSubscriber, which
  // holds the subscriber alive via shared_ptr and claims the join by
  // moving the thread handle out under the subscriber lock, so exactly
  // one of two concurrent stoppers joins.
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok());
  for (int round = 0; round < 8; ++round) {
    IngestDriver driver(*plan);
    constexpr int kSinks = 3;
    ReplicaSink sinks[kSinks];
    IngestDriver::SubscriptionId ids[kSinks];
    for (int s = 0; s < kSinks; ++s) ids[s] = driver.Subscribe(&sinks[s]);
    ASSERT_TRUE(driver.Upsert(0, data_.instance.left().tuple(round)).ok());

    std::atomic<int> unsubscribed{0};
    std::thread unsubscriber([&] {
      for (int s = 0; s < kSinks; ++s) {
        if (driver.Unsubscribe(ids[s])) ++unsubscribed;
      }
    });
    driver.Stop();
    unsubscriber.join();

    // Subscribers the racer missed are still registered (Stop leaves the
    // map intact); every id unsubscribes successfully exactly once.
    for (int s = 0; s < kSinks; ++s) {
      if (driver.Unsubscribe(ids[s])) ++unsubscribed;
    }
    EXPECT_EQ(unsubscribed.load(), kSinks);
    for (int s = 0; s < kSinks; ++s) EXPECT_FALSE(driver.Unsubscribe(ids[s]));
    for (int s = 0; s < kSinks; ++s) EXPECT_EQ(sinks[s].error(), "");
  }
}

TEST_F(StreamIngestDriverTest, SubscribeUnsubscribeChurnDuringIngest) {
  // Regression: Subscribe() used to assign the delivery thread handle
  // after dropping the subscriber lock, so an immediate Unsubscribe()
  // (or a Stop()) could observe an empty handle, skip the join, and leak
  // a running thread into the subscriber's destruction. The handle is
  // now in place before Subscribe() publishes the id.
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok());
  IngestDriver driver(*plan);

  std::atomic<bool> done{false};
  std::atomic<bool> failed{false};
  std::thread producer([&] {
    const size_t n = data_.instance.left().size();
    for (size_t i = 0; !done && i < 10000; ++i) {
      if (!driver.Upsert(0, data_.instance.left().tuple(i % n)).ok()) {
        failed = true;
        return;
      }
    }
  });

  for (int i = 0; i < 60; ++i) {
    ReplicaSink sink;
    SubscribeOptions options;
    if (i % 2 == 0) options.initial_snapshot = true;
    const IngestDriver::SubscriptionId id = driver.Subscribe(&sink, options);
    // Unsubscribe immediately: the delivery thread may not have run yet,
    // but its handle must already be claimable.
    EXPECT_TRUE(driver.Unsubscribe(id));
    EXPECT_EQ(sink.error(), "");
  }
  done = true;
  producer.join();
  EXPECT_FALSE(failed.load());
  driver.Stop();
}

// ---------------------------------------------------------------------
// Reconstruction property: seed + every delivered delta == final state,
// exactly, per plan shape and producer count.

class StreamReconstructionPropertyTest : public StreamTest {
 protected:
  void RunProperty(api::PlanOptions plan_options, size_t producers) {
    auto plan = BuildPlan(plan_options);
    ASSERT_TRUE(plan.ok());
    IngestDriverOptions options;
    options.queue_capacity = 32;  // small: producers hit backpressure
    IngestDriver driver(*plan, {}, options);
    ReplicaSink sink;
    driver.Subscribe(&sink);

    // Each producer owns the indexes i ≡ p (mod producers) and runs
    // upserts, updates and removes over its own records only, so every
    // op sequence is valid regardless of interleaving.
    const size_t n = std::min(data_.instance.left().size(),
                              data_.instance.right().size());
    std::vector<std::thread> threads;
    std::atomic<bool> failed{false};
    for (size_t p = 0; p < producers; ++p) {
      threads.emplace_back([&, p] {
        for (size_t i = p; i < n; i += producers) {
          if (!driver.Upsert(0, data_.instance.left().tuple(i)).ok() ||
              !driver.Upsert(1, data_.instance.right().tuple(i)).ok()) {
            failed = true;
            return;
          }
          if (i % 5 == 0) {  // update wave: same id, drifted value
            Tuple t = data_.instance.left().tuple(i);
            t.set_value(2, t.value(2) + "~");
            if (!driver.Upsert(0, std::move(t)).ok()) {
              failed = true;
              return;
            }
          }
          if (i % 9 == 0) {  // removal of one of this producer's records
            if (!driver
                     .Remove(1, data_.instance.right().tuple(i).id())
                     .ok()) {
              failed = true;
              return;
            }
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    ASSERT_FALSE(failed.load());
    driver.Stop();

    // The strict replica survived every delta (no gap, no double-add,
    // no phantom retire) and reconstructs the final state exactly.
    ASSERT_EQ(sink.error(), "");
    EXPECT_EQ(sink.generation(), driver.generation());
    const std::set<IdPair> expect =
        SessionIdPairs(*driver.View().state());
    EXPECT_EQ(sink.pairs(), expect);
    ASSERT_GT(expect.size(), 0u);

    // Cluster reconstruction: connected components of the delivered id
    // pairs must be in bijection with the session's cluster ids over
    // the matched records.
    std::map<std::pair<int, TupleId>, std::pair<int, TupleId>> parent;
    std::function<std::pair<int, TupleId>(std::pair<int, TupleId>)> find =
        [&](std::pair<int, TupleId> x) {
          while (parent[x] != x) x = parent[x] = parent[parent[x]];
          return x;
        };
    auto unite = [&](std::pair<int, TupleId> a, std::pair<int, TupleId> b) {
      if (!parent.count(a)) parent[a] = a;
      if (!parent.count(b)) parent[b] = b;
      parent[find(a)] = find(b);
    };
    for (const IdPair& pair : sink.pairs()) {
      unite({0, pair.left}, {1, pair.right});
    }
    std::map<std::pair<int, TupleId>, uint64_t> component_cluster;
    std::set<uint64_t> seen_clusters;
    for (const auto& [record, unused] : parent) {
      (void)unused;
      auto cluster =
          driver.session().ClusterOf(record.first, record.second);
      ASSERT_TRUE(cluster.ok());
      const auto root = find(record);
      auto [it, inserted] = component_cluster.try_emplace(root, *cluster);
      if (inserted) {
        // Distinct components sit in distinct session clusters.
        EXPECT_TRUE(seen_clusters.insert(*cluster).second);
      } else {
        // Every member of one component shares one session cluster.
        EXPECT_EQ(it->second, *cluster);
      }
    }
  }
};

TEST_F(StreamReconstructionPropertyTest, WindowingSingleProducer) {
  RunProperty({}, 1);
}

TEST_F(StreamReconstructionPropertyTest, WindowingFourProducers) {
  RunProperty({}, 4);
}

TEST_F(StreamReconstructionPropertyTest, BlockingSingleProducer) {
  api::PlanOptions options;
  options.candidates = api::PlanOptions::Candidates::kBlocking;
  RunProperty(options, 1);
}

TEST_F(StreamReconstructionPropertyTest, BlockingFourProducers) {
  api::PlanOptions options;
  options.candidates = api::PlanOptions::Candidates::kBlocking;
  RunProperty(options, 4);
}

}  // namespace
}  // namespace mdmatch::stream
