// The `stream` workload: paced (open-loop) ingest through
// stream::IngestDriver — producer → staging queue → Flush → publish →
// GenerationDiff → subscriber delivery.
//
// Set-up bulk-loads the standing corpus (the first 80% of each relation,
// see kSessionEntities). The run offers the records that follow it
// (duplicates) at a fixed rate, each due at t0 + i / rate no matter how
// far the system lags, to two subscribers that each keep a replica of the
// match state. A match's latency runs from the due time of the later of
// its two records (the last input that made the match possible) to its
// delivery at a subscriber.
//
// The traced run offers the same stream the same way, then replays it
// synchronously through a MatchSession one record per flush cycle (what
// the IngestDriver coalesces at kRate), timing staging, each flush stage, the
// diff and the subscriber apply of every cycle.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>
#include <unordered_map>

#include "perfbench.h"
#include "stream/ingest_driver.h"
#include "util/stopwatch.h"

namespace perfbench {
namespace {

/// Offered input rate, records per second. At this rate the flusher is
/// busy about a quarter of the time on the standing corpus, so latency
/// stays a measure of flush work rather than of a growing backlog.
constexpr double kRate = 20;
/// The IngestDriver's staging queue bound, in records. The load outruns the
/// flusher, so it is flushed in chunks of this size. The stream never
/// fills the queue (SetupStream checks), so the open-loop producer never
/// blocks and a backlog shows as latency, not as a slower producer.
constexpr size_t kQueueCapacity = 4096;
/// How long before a record's due time the control arm runs: well after
/// the previous record's flush ends, and long enough before the record
/// for the kernel (about 1.3 ms) to finish.
constexpr auto kControlLead = std::chrono::milliseconds(10);

using SteadyTime = std::chrono::steady_clock::time_point;

double ToSeconds(SteadyTime t) {
  return std::chrono::duration<double>(t.time_since_epoch()).count();
}

/// When the i-th streamed record is due, for a stream starting at t0.
SteadyTime DueAt(SteadyTime t0, size_t i) {
  return t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(static_cast<double>(i) /
                                                kRate));
}

uint64_t RecordKey(int side, TupleId id) {
  return static_cast<uint64_t>(id) * 2 + static_cast<uint64_t>(side);
}

/// A subscriber: keeps a replica of the match state and samples the
/// delivery latency of every match added after `measure_from`.
class LatencySink : public stream::MatchDeltaSink {
 public:
  /// `due` maps a streamed record to its due time; standing records are
  /// absent (they were loaded before the run).
  LatencySink(const std::unordered_map<uint64_t, double>* due,
              double measure_from)
      : due_(due), measure_from_(measure_from) {}

  void OnDelta(const stream::MatchDelta& delta) override {
    const double now = MonotonicSeconds();
    if (delta.resync) {
      ++resyncs_;  // a snapshot names no single arrival to time from
    } else {
      for (const stream::IdPair& pair : delta.added) {
        const double due = std::max(DueOf(0, pair.left), DueOf(1, pair.right));
        if (due >= measure_from_) latencies_.push_back({now, now - due});
      }
    }
    if (Status status = replica_.Apply(delta); !status.ok() && error_.empty()) {
      error_ = status.ToString();
    }
  }

  const stream::DeltaReplica& replica() const { return replica_; }
  const std::vector<Sample>& latencies() const { return latencies_; }
  size_t resyncs() const { return resyncs_; }
  const std::string& error() const { return error_; }

 private:
  double DueOf(int side, TupleId id) const {
    auto found = due_->find(RecordKey(side, id));
    return found == due_->end() ? -1 : found->second;
  }

  const std::unordered_map<uint64_t, double>* due_;
  double measure_from_;
  stream::DeltaReplica replica_;
  std::vector<Sample> latencies_;
  size_t resyncs_ = 0;
  std::string error_;
};

class StreamWorkload : public Workload {
 public:
  StreamWorkload(Dataset dataset, std::vector<std::pair<int, Tuple>> standing,
                 std::vector<std::pair<int, Tuple>> tail)
      : dataset_(std::move(dataset)),
        standing_(std::move(standing)),
        tail_(std::move(tail)) {}

  Status Load() {
    api::SessionOptions session;
    session.num_threads = 1;
    stream::IngestDriverOptions options;
    options.queue_capacity = kQueueCapacity;
    options.subscriber_queue_capacity = 4096;
    driver_ = std::make_unique<stream::IngestDriver>(dataset_.plan, session,
                                                     options);
    for (const auto& [side, tuple] : standing_) {
      MDMATCH_RETURN_NOT_OK(driver_->Upsert(side, tuple));
    }
    return driver_->Drain().status();
  }

  Outcome Run(const RunConfig& config) override {
    Outcome outcome;
    const size_t flushes_before = driver_->stats().flushes;
    const size_t ops_before = driver_->stats().ops_flushed;
    const size_t warm_records = OfferPaced(config, &outcome);
    const stream::IngestStats after = driver_->stats();
    const double flushes = static_cast<double>(after.flushes - flushes_before);
    const double ops_per_flush =
        static_cast<double>(after.ops_flushed - ops_before) /
        std::max(1.0, flushes);
    outcome.notes.emplace_back("stream_flushes", flushes);
    outcome.notes.emplace_back("stream_ops_per_flush", ops_per_flush);

    const api::SessionView view = driver_->View();
    if (view.left_size() + view.right_size() !=
        standing_.size() + tail_.size()) {
      outcome.Fail("corpus holds " +
                   std::to_string(view.left_size() + view.right_size()) +
                   " records, expected " +
                   std::to_string(standing_.size() + tail_.size()));
    }
    CheckAgainstOneShot(dataset_.plan, view, &outcome);
    if (config.trace) Replay(warm_records, &outcome);
    return outcome;
  }

 private:
  /// Offers the tail at kRate to two subscribers; returns how many of the
  /// offered records fell in the warm-up.
  size_t OfferPaced(const RunConfig& config, Outcome* outcome) {
    const SteadyTime t0 =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(50);
    const double measure_from = ToSeconds(t0) + WarmupSeconds(config);
    std::unordered_map<uint64_t, double> due;
    due.reserve(tail_.size());
    for (size_t i = 0; i < tail_.size(); ++i) {
      due.emplace(RecordKey(tail_[i].first, tail_[i].second.id()),
                  ToSeconds(DueAt(t0, i)));
    }
    LatencySink sinks[2] = {LatencySink(&due, measure_from),
                            LatencySink(&due, measure_from)};
    stream::IngestDriver::SubscriptionId subscriptions[2];
    stream::SubscribeOptions subscribe;
    subscribe.initial_snapshot = true;  // the replica starts from the load
    for (int i = 0; i < 2; ++i) {
      subscriptions[i] = driver_->Subscribe(&sinks[i], subscribe);
    }

    size_t warm_records = 0;
    double max_lateness = 0;
    for (size_t i = 0; i < tail_.size(); ++i) {
      const SteadyTime due_at = DueAt(t0, i);
      // The control arm runs in the gap before each record, when the
      // previous flush is long done and the IngestDriver's threads idle:
      // run during a flush, it would measure the contention with it
      // instead of the machine's speed.
      std::this_thread::sleep_until(due_at - kControlLead);
      outcome->control.Run();
      std::this_thread::sleep_until(due_at);
      max_lateness = std::max(
          max_lateness, MonotonicSeconds() - ToSeconds(due_at));
      const Status status = driver_->Upsert(tail_[i].first, tail_[i].second);
      if (ToSeconds(due_at) < measure_from) {
        ++warm_records;
        if (!status.ok()) outcome->Fail("warm-up upsert: " + status.ToString());
        continue;
      }
      ++outcome->attempted;
      if (!status.ok()) ++outcome->failed;
    }
    if (auto drained = driver_->Drain(); !drained.ok()) {
      outcome->Fail("drain: " + drained.status().ToString());
    }
    // Every delta is queued once Drain returns; Unsubscribe delivers the
    // queue and joins the delivery thread.
    for (auto subscription : subscriptions) driver_->Unsubscribe(subscription);

    const api::SessionView view = driver_->View();
    size_t resyncs = 0;
    for (int i = 0; i < 2; ++i) {
      if (!sinks[i].error().empty()) {
        outcome->Fail("subscriber apply: " + sinks[i].error());
      }
      CheckReplica(sinks[i].replica(), view,
                   "subscriber " + std::to_string(i), outcome);
      outcome->latencies.insert(outcome->latencies.end(),
                                sinks[i].latencies().begin(),
                                sinks[i].latencies().end());
      resyncs += sinks[i].resyncs() - 1;  // past the initial snapshot
    }
    outcome->notes.emplace_back("producer_max_lateness_ms",
                                max_lateness * 1e3);
    outcome->notes.emplace_back("subscriber_resyncs",
                                static_cast<double>(resyncs));
    return warm_records;
  }

  /// Replays the standing load and the tail through a fresh session, one
  /// record per cycle, recording each cycle's layer spans (the records
  /// offered inside the warm-up are replayed but not recorded). The cycle
  /// is fixed rather than taken from the paced run's coalescing, so the
  /// layer figures do not step when the flush speed moves. Cycles start
  /// at the records' due times, as in the paced run: between two paced
  /// flushes the session's working set leaves the caches, which about
  /// doubles the drift re-rank's cost over back-to-back flushes.
  void Replay(size_t warm_records, Outcome* outcome) {
    api::SessionOptions options;
    options.num_threads = 1;
    api::MatchSession session(dataset_.plan, options);
    // The load flushes a full queue at a time, as the IngestDriver's did: a
    // session grown in chunks flushes slower than one loaded at once.
    for (size_t i = 0; i < standing_.size(); ++i) {
      (void)session.Upsert(standing_[i].first, standing_[i].second);
      if ((i + 1) % kQueueCapacity != 0 && i + 1 < standing_.size()) continue;
      if (auto flushed = session.Flush(); !flushed.ok()) {
        outcome->Fail("replay load: " + flushed.status().ToString());
        return;
      }
    }
    api::SessionGenerationPtr prev = session.View().state();
    stream::DeltaReplica replicas[2];
    for (auto& replica : replicas) {
      (void)replica.Apply(stream::FullStateDelta(*prev));
    }

    const SteadyTime t0 = std::chrono::steady_clock::now();
    for (size_t i = 0; i < tail_.size(); ++i) {
      std::this_thread::sleep_until(DueAt(t0, i));
      OpSpans spans;
      spans.start = MonotonicSeconds();
      if (!session.Upsert(tail_[i].first, tail_[i].second).ok()) {
        outcome->Fail("replay upsert failed");
      }
      const double staged = MonotonicSeconds();
      auto flushed = session.Flush();
      const double flushed_at = MonotonicSeconds();
      if (!flushed.ok()) {
        outcome->Fail("replay flush: " + flushed.status().ToString());
        return;
      }
      const api::SessionGenerationPtr now = session.View().state();
      const stream::MatchDelta delta = stream::GenerationDiff(*prev, *now);
      const double diffed = MonotonicSeconds();
      for (auto& replica : replicas) {
        if (!replica.Apply(delta).ok()) outcome->Fail("replay apply failed");
      }
      const double applied = MonotonicSeconds();
      prev = now;

      spans.records = 1;
      spans.stage = staged - spans.start;
      spans.AddFlush(*flushed);
      spans.diff = diffed - flushed_at;
      spans.apply = applied - diffed;
      spans.deliver += spans.diff + spans.apply;
      spans.total = applied - spans.start;
      if (i >= warm_records) outcome->ops.push_back(spans);
    }
    const api::SessionView view = session.View();
    for (int i = 0; i < 2; ++i) {
      CheckReplica(replicas[i], view, "replay subscriber " + std::to_string(i),
                   outcome);
    }
    CheckAgainstOneShot(dataset_.plan, view, outcome);
  }

  Dataset dataset_;
  std::vector<std::pair<int, Tuple>> standing_;
  std::vector<std::pair<int, Tuple>> tail_;
  std::unique_ptr<stream::IngestDriver> driver_;
};

}  // namespace

Result<std::unique_ptr<Workload>> SetupStream(const RunConfig& config) {
  const size_t streamed = static_cast<size_t>(
      std::ceil(kRate * (config.seconds + WarmupSeconds(config))));
  // The stream takes the streamed/2 records of each side that follow the
  // standing corpus: duplicates, which match its base records.
  const size_t per_side = (streamed + 1) / 2;
  if (2 * per_side >= kQueueCapacity) {
    return Status::InvalidArgument(
        "--seconds too long: the stream could fill the ingest queue");
  }
  auto dataset =
      MakeDataset(kSessionEntities, config.seed, api::PlanOptions{});
  if (!dataset.ok()) return dataset.status();

  std::vector<std::pair<int, Tuple>> standing;
  std::vector<std::pair<int, Tuple>> tails[2];
  for (int side = 0; side < 2; ++side) {
    const Relation& relation = dataset->data.instance.side(side);
    const size_t base = StandingCount(relation);
    if (base + per_side > relation.size()) {
      return Status::InvalidArgument(
          "--seconds too long: the stream would outrun the dataset");
    }
    for (size_t i = 0; i < base + per_side; ++i) {
      (i < base ? standing : tails[side]).emplace_back(side,
                                                       relation.tuple(i));
    }
  }
  // The stream alternates sides, as two producers' feeds would interleave.
  std::vector<std::pair<int, Tuple>> tail;
  for (size_t i = 0; i < per_side; ++i) {
    for (auto& side_tail : tails) tail.push_back(std::move(side_tail[i]));
  }

  auto workload = std::make_unique<StreamWorkload>(
      std::move(*dataset), std::move(standing), std::move(tail));
  MDMATCH_RETURN_NOT_OK(workload->Load());
  return std::unique_ptr<Workload>(std::move(workload));
}

}  // namespace perfbench
