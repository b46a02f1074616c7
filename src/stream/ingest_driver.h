#ifndef MDMATCH_STREAM_INGEST_DRIVER_H_
#define MDMATCH_STREAM_INGEST_DRIVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/plan.h"
#include "api/session.h"
#include "schema/tuple.h"
#include "stream/delta.h"
#include "stream/sink.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace mdmatch::stream {

/// Runtime knobs of an IngestDriver.
struct IngestDriverOptions {
  /// Bound of the staging queue, in operations. Producers hitting the
  /// bound block or are rejected per `backpressure`.
  size_t queue_capacity = 4096;
  /// What a producer gets when the staging queue is full: kBlock parks it
  /// until the flusher frees space, kReject returns kQueueFull
  /// immediately (retryable — the queue drains as flushes complete).
  enum class Backpressure { kBlock, kReject };
  Backpressure backpressure = Backpressure::kBlock;
  /// Bound of each subscription's delivery queue, in deltas. When the
  /// flusher finds a queue full it drops everything queued and marks the
  /// subscription for resync (the slow-subscriber policy).
  size_t subscriber_queue_capacity = 256;
};

/// Aggregate counters of an IngestDriver since construction.
struct IngestStats {
  size_t ops_enqueued = 0;   ///< accepted Upsert/Remove calls
  size_t ops_flushed = 0;    ///< ops drained into completed flushes
  size_t ops_rejected = 0;   ///< kReject backpressure refusals
  size_t ops_ignored = 0;    ///< removes of ids unknown at flush time
  size_t flushes = 0;        ///< flush cycles run (incl. no-op ones)
  size_t queue_depth = 0;    ///< staged ops waiting right now
  size_t coalesced_deltas = 0;  ///< ops collapsed per (side, id), total
  size_t deltas_delivered = 0;  ///< deltas enqueued to subscriptions
  size_t resyncs = 0;           ///< slow-subscriber overflow resyncs
  uint64_t generation = 0;      ///< current published generation
};

/// \brief A background ingestion front-end that owns a MatchSession:
/// producers stage records into a bounded queue, one flusher thread
/// drains and flushes, and subscribers receive every published
/// generation's match delta in order.
///
/// Where MatchSession::Flush is a synchronous call the producer pays for,
/// the driver decouples the two rates: Upsert/Remove cost one bounded
/// queue push (blocking or rejecting at capacity, see
/// IngestDriverOptions::backpressure), and the flusher coalesces
/// everything staged since the previous flush into one Flush call — a
/// burst of updates to one record collapses to its last value
/// (IngestReport::coalesced_deltas), and flush cost is paid per *cycle*,
/// not per record. Queries stay what they were: View()/session() answer
/// lock-free from the latest published generation regardless of what the
/// flusher is doing.
///
/// Subscriptions: Subscribe attaches a MatchDeltaSink; after every flush
/// that publishes a generation the flusher computes one GenerationDiff
/// and fans it out to each subscription's bounded queue, from which a
/// dedicated delivery thread runs the sink. Delivery is gap-free and in
/// generation order per subscription: either consecutive diffs chain
/// from == last-delivered to, or — when a slow sink overflowed its queue
/// — a single resync snapshot replaces the backlog (MatchDelta::resync).
/// An empty flush cycle (nothing staged, or only ignorable removes)
/// publishes nothing and wakes no subscriber.
///
/// Shutdown: Stop() (also the destructor) drains the remaining queue
/// through one final flush, stops the flusher, delivers every delta
/// still queued to subscribers, then joins their delivery threads — so
/// after Stop returns, every subscriber saw the final generation and no
/// sink runs again. Drain() is the weaker barrier: it blocks until every
/// op enqueued before the call is flushed, and returns that flush's
/// report.
///
/// Thread safety: every public method is safe from any thread, including
/// concurrent producers. Remove is asynchronous and therefore cannot
/// report NotFound for ids absent at flush time; such removes are
/// dropped and counted (IngestStats::ops_ignored).
class IngestDriver {
 public:
  using SubscriptionId = uint64_t;

  explicit IngestDriver(api::PlanPtr plan,
                        api::SessionOptions session_options = {},
                        IngestDriverOptions options = {});
  ~IngestDriver();

  IngestDriver(const IngestDriver&) = delete;
  IngestDriver& operator=(const IngestDriver&) = delete;

  /// Stages an insert/update. Validates side and arity synchronously;
  /// queue-full handling per IngestDriverOptions::backpressure;
  /// FailedPrecondition after Stop.
  Status Upsert(int side, Tuple tuple) EXCLUDES(queue_mu_);

  /// Stages a removal (dropped silently at flush time when the id is
  /// unknown — see class comment).
  Status Remove(int side, TupleId id) EXCLUDES(queue_mu_);

  /// Blocks until every op enqueued before this call has been flushed,
  /// then returns the report of the flush that covered the last of them
  /// (with IngestReport::queue_depth/coalesced_deltas filled in). An
  /// immediately-satisfied Drain returns the previous flush's report.
  Result<api::IngestReport> Drain() EXCLUDES(queue_mu_);

  /// Final flush of everything staged, then clean shutdown of the
  /// flusher and every subscription (see class comment). Idempotent;
  /// called by the destructor.
  void Stop() EXCLUDES(queue_mu_, subs_mu_);

  /// Attaches a sink; deltas of every generation published after this
  /// call are delivered in order (plus the current state first, with
  /// SubscribeOptions::initial_snapshot). The sink must outlive the
  /// subscription.
  SubscriptionId Subscribe(MatchDeltaSink* sink, SubscribeOptions = {})
      EXCLUDES(subs_mu_);

  /// Detaches and joins the subscription's delivery thread; after the
  /// call returns, its sink is never invoked again. False for unknown
  /// ids.
  bool Unsubscribe(SubscriptionId id) EXCLUDES(subs_mu_);

  /// Lock-free consistent read view of the owned session's latest
  /// published generation (safe concurrently with everything above).
  api::SessionView View() const { return session_.View(); }
  uint64_t generation() const { return session_.generation(); }
  /// The owned session, for its read API. Ingest through the driver, not
  /// the session — staging directly would bypass the queue accounting.
  const api::MatchSession& session() const { return session_; }

  IngestStats stats() const EXCLUDES(queue_mu_);

 private:
  struct StagedOp {
    int side = 0;
    TupleId id = 0;
    std::optional<Tuple> tuple;  ///< nullopt = removal
  };

  struct Subscriber {
    MatchDeltaSink* sink = nullptr;
    util::Mutex mu;
    util::CondVar cv;
    std::deque<std::shared_ptr<const MatchDelta>> queue GUARDED_BY(mu);
    bool lagging GUARDED_BY(mu) = false;  ///< overflowed (or
                                          ///< initial_snapshot): next
                                          ///< delivery is a resync
    bool stop GUARDED_BY(mu) = false;
    /// Generation the sink's state reflects — delivery thread only.
    uint64_t last_generation = 0;
    /// The delivery thread. Started under subs_mu_ *and* mu in Subscribe
    /// (so the subscription is fully registered before the loop can
    /// observe it); joined exactly once, by whoever moves it out under mu
    /// in StopSubscriber — a concurrent Stop/Unsubscribe pair cannot
    /// double-join.
    std::thread thread GUARDED_BY(mu);
  };
  using SubscriberPtr = std::shared_ptr<Subscriber>;

  /// Backpressure-aware staging shared by Upsert and Remove: one bounded
  /// push that blocks or rejects at capacity per options_.backpressure.
  Status StageOp(StagedOp op) EXCLUDES(queue_mu_);

  void FlusherLoop() EXCLUDES(queue_mu_);
  void RunFlushCycle(std::vector<StagedOp> batch) EXCLUDES(queue_mu_);
  void FanOut(const std::shared_ptr<const MatchDelta>& delta)
      EXCLUDES(subs_mu_);
  void DeliveryLoop(Subscriber* sub);
  /// Stops and joins `sub`'s delivery thread (idempotent; see
  /// Subscriber::thread). Callers pass a shared_ptr they own, so the
  /// subscriber outlives the join even when another thread already
  /// erased it from subscribers_.
  void StopSubscriber(const SubscriberPtr& sub);

  api::MatchSession session_;
  IngestDriverOptions options_;

  /// Staging queue + everything the producer/flusher handshake needs.
  mutable util::Mutex queue_mu_;
  util::CondVar queue_cv_;    ///< wakes the flusher
  util::CondVar space_cv_;    ///< wakes blocked producers
  util::CondVar drained_cv_;  ///< wakes Drain waiters
  std::deque<StagedOp> queue_ GUARDED_BY(queue_mu_);
  bool stop_ GUARDED_BY(queue_mu_) = false;
  uint64_t ops_enqueued_ GUARDED_BY(queue_mu_) = 0;
  /// Ops covered by completed flushes.
  uint64_t ops_flushed_through_ GUARDED_BY(queue_mu_) = 0;
  size_t ops_rejected_ GUARDED_BY(queue_mu_) = 0;
  size_t ops_ignored_ GUARDED_BY(queue_mu_) = 0;
  size_t flushes_ GUARDED_BY(queue_mu_) = 0;
  size_t coalesced_total_ GUARDED_BY(queue_mu_) = 0;
  api::IngestReport last_report_ GUARDED_BY(queue_mu_);

  util::Mutex subs_mu_;
  std::unordered_map<SubscriptionId, SubscriberPtr> subscribers_
      GUARDED_BY(subs_mu_);
  SubscriptionId next_subscription_ GUARDED_BY(subs_mu_) = 1;
  std::atomic<size_t> deltas_delivered_{0};
  std::atomic<size_t> resyncs_{0};

  /// The generation the last fan-out described — flusher thread only.
  api::SessionGenerationPtr prev_generation_;
  std::thread flusher_;
};

}  // namespace mdmatch::stream

#endif  // MDMATCH_STREAM_INGEST_DRIVER_H_
