#include "stream/ingest_driver.h"

#include <string>
#include <utility>

namespace mdmatch::stream {

IngestDriver::IngestDriver(api::PlanPtr plan,
                           api::SessionOptions session_options,
                           IngestDriverOptions options)
    : session_(std::move(plan), std::move(session_options)),
      options_(options) {
  if (options_.queue_capacity == 0) options_.queue_capacity = 1;
  if (options_.subscriber_queue_capacity == 0) {
    options_.subscriber_queue_capacity = 1;
  }
  prev_generation_ = session_.View().state();  // generation 0
  flusher_ = std::thread(&IngestDriver::FlusherLoop, this);
}

IngestDriver::~IngestDriver() { Stop(); }

Status IngestDriver::StageOp(StagedOp op) {
  util::MutexLock lock(queue_mu_);
  if (stop_) return Status::FailedPrecondition("IngestDriver is stopped");
  if (queue_.size() >= options_.queue_capacity) {
    if (options_.backpressure == IngestDriverOptions::Backpressure::kReject) {
      ++ops_rejected_;
      return Status::QueueFull(
          "ingest staging queue at capacity (" +
          std::to_string(options_.queue_capacity) + " ops)");
    }
    while (!stop_ && queue_.size() >= options_.queue_capacity) {
      space_cv_.Wait(queue_mu_);
    }
    if (stop_) return Status::FailedPrecondition("IngestDriver is stopped");
  }
  queue_.push_back(std::move(op));
  ++ops_enqueued_;
  queue_cv_.NotifyOne();
  return Status::OK();
}

Status IngestDriver::Upsert(int side, Tuple tuple) {
  if (side != 0 && side != 1) {
    return Status::InvalidArgument("side must be 0 (left) or 1 (right)");
  }
  const Schema& schema = side == 0 ? session_.plan().pair().left()
                                   : session_.plan().pair().right();
  if (static_cast<int32_t>(tuple.arity()) != schema.arity()) {
    return Status::InvalidArgument("tuple arity does not match schema " +
                                   schema.name());
  }
  StagedOp op;
  op.side = side;
  op.id = tuple.id();
  op.tuple = std::move(tuple);
  return StageOp(std::move(op));
}

Status IngestDriver::Remove(int side, TupleId id) {
  if (side != 0 && side != 1) {
    return Status::InvalidArgument("side must be 0 (left) or 1 (right)");
  }
  StagedOp op;
  op.side = side;
  op.id = id;
  return StageOp(std::move(op));
}

void IngestDriver::FlusherLoop() {
  for (;;) {
    std::vector<StagedOp> batch;
    {
      util::MutexLock lock(queue_mu_);
      while (!stop_ && queue_.empty()) queue_cv_.Wait(queue_mu_);
      if (queue_.empty()) break;  // stop_ with nothing left
      batch.assign(std::make_move_iterator(queue_.begin()),
                   std::make_move_iterator(queue_.end()));
      queue_.clear();
      // Space freed: unblock producers parked on backpressure.
      space_cv_.NotifyAll();
    }
    RunFlushCycle(std::move(batch));
  }
  // All ops are flushed; release any Drain still parked.
  drained_cv_.NotifyAll();
}

void IngestDriver::RunFlushCycle(std::vector<StagedOp> batch) {
  size_t ignored = 0;
  for (StagedOp& op : batch) {
    if (op.tuple.has_value()) {
      // Side and arity were validated at enqueue; this cannot fail.
      (void)session_.Upsert(op.side, std::move(*op.tuple));
    } else if (!session_.Remove(op.side, op.id).ok()) {
      // Removal of an id unknown to the session: asynchronous Remove
      // cannot report NotFound to its caller, so the op is dropped.
      ++ignored;
    }
  }

  auto flushed = session_.Flush();
  // Flush only fails on internal invariant breaks; there is no caller to
  // surface it to here, so record what we can and keep the loop alive.
  api::IngestReport report =
      flushed.ok() ? *flushed : api::IngestReport{};

  if (flushed.ok() &&
      report.generation != prev_generation_->generation) {
    // One diff per published generation, shared by every subscription.
    const api::SessionGenerationPtr now = session_.View().state();
    auto delta = std::make_shared<const MatchDelta>(
        GenerationDiff(*prev_generation_, *now));
    prev_generation_ = now;
    FanOut(delta);
  }

  {
    util::MutexLock lock(queue_mu_);
    ops_flushed_through_ += batch.size();
    ops_ignored_ += ignored;
    ++flushes_;
    coalesced_total_ += report.coalesced_deltas;
    report.queue_depth = queue_.size();
    last_report_ = report;
  }
  drained_cv_.NotifyAll();
}

void IngestDriver::FanOut(const std::shared_ptr<const MatchDelta>& delta) {
  util::MutexLock subs_lock(subs_mu_);
  for (auto& [id, sub] : subscribers_) {
    (void)id;
    util::MutexLock lock(sub->mu);
    if (sub->lagging) {
      // Resync pending: it will cover this generation too.
    } else if (sub->queue.size() >= options_.subscriber_queue_capacity) {
      // Slow subscriber: drop the backlog, one resync replaces it.
      sub->queue.clear();
      sub->lagging = true;
      resyncs_.fetch_add(1, std::memory_order_relaxed);
    } else {
      sub->queue.push_back(delta);
      deltas_delivered_.fetch_add(1, std::memory_order_relaxed);
    }
    sub->cv.NotifyOne();
  }
}

void IngestDriver::DeliveryLoop(Subscriber* sub) {
  for (;;) {
    std::shared_ptr<const MatchDelta> next;
    bool do_resync = false;
    {
      util::MutexLock lock(sub->mu);
      while (!sub->stop && !sub->lagging && sub->queue.empty()) {
        sub->cv.Wait(sub->mu);
      }
      if (sub->lagging) {
        sub->lagging = false;
        do_resync = true;
      } else if (!sub->queue.empty()) {
        next = std::move(sub->queue.front());
        sub->queue.pop_front();
      } else {
        break;  // stop, queue drained, nothing to resync
      }
    }
    if (do_resync) {
      const api::SessionGenerationPtr gen = session_.View().state();
      if (gen->generation > sub->last_generation) {
        sub->sink->OnDelta(FullStateDelta(*gen));
        sub->last_generation = gen->generation;
      }
      continue;
    }
    if (next->to_generation <= sub->last_generation) {
      continue;  // already covered by a resync snapshot
    }
    if (next->from_generation != sub->last_generation) {
      // A gap the overflow path did not mark (cannot happen with one
      // flusher, but the invariant is cheap to enforce): resync.
      util::MutexLock lock(sub->mu);
      sub->lagging = true;
      continue;
    }
    sub->sink->OnDelta(*next);
    sub->last_generation = next->to_generation;
  }
}

IngestDriver::SubscriptionId IngestDriver::Subscribe(
    MatchDeltaSink* sink, SubscribeOptions options) {
  auto sub = std::make_shared<Subscriber>();
  sub->sink = sink;
  // Registration and the generation read happen under the fan-out mutex,
  // so the subscription either receives a generation's delta or starts at
  // (or past) it — never misses one in between. The delivery thread also
  // starts before subs_mu_ is released: once Subscribe returns (and a
  // concurrent Unsubscribe of the returned id can exist at all), the
  // thread handle is in place for StopSubscriber to claim.
  util::MutexLock subs_lock(subs_mu_);
  {
    util::MutexLock lock(sub->mu);
    sub->last_generation = session_.generation();
    if (options.initial_snapshot) {
      sub->last_generation = 0;
      sub->lagging = true;  // first delivery: resync of the current state
    }
    sub->thread = std::thread(&IngestDriver::DeliveryLoop, this, sub.get());
  }
  const SubscriptionId id = next_subscription_++;
  subscribers_.emplace(id, std::move(sub));
  return id;
}

void IngestDriver::StopSubscriber(const SubscriberPtr& sub) {
  std::thread thread;
  {
    util::MutexLock lock(sub->mu);
    sub->stop = true;
    // Claim the join: of two concurrent stoppers (Stop racing
    // Unsubscribe), exactly one moves the handle out; the other finds it
    // empty and returns without joining.
    thread = std::move(sub->thread);
  }
  sub->cv.NotifyAll();
  if (thread.joinable()) thread.join();
}

bool IngestDriver::Unsubscribe(SubscriptionId id) {
  SubscriberPtr sub;
  {
    util::MutexLock subs_lock(subs_mu_);
    auto found = subscribers_.find(id);
    if (found == subscribers_.end()) return false;
    sub = std::move(found->second);
    subscribers_.erase(found);
  }
  StopSubscriber(sub);
  return true;
}

void IngestDriver::Stop() {
  {
    util::MutexLock lock(queue_mu_);
    stop_ = true;
  }
  queue_cv_.NotifyAll();
  space_cv_.NotifyAll();
  if (flusher_.joinable()) flusher_.join();
  drained_cv_.NotifyAll();

  // Flushing is over: every remaining queued delta gets delivered, then
  // the delivery threads exit. Subscribers stay registered (Unsubscribe
  // still works) but their sinks never run again. The snapshot holds
  // shared_ptrs, so a concurrent Unsubscribe erasing an entry cannot
  // destroy a subscriber out from under the stop below.
  std::vector<SubscriberPtr> subs;
  {
    util::MutexLock subs_lock(subs_mu_);
    subs.reserve(subscribers_.size());
    for (auto& [id, sub] : subscribers_) {
      (void)id;
      subs.push_back(sub);
    }
  }
  for (const SubscriberPtr& sub : subs) StopSubscriber(sub);
}

IngestStats IngestDriver::stats() const {
  IngestStats stats;
  {
    util::MutexLock lock(queue_mu_);
    stats.ops_enqueued = ops_enqueued_;
    stats.ops_flushed = ops_flushed_through_;
    stats.ops_rejected = ops_rejected_;
    stats.ops_ignored = ops_ignored_;
    stats.flushes = flushes_;
    stats.queue_depth = queue_.size();
    stats.coalesced_deltas = coalesced_total_;
  }
  stats.deltas_delivered = deltas_delivered_.load(std::memory_order_relaxed);
  stats.resyncs = resyncs_.load(std::memory_order_relaxed);
  stats.generation = session_.generation();
  return stats;
}

Result<api::IngestReport> IngestDriver::Drain() {
  util::MutexLock lock(queue_mu_);
  const uint64_t ticket = ops_enqueued_;
  while (ops_flushed_through_ < ticket && !(stop_ && queue_.empty())) {
    drained_cv_.Wait(queue_mu_);
  }
  if (ops_flushed_through_ < ticket) {
    return Status::FailedPrecondition(
        "IngestDriver stopped before the drained ops were flushed");
  }
  return last_report_;
}

}  // namespace mdmatch::stream
