// The `churn` workload: closed-loop update/remove/re-insert waves against
// a fully loaded MatchSession, each wave staged, flushed, diffed and
// applied to a subscriber replica, then staged and flushed on a read
// replica, before the next one starts. The read replica is a second
// MatchSession on the same IndexCatalog entry: its flush adopts the match
// state the primary published (IngestReport::match_reused) instead of
// matching the wave again.
//
// Where the stream workload only inserts, churn moves records inside the
// sorted windows (an update rewrites a key attribute), opens removal gaps
// and re-fills them, so flushes exercise what inserts never do: retiring
// matches, drift re-rank, cluster repair. A wave's latency runs from its
// first staging call to both replicas holding its result.
//
// The session starts from the stream workload's standing corpus (see
// kSessionEntities). The wave size and operation mix below are this
// benchmark's assumptions: no workload of the repository defines update
// or removal traffic yet.

#include <algorithm>
#include <optional>

#include "datagen/noise.h"
#include "perfbench.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace perfbench {
namespace {

/// Operations per wave. Fixed, so a wave's latency varies only with what
/// its operations hit.
constexpr size_t kWaveSize = 64;
/// At most this share of the corpus is removed at any time.
constexpr double kMaxRemovedShare = 0.1;

struct RecordRef {
  int side = 0;
  size_t index = 0;  ///< position in the generated relation
};

/// One staged operation, kept to stage it again on the read replica.
struct StagedOp {
  int side = 0;
  TupleId id = 0;
  std::optional<Tuple> tuple;  ///< the upserted record; none for a removal
};

class ChurnWorkload : public Workload {
 public:
  explicit ChurnWorkload(Dataset dataset) : dataset_(std::move(dataset)) {}

  Status Load() {
    api::SessionOptions options;
    options.num_threads = 1;
    options.catalog = std::make_shared<candidate::IndexCatalog>();
    options.corpus_id = "churn";
    session_ = std::make_unique<api::MatchSession>(dataset_.plan, options);
    reader_ = std::make_unique<api::MatchSession>(dataset_.plan, options);
    for (int side = 0; side < 2; ++side) {
      const Relation& relation = dataset_.data.instance.side(side);
      for (size_t i = 0; i < StandingCount(relation); ++i) {
        MDMATCH_RETURN_NOT_OK(session_->Upsert(side, relation.tuple(i)));
        MDMATCH_RETURN_NOT_OK(reader_->Upsert(side, relation.tuple(i)));
        live_.push_back({side, i});
      }
    }
    MDMATCH_RETURN_NOT_OK(session_->Flush().status());
    MDMATCH_RETURN_NOT_OK(reader_->Flush().status());
    prev_ = session_->View().state();
    return replica_.Apply(stream::FullStateDelta(*prev_));
  }

  Outcome Run(const RunConfig& config) override {
    Outcome outcome;
    Rng rng(config.seed ^ 0x6368726e);  // distinct from the data's stream
    const double start = MonotonicSeconds();
    const double measure_from = start + WarmupSeconds(config);
    const double end = measure_from + config.seconds;
    while (MonotonicSeconds() < end) {
      outcome.control.MaybeRun();
      OpSpans spans;
      size_t failed = 0;
      RunWave(&rng, &spans, &failed, &outcome);
      if (!outcome.correct) break;
      if (spans.start < measure_from) continue;
      outcome.attempted += spans.records;
      outcome.failed += failed;
      outcome.latencies.push_back({spans.start + spans.total, spans.total});
      outcome.ops.push_back(spans);
    }

    const api::SessionView view = session_->View();
    size_t live_by_side[2] = {0, 0};
    for (const RecordRef& ref : live_) ++live_by_side[ref.side];
    if (view.left_size() != live_by_side[0] ||
        view.right_size() != live_by_side[1]) {
      outcome.Fail("corpus size differs from the records left live");
    }
    CheckReplica(replica_, view, "subscriber", &outcome);
    CheckSameMatches(view, reader_->View(), "read replica", &outcome);
    CheckAgainstOneShot(dataset_.plan, view, &outcome);
    outcome.notes.emplace_back(
        "reader_match_reused_share",
        static_cast<double>(reader_reused_) /
            static_cast<double>(std::max<size_t>(1, reader_flushes_)));
    return outcome;
  }

 private:
  /// Stages one wave, flushes it and delivers its diff, filling `spans`.
  void RunWave(Rng* rng, OpSpans* spans, size_t* failed, Outcome* outcome) {
    const size_t corpus = live_.size() + removed_.size();
    std::vector<StagedOp> wave;
    spans->start = MonotonicSeconds();
    for (size_t i = 0; i < kWaveSize; ++i) {
      wave.push_back(NextOp(rng, corpus));
      if (!Stage(session_.get(), wave.back()).ok()) ++*failed;
    }
    const double staged = MonotonicSeconds();
    auto flushed = session_->Flush();
    const double flushed_at = MonotonicSeconds();
    if (!flushed.ok()) {
      outcome->Fail("flush: " + flushed.status().ToString());
      return;
    }
    const api::SessionGenerationPtr now = session_->View().state();
    const stream::MatchDelta delta = stream::GenerationDiff(*prev_, *now);
    const double diffed = MonotonicSeconds();
    if (Status status = replica_.Apply(delta); !status.ok()) {
      outcome->Fail("subscriber apply: " + status.ToString());
    }
    const double applied = MonotonicSeconds();
    prev_ = now;
    for (const StagedOp& op : wave) (void)Stage(reader_.get(), op);
    auto read = reader_->Flush();
    const double read_at = MonotonicSeconds();
    if (!read.ok()) {
      outcome->Fail("read replica flush: " + read.status().ToString());
      return;
    }
    ++reader_flushes_;
    if (read->match_reused) ++reader_reused_;

    spans->records = kWaveSize;
    spans->stage = staged - spans->start;
    spans->AddFlush(*flushed);
    spans->diff = diffed - flushed_at;
    spans->apply = applied - diffed;
    spans->reader = read_at - applied;
    spans->deliver += spans->diff + spans->apply + spans->reader;
    spans->total = read_at - spans->start;
  }

  static Status Stage(api::MatchSession* session, const StagedOp& op) {
    return op.tuple ? session->Upsert(op.side, *op.tuple)
                    : session->Remove(op.side, op.id);
  }

  /// Draws one operation: half updates, a quarter removals, a quarter
  /// re-inserts of removed records (removals give way to re-inserts while
  /// the removed pool is at its cap, and the other way round while the
  /// pool is empty).
  StagedOp NextOp(Rng* rng, size_t corpus) {
    const double draw = rng->NextDouble();
    const bool pool_full = static_cast<double>(removed_.size()) >=
                           kMaxRemovedShare * static_cast<double>(corpus);
    if (draw < 0.5) return NextUpdate(rng);
    if ((draw < 0.75 && !pool_full) || removed_.empty()) {
      RecordRef ref = TakeRandom(rng, &live_);
      removed_.push_back(ref);
      return {ref.side, Original(ref).id(), std::nullopt};
    }
    RecordRef ref = TakeRandom(rng, &removed_);
    live_.push_back(ref);
    return {ref.side, Original(ref).id(), Original(ref)};
  }

  /// Rewrites one matching attribute of a live record: a one-character
  /// typo of its generated value, so values never drift far from it.
  StagedOp NextUpdate(Rng* rng) {
    const RecordRef ref = live_[rng->Index(live_.size())];
    const ComparableLists& target = dataset_.data.target;
    const size_t which = rng->Index(target.size());
    const AttrId attr =
        ref.side == 0 ? target.left()[which] : target.right()[which];
    Tuple tuple = Original(ref);
    tuple.set_value(attr, datagen::MakeTypo(rng, tuple.value(attr)));
    return {ref.side, tuple.id(), std::move(tuple)};
  }

  static RecordRef TakeRandom(Rng* rng, std::vector<RecordRef>* pool) {
    const size_t at = rng->Index(pool->size());
    const RecordRef ref = (*pool)[at];
    (*pool)[at] = pool->back();
    pool->pop_back();
    return ref;
  }

  const Tuple& Original(const RecordRef& ref) const {
    return dataset_.data.instance.side(ref.side).tuple(ref.index);
  }

  Dataset dataset_;
  std::unique_ptr<api::MatchSession> session_;
  std::unique_ptr<api::MatchSession> reader_;  ///< the read replica
  size_t reader_flushes_ = 0;
  size_t reader_reused_ = 0;  ///< reader flushes that adopted the state
  api::SessionGenerationPtr prev_;
  stream::DeltaReplica replica_;
  std::vector<RecordRef> live_;
  std::vector<RecordRef> removed_;
};

}  // namespace

Result<std::unique_ptr<Workload>> SetupChurn(const RunConfig& config) {
  auto dataset =
      MakeDataset(kSessionEntities, config.seed, api::PlanOptions{});
  if (!dataset.ok()) return dataset.status();
  auto workload = std::make_unique<ChurnWorkload>(std::move(*dataset));
  MDMATCH_RETURN_NOT_OK(workload->Load());
  return std::unique_ptr<Workload>(std::move(workload));
}

}  // namespace perfbench
