#include "api/session.h"

#include <algorithm>
#include <cassert>

#include "api/parallel.h"
#include "api/plan_io.h"
#include "candidate/indexed_entry.h"
#include "util/fnv.h"
#include "util/stopwatch.h"

namespace mdmatch::api {

using candidate::IndexedEntry;
using candidate::IndexSnapshot;
using candidate::IndexSnapshotPtr;
using candidate::SortedKeyIndex;
using internal::ParallelChunks;

namespace {

/// FNV-1a over a staged delta: its (side, id, op, values) sequence in the
/// deterministic pending-map order. Two sessions staging identical deltas
/// from identical base versions produce the same fingerprint — the key
/// the IndexCatalog match store memoizes published states under.
uint64_t FingerprintDelta(
    const std::map<std::pair<int, TupleId>, std::optional<Tuple>>& pending) {
  uint64_t hash = kFnvOffsetBasis;
  for (const auto& [key, op] : pending) {
    hash = FnvMixU64(hash, static_cast<uint64_t>(key.first));
    hash = FnvMixU64(hash, static_cast<uint64_t>(key.second));
    hash = FnvMixU64(hash, op.has_value() ? 1 : 2);
    if (op.has_value()) {
      for (const std::string& value : op->values()) {
        hash = FnvMixU64(hash, value.size());
        hash = FnvMixString(hash, value);
      }
    }
  }
  return hash;
}

/// The view's raw match pairs translated from (left seq, right seq) to
/// corpus positions — the addressing Matches()/Clusters() report in.
/// Corpus enumeration is seq-ascending, so position == walk index.
match::MatchResult TranslatedMatches(const SharedMatchState& state) {
  std::vector<uint32_t> pos[2];
  for (int side = 0; side < 2; ++side) {
    pos[side].assign(state.next_seq[side], UINT32_MAX);
    uint32_t index = 0;
    state.corpus[side].ForEach(
        [&pos, side, &index](uint64_t seq, const SessionRecordPtr&) {
          pos[side][seq] = index++;
        });
  }
  match::MatchResult out;
  state.matches.ForEach([&pos, &out](uint32_t l, uint32_t r) {
    out.Add(pos[0][l], pos[1][r]);
  });
  return out;
}

/// The standing counts and generation number of `gen`.
void ReportStanding(const SessionGeneration& gen, IngestReport* report) {
  report->corpus_left = gen.state->corpus[0].size();
  report->corpus_right = gen.state->corpus[1].size();
  report->total_matches = gen.state->matches.size();
  report->generation = gen.generation;
}

/// Sorts and dedupes `v` in place: the record and handle sets of a flush
/// are sorted vectors probed by binary search, and the drift check visits
/// each suspect pair once.
template <typename T>
void SortUnique(std::vector<T>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

bool Has(const std::vector<uint64_t>& sorted, uint64_t value) {
  return std::binary_search(sorted.begin(), sorted.end(), value);
}

/// Standing-pair probe over the session's slot table and pair set. Both
/// records of a standing pair share a cluster handle, so the handle
/// compare rejects almost every other pair before the trie is touched.
template <typename Slots>
bool Standing(const Slots& slots, const match::PersistentPairSet& pairs,
              uint32_t l, uint32_t r) {
  return slots[0][l].handle == slots[1][r].handle && pairs.Contains(l, r);
}

/// Calls fn(left seq, right seq) when `a` and `b` lie on opposite sides.
template <typename Fn>
void IfCrossSide(const IndexedEntry& a, const IndexedEntry& b, Fn& fn) {
  if (a.side != b.side) {
    fn(a.side == 0 ? a.seq : b.seq, a.side == 0 ? b.seq : a.seq);
  }
}

/// Groups the sorted `fresh` ranks (inserted entries) and `gaps` (a gap g
/// sits just before rank g) of an index of `size` entries into the rank
/// ranges [lo, hi) a flush walks, one per run of touching
/// neighbourhoods. A pair of ranks a < b < a + window with a fresh
/// endpoint lies within window - 1 of that endpoint, and one straddling
/// a gap (a < g <= b) within [g - (window - 1), g + window - 1), so every
/// such pair lies inside one span.
std::vector<std::pair<size_t, size_t>> GroupSpans(
    const std::vector<size_t>& fresh, const std::vector<size_t>& gaps,
    size_t window, size_t size) {
  const size_t reach = window - 1;
  std::vector<std::pair<size_t, size_t>> spans;
  for (size_t f = 0, g = 0; f < fresh.size() || g < gaps.size();) {
    const bool is_fresh =
        g == gaps.size() || (f < fresh.size() && fresh[f] <= gaps[g]);
    const size_t at = is_fresh ? fresh[f++] : gaps[g++];
    const size_t lo = at >= reach ? at - reach : 0;
    const size_t hi = std::min(size, at + reach + (is_fresh ? 1 : 0));
    if (spans.empty() || lo > spans.back().second) {
      spans.emplace_back(lo, hi);
    } else {
      spans.back().second = std::max(spans.back().second, hi);
    }
  }
  return spans;
}

/// Calls fn(a, b) once for every pair of ranks lo <= a < b < min(hi,
/// a + window) with a fresh endpoint or straddling a gap, in (a, b)
/// order: the pairs whose window membership the delta may have changed.
template <typename Fn>
void ForEachSpanPair(size_t lo, size_t hi, const std::vector<size_t>& fresh,
                     const std::vector<size_t>& gaps, size_t window,
                     Fn&& fn) {
  // f: the first fresh rank >= a; g: the first gap > a.
  auto f = std::lower_bound(fresh.begin(), fresh.end(), lo);
  auto g = std::upper_bound(gaps.begin(), gaps.end(), lo);
  for (size_t a = lo; a < hi; ++a) {
    while (f != fresh.end() && *f < a) ++f;
    while (g != gaps.end() && *g <= a) ++g;
    const size_t end = std::min(hi, a + window);
    if (f != fresh.end() && *f == a) {
      for (size_t b = a + 1; b < end; ++b) fn(a, b);
      continue;
    }
    // Below the next gap only the fresh ranks pair with `a`; from the gap
    // on, every rank does.
    const size_t straddle = std::min(end, g != gaps.end() ? *g : end);
    for (auto k = f; k != fresh.end() && *k < straddle; ++k) fn(a, *k);
    for (size_t b = straddle; b < end; ++b) fn(a, b);
  }
}

/// The ranks, in every windowing pass but the last, of the entries this
/// flush's spans visited: a flush-local open-addressing table keyed by
/// packed (side, seq) and sized to the spans, so the scan's state stays
/// O(delta x window) rather than corpus-sized.
class VisitedRanks {
 public:
  static constexpr size_t kNone = SIZE_MAX;

  /// Room for `max_rows` entries with `passes` ranks each.
  VisitedRanks(size_t passes, size_t max_rows) : passes_(passes) {
    size_t capacity = 16;
    while (capacity < 2 * max_rows) capacity *= 2;
    keys_.assign(capacity, kEmpty);
    rows_.resize(capacity);
    ranks_.reserve(max_rows * passes);
  }

  /// The row of `key`. When it is absent: a new row with no ranks if
  /// `add`, else kNone.
  size_t Row(uint64_t key, bool add) {
    const size_t mask = keys_.size() - 1;
    for (size_t i = Mix64(key) & mask;; i = (i + 1) & mask) {
      if (keys_[i] == key) return rows_[i];
      if (keys_[i] != kEmpty) continue;
      if (!add) return kNone;
      keys_[i] = key;
      rows_[i] = ranks_.size() / passes_;
      ranks_.resize(ranks_.size() + passes_, kNone);
      return rows_[i];
    }
  }

  void Set(size_t row, size_t pass, size_t rank) {
    ranks_[row * passes_ + pass] = rank;
  }

  /// True when some pass before `pass` visited both rows less than
  /// `window` apart.
  bool Covered(size_t a, size_t b, size_t pass, size_t window) const {
    if (a == kNone || b == kNone) return false;
    for (size_t q = 0; q < pass; ++q) {
      const size_t ra = ranks_[a * passes_ + q];
      const size_t rb = ranks_[b * passes_ + q];
      if (ra != kNone && rb != kNone &&
          (ra > rb ? ra - rb : rb - ra) < window) {
        return true;
      }
    }
    return false;
  }

 private:
  static constexpr uint64_t kEmpty = UINT64_MAX;
  size_t passes_;
  std::vector<uint64_t> keys_;
  std::vector<size_t> rows_;
  std::vector<size_t> ranks_;
};

}  // namespace

// ------------------------------------------------------------ SessionView

Instance SessionView::Corpus() const {
  Relation left(plan_->pair().left());
  Relation right(plan_->pair().right());
  gen_->state->corpus[0].ForEach(
      [&left](uint64_t, const SessionRecordPtr& record) {
        (void)left.AppendTuple(record->tuple);
      });
  gen_->state->corpus[1].ForEach(
      [&right](uint64_t, const SessionRecordPtr& record) {
        (void)right.AppendTuple(record->tuple);
      });
  return Instance(std::move(left), std::move(right));
}

match::MatchResult SessionView::Matches() const {
  match::MatchResult raw = TranslatedMatches(*gen_->state);
  if (!plan_->options().transitive_closure) return raw;
  return match::ClusterPairs(raw, gen_->state->corpus[0].size(),
                             gen_->state->corpus[1].size())
      .ImpliedMatches();
}

match::Clustering SessionView::Clusters() const {
  return match::ClusterPairs(TranslatedMatches(*gen_->state),
                             gen_->state->corpus[0].size(),
                             gen_->state->corpus[1].size());
}

Result<uint64_t> SessionView::ClusterOf(int side, TupleId id) const {
  if (side != 0 && side != 1) {
    return Status::InvalidArgument("side must be 0 (left) or 1 (right)");
  }
  const IdEntry* entry = gen_->state->ids[side].Get(id);
  if (entry == nullptr) {
    return Status::NotFound("no record with id " + std::to_string(id) +
                            " on side " + std::to_string(side));
  }
  return entry->handle;
}

Result<bool> SessionView::SameCluster(int side_a, TupleId id_a, int side_b,
                                      TupleId id_b) const {
  auto a = ClusterOf(side_a, id_a);
  if (!a.ok()) return a.status();
  auto b = ClusterOf(side_b, id_b);
  if (!b.ok()) return b.status();
  return *a == *b;
}

// ----------------------------------------------------------- MatchSession

/// One flush's working state, produced and consumed by the Flush stages.
struct MatchSession::FlushDelta {
  /// New and updated records as (side, seq); an update re-enters the
  /// indexes under its new keys.
  std::vector<std::pair<int, uint32_t>> inserted;
  /// Index delta: per windowing pass, or for the block index.
  std::vector<std::vector<IndexedEntry>> pass_removes;
  std::vector<std::vector<IndexedEntry>> pass_inserts;
  std::vector<IndexedEntry> block_removes;
  std::vector<IndexedEntry> block_inserts;
  /// The snapshot before this flush: the old order the drift check walks.
  IndexSnapshotPtr before;
  /// Per windowing pass, in the post-merge order: the ranks of the
  /// inserted entries and the removal gaps, both ascending.
  std::vector<SortedKeyIndex::BatchRanks> placed;
  /// Candidate pairs, each once, in scan order.
  SeqPairs candidates;
  SeqPairs new_matches;
  /// Handles of the clusters that lost an edge (removals, updates,
  /// drift) — the ones whose connectivity must be recomputed from the
  /// standing pairs.
  std::vector<uint64_t> lost;
};

MatchSession::MatchSession(PlanPtr plan, SessionOptions options)
    : plan_(std::move(plan)), options_(std::move(options)) {
  assert(plan_ != nullptr && "MatchSession requires a compiled plan");
  if (options_.num_threads == 0) options_.num_threads = 1;
  const bool windowing =
      plan_->options().candidates == PlanOptions::Candidates::kWindowing;
  if (options_.catalog != nullptr) {
    catalog_entry_ =
        options_.catalog->Acquire(PlanFingerprint(*plan_), options_.corpus_id);
  }
  // No thread can see the session yet; the locks (taken in the same
  // mu_ -> publish_mu_ order a Flush uses) are uncontended and keep the
  // guarded-state discipline uniform for the analysis.
  util::MutexLock lock(mu_);
  indexes_ = IndexSnapshot::Empty(
      windowing ? plan_->sort_keys().size() : 0, !windowing);
  // Generation 0: the empty corpus, queryable from the first instant.
  // Every session numbers its initial empty state version 0 — what makes
  // the first flushes of catalog siblings share one transition.
  auto state = std::make_shared<SharedMatchState>();
  state->indexes = indexes_;
  auto gen = std::make_shared<SessionGeneration>();
  gen->state = std::move(state);
  util::MutexLock publish_lock(publish_mu_);
  published_ = std::move(gen);
}

Status MatchSession::CheckSide(int side) const {
  if (side != 0 && side != 1) {
    return Status::InvalidArgument("side must be 0 (left) or 1 (right)");
  }
  return Status::OK();
}

SessionRecordPtr MatchSession::MakeRecord(Tuple tuple, int side,
                                          uint32_t seq) const {
  auto record = std::make_shared<Record>();
  record->seq = seq;
  if (plan_->options().candidates == PlanOptions::Candidates::kWindowing) {
    record->keys.reserve(plan_->sort_keys().size());
    for (const auto& key : plan_->sort_keys()) {
      record->keys.push_back(key.Render(tuple, side));
    }
  } else {
    record->keys.push_back(plan_->block_key().Render(tuple, side));
  }
  record->profile = plan_->evaluator().ProfileRecord(tuple, side);
  record->tuple = std::move(tuple);
  return record;
}

Status MatchSession::Upsert(int side, Tuple tuple) {
  MDMATCH_RETURN_NOT_OK(CheckSide(side));
  const Schema& schema =
      side == 0 ? plan_->pair().left() : plan_->pair().right();
  if (static_cast<int32_t>(tuple.arity()) != schema.arity()) {
    return Status::InvalidArgument("tuple arity does not match schema " +
                                   schema.name());
  }
  util::MutexLock lock(mu_);
  const auto [it, inserted] =
      pending_.insert_or_assign({side, tuple.id()}, std::move(tuple));
  (void)it;
  if (!inserted) ++pending_coalesced_;
  return Status::OK();
}

Status MatchSession::Upsert(int side, std::vector<Tuple> tuples) {
  for (Tuple& tuple : tuples) {
    MDMATCH_RETURN_NOT_OK(Upsert(side, std::move(tuple)));
  }
  return Status::OK();
}

Status MatchSession::Remove(int side, TupleId id) {
  MDMATCH_RETURN_NOT_OK(CheckSide(side));
  util::MutexLock lock(mu_);
  // An adopted (not yet materialized) session answers the membership
  // check from the published state — its build-side tries are empty.
  const bool known =
      build_stale_
          ? CurrentGeneration()->state->ids[side].Get(id) != nullptr
          : ids_[side].Get(id) != nullptr;
  if (!known && pending_.count({side, id}) == 0) {
    return Status::NotFound("no record with id " + std::to_string(id) +
                            " on side " + std::to_string(side));
  }
  const auto [it, inserted] =
      pending_.insert_or_assign({side, id}, std::nullopt);
  (void)it;
  if (!inserted) ++pending_coalesced_;
  return Status::OK();
}

Result<IngestReport> MatchSession::Flush() {
  util::MutexLock lock(mu_);
  IngestReport report;
  // Nothing staged: report the standing state without publishing (a
  // version advanced for a no-op would desynchronize catalog siblings).
  // Read from the published state, which an adopting session also has.
  if (pending_.empty()) {
    ReportStanding(*CurrentGeneration(), &report);
    return report;
  }

  // The catalog match store first: adopt the state a sibling already
  // published for this exact transition (base version, delta
  // fingerprint), or become its builder — who MUST publish to the store.
  const uint64_t base_version = state_version_;
  const uint64_t delta_fp =
      catalog_entry_ != nullptr ? FingerprintDelta(pending_) : 0;
  uint64_t version = 0;
  if (catalog_entry_ != nullptr) {
    candidate::IndexCatalog::MatchStateGrant grant =
        catalog_entry_->BeginMatchState(base_version, delta_fp);
    if (grant.adopted != nullptr) {
      AdoptLocked(
          std::static_pointer_cast<const SharedMatchState>(grant.adopted),
          &report);
      return report;
    }
    version = grant.build_version;
  } else {
    version = next_state_version_++;
  }
  if (build_stale_) MaterializeLocked();  // after adopting: rebuild first
  const size_t alloc_base = PersistentAllocBytesLocked();

  FlushDelta delta;
  {
    ScopedTimer timer(&report.index_seconds);
    ResolveDeltaLocked(&delta, &report);
    AdvanceIndexesLocked(&delta, &report);
  }
  {
    ScopedTimer timer(&report.match_seconds);
    ScanLocked(&delta, &report);
    EvaluateLocked(&delta, &report);
  }
  {
    ScopedTimer timer(&report.cluster_seconds);
    RetireDriftLocked(&delta, &report);
    ReclusterLocked(&delta, &report);
    SharedMatchStatePtr published =
        PublishLocked(version, alloc_base, &report);
    if (catalog_entry_ != nullptr) {
      catalog_entry_->PublishMatchState(base_version, delta_fp,
                                        std::move(published));
    }
  }
  return report;
}

void MatchSession::ResolveDeltaLocked(FlushDelta* delta,
                                      IngestReport* report) {
  const size_t passes = indexes_->window_passes().size();
  delta->pass_removes.resize(passes);
  delta->pass_inserts.resize(passes);
  auto index = [passes, delta](const Record& record, int side,
                               bool insert) {
    for (size_t p = 0; p < record.keys.size(); ++p) {
      IndexedEntry entry{record.keys[p], static_cast<uint8_t>(side),
                         record.seq};
      if (passes > 0) {
        (insert ? delta->pass_inserts : delta->pass_removes)[p].push_back(
            std::move(entry));
      } else {
        (insert ? delta->block_inserts : delta->block_removes)
            .push_back(std::move(entry));
      }
    }
  };

  report->coalesced_deltas = pending_coalesced_;
  pending_coalesced_ = 0;
  for (auto& [key, op] : pending_) {
    const auto [side, id] = key;
    const IdEntry* entry = ids_[side].Get(id);
    if (entry == nullptr && !op.has_value()) continue;  // staged-only
    std::vector<Slot>& slots = slots_[side];
    uint32_t seq = 0;
    if (entry != nullptr) {
      // A removal or an update: the old record leaves the indexes and
      // its standing matches retire. Its partners are the opposite-side
      // members of its cluster (a singleton has none), and each retired
      // pair is an edge the cluster loses. The old record object stays
      // untouched — published generations may still reference it.
      seq = entry->seq;
      index(*slots[seq].record, side, /*insert=*/false);
      if (auto found = cluster_members_.find(slots[seq].handle);
          found != cluster_members_.end()) {
        delta->lost.push_back(found->first);
        for (const uint64_t packed : found->second) {
          if (static_cast<int>(packed >> 32) == side) continue;
          const uint32_t other = static_cast<uint32_t>(packed);
          report->matches_dropped +=
              side == 0 ? pairs_.Erase(seq, other) : pairs_.Erase(other, seq);
        }
      }
    }
    if (!op.has_value()) {
      slots[seq].record = nullptr;
      corpus_trie_[side].Erase(seq);
      ids_[side].Erase(id);
      ++report->removed;
      continue;
    }
    ++report->upserted;
    if (entry == nullptr) {
      // A new record appends a slot: a singleton, its own handle.
      seq = static_cast<uint32_t>(slots.size());
      slots.push_back(Slot{nullptr, Handle(side, seq)});
      ids_[side].Set(id, IdEntry{seq, Handle(side, seq)});
    }
    // An update keeps its seq (the corpus-order slot) and id entry; its
    // handle resolves in ReclusterLocked.
    SessionRecordPtr record = MakeRecord(std::move(*op), side, seq);
    index(*record, side, /*insert=*/true);
    delta->inserted.emplace_back(side, seq);
    corpus_trie_[side].Set(seq, record);
    slots[seq].record = std::move(record);
  }
  pending_.clear();
}

void MatchSession::AdvanceIndexesLocked(FlushDelta* delta,
                                        IngestReport* report) {
  ScopedTimer timer(&report->merge_seconds);
  delta->before = indexes_;
  indexes_ = IndexSnapshot::Advance(
      *indexes_, delta->pass_removes, std::move(delta->pass_inserts),
      delta->block_removes, delta->block_inserts, &delta->placed);
}

void MatchSession::ScanLocked(FlushDelta* delta, IngestReport* report) {
  ScopedTimer timer(&report->scan_seconds);
  SeqPairs& cand = delta->candidates;
  const auto& slots = slots_;
  const auto& pairs = pairs_;
  auto add = [&cand, &slots, &pairs](uint32_t l, uint32_t r) {
    if (!Standing(slots, pairs, l, r)) cand.emplace_back(l, r);
  };

  if (const candidate::BlockIndex* blocks = indexes_->block()) {
    // Each inserted record against the opposite side of its block; a pair
    // of two inserted records is emitted once, from its left record.
    std::vector<uint64_t> fresh_left;
    for (const auto& [side, seq] : delta->inserted) {
      if (side == 0) fresh_left.push_back(seq);
    }
    SortUnique(&fresh_left);
    for (const auto& [side, seq] : delta->inserted) {
      const candidate::BlockIndex::Block* block =
          blocks->Find(slots_[side][seq].record->keys[0]);
      if (block == nullptr) continue;
      if (side == 0) {
        for (uint32_t other : block->right) add(seq, other);
      } else {
        for (uint32_t other : block->left) {
          if (!Has(fresh_left, other)) add(other, seq);
        }
      }
    }
    return;
  }

  // Windowing: per pass, walk the spans around the inserted entries
  // (pairs gaining a delta endpoint) and the removal gaps (old pairs
  // whose distance shrank below the window; every other pair was decided
  // by an earlier flush). A pair an earlier pass visited less than the
  // window apart is skipped: that pass emitted it, or neither record is
  // new and no gap lay between them there, so their distance there can
  // only have grown: the pair sat inside that window before this flush
  // too, and an earlier flush decided it.
  const size_t window = plan_->options().window_size;
  const auto& passes = indexes_->window_passes();
  if (window < 2 || passes.empty()) return;
  std::vector<std::vector<std::pair<size_t, size_t>>> spans(passes.size());
  size_t recorded = 0;  // span entries of every pass but the last
  for (size_t p = 0; p < passes.size(); ++p) {
    spans[p] = GroupSpans(delta->placed[p].inserted, delta->placed[p].gaps,
                          window, passes[p].size());
    for (const auto& [lo, hi] : spans[p]) {
      if (p + 1 < passes.size()) recorded += hi - lo;
    }
  }
  VisitedRanks visited(passes.size() - 1, recorded);
  std::vector<const IndexedEntry*> span;  // reused window buffer
  std::vector<size_t> rows;               // visited row per span entry
  for (size_t p = 0; p < passes.size(); ++p) {
    const bool record = p + 1 < passes.size();
    for (const auto& [lo, hi] : spans[p]) {
      passes[p].SpanInto(lo, hi, &span);
      if (passes.size() > 1) {
        rows.resize(span.size());
        for (size_t k = 0; k < span.size(); ++k) {
          rows[k] = visited.Row(Handle(span[k]->side, span[k]->seq), record);
          if (record) visited.Set(rows[k], p, lo + k);
        }
      }
      ForEachSpanPair(
          lo, hi, delta->placed[p].inserted, delta->placed[p].gaps, window,
          [&, lo = lo](size_t a, size_t b) {
            const IndexedEntry& x = *span[a - lo];
            const IndexedEntry& y = *span[b - lo];
            if (x.side == y.side) return;
            if (p > 0 &&
                visited.Covered(rows[a - lo], rows[b - lo], p, window)) {
              return;
            }
            IfCrossSide(x, y, add);
          });
    }
  }
}

void MatchSession::EvaluateLocked(FlushDelta* delta, IngestReport* report) {
  EvaluatePairs(delta->candidates, &delta->new_matches, report);
}

void MatchSession::RetireDriftLocked(FlushDelta* delta,
                                     IngestReport* report) {
  const auto& widx = indexes_->window_passes();
  const size_t passes = widx.size();
  const size_t window = plan_->options().window_size;
  if (passes == 0 || window < 2 || delta->inserted.empty() ||
      pairs_.size() == 0) {
    return;
  }
  ScopedTimer timer(&report->rerank_seconds);
  // A standing pair can leave every window only through a pass where it
  // sat within the window before this flush and an inserted entry landed
  // between its records: per pass, collect the standing pairs of the old
  // order that straddle an insertion point.
  const auto& slots = slots_;
  const auto& pairs = pairs_;
  SeqPairs suspects;
  auto suspect = [&suspects, &slots, &pairs](uint32_t l, uint32_t r) {
    if (Standing(slots, pairs, l, r)) suspects.emplace_back(l, r);
  };
  const std::vector<size_t> none;
  std::vector<size_t> points;
  std::vector<const IndexedEntry*> span;
  for (size_t p = 0; p < passes; ++p) {
    // Old-order point of the i-th inserted entry (new rank c): c - i
    // surviving entries precede it, plus the removed ones, whose gaps are
    // <= c. (A key-preserving update lands one past its old entry; that
    // shifts only the updated record's pairs, already retired.)
    const std::vector<size_t>& ranks = delta->placed[p].inserted;
    const std::vector<size_t>& gaps = delta->placed[p].gaps;
    points.clear();
    size_t removed = 0;
    for (size_t i = 0; i < ranks.size(); ++i) {
      while (removed < gaps.size() && gaps[removed] <= ranks[i]) ++removed;
      points.push_back(ranks[i] - i + removed);
    }
    const SortedKeyIndex& old_order = delta->before->window_passes()[p];
    for (const auto& [lo, hi] :
         GroupSpans(none, points, window, old_order.size())) {
      old_order.SpanInto(lo, hi, &span);
      ForEachSpanPair(lo, hi, none, points, window,
                      [&, lo = lo](size_t a, size_t b) {
                        IfCrossSide(*span[a - lo], *span[b - lo], suspect);
                      });
    }
  }
  // Re-rank each suspect in the new order (once: a pair can straddle
  // insertions in several passes); retire it — an edge its cluster
  // loses — unless some pass keeps it within the window.
  SortUnique(&suspects);
  for (const auto& [l, r] : suspects) {
    const Record& left = *slots_[0][l].record;
    const Record& right = *slots_[1][r].record;
    bool kept = false;
    for (size_t p = 0; p < passes && !kept; ++p) {
      const size_t pl = widx[p].LowerBound({left.keys[p], 0, l});
      const size_t pr = widx[p].LowerBound({right.keys[p], 1, r});
      report->rank_queries += 2;
      kept = (pl > pr ? pl - pr : pr - pl) <= window - 1;
    }
    if (!kept && pairs_.Erase(l, r)) {
      delta->lost.push_back(slots_[0][l].handle);
      ++report->matches_dropped;
    }
  }
}

void MatchSession::ReclusterLocked(FlushDelta* delta,
                                   IngestReport* report) {
  // Fold in the new matches. The persistent pair set's journal nets out
  // same-flush churn for the published parent-delta (a pair retired
  // above and re-established here appears in neither list).
  SeqPairs added;
  std::vector<uint64_t>& lost = delta->lost;
  std::vector<uint64_t> touched = lost;
  for (const auto& [l, r] : delta->new_matches) {
    if (!pairs_.Add(l, r)) continue;
    added.emplace_back(l, r);
    touched.push_back(slots_[0][l].handle);
    touched.push_back(slots_[1][r].handle);
  }
  report->matches_added += added.size();
  if (touched.empty()) return;
  SortUnique(&lost);
  SortUnique(&touched);

  // One union-find over the live members of every touched cluster. A
  // cluster that lost no edge is still connected, so its members are
  // chained directly; one that lost an edge is re-joined from the
  // standing pairs among its own members. Clusters the flush did not
  // touch keep their handles: a dropped edge cannot split, and a new
  // match cannot merge, a cluster that did not hold it.
  match::UnionFind uf;
  std::vector<uint64_t> members;  // packed (side, seq), indexed by node
  std::unordered_map<uint64_t, size_t> node_of;
  for (const uint64_t handle : touched) {
    std::vector<uint64_t> list{handle};  // a singleton is its own handle
    if (auto found = cluster_members_.find(handle);
        found != cluster_members_.end()) {
      list = std::move(found->second);
      cluster_members_.erase(found);
    }
    const bool intact = !Has(lost, handle);
    const size_t first = uf.size();
    for (const uint64_t packed : list) {
      const int side = static_cast<int>(packed >> 32);
      if (slots_[side][static_cast<uint32_t>(packed)].record == nullptr) {
        continue;  // removed this flush
      }
      const size_t node = uf.Add();
      node_of.emplace(packed, node);
      members.push_back(packed);
      if (intact) uf.Union(first, node);
    }
    for (size_t i = first; !intact && i < members.size(); ++i) {
      for (size_t j = first; j < members.size(); ++j) {
        if ((members[i] >> 32) == 0 && (members[j] >> 32) == 1 &&
            pairs_.Contains(static_cast<uint32_t>(members[i]),
                            static_cast<uint32_t>(members[j]))) {
          uf.Union(i, j);
        }
      }
    }
  }
  for (const auto& [l, r] : added) {
    uf.Union(node_of.at(Handle(0, l)), node_of.at(Handle(1, r)));
  }

  // Per component: the canonical handle is the minimum packed (side,
  // seq) over its members — history-independent, so every session
  // publishing this corpus content publishes identical handles. Handles
  // are written back only where they changed (trie path copies).
  std::vector<uint64_t> min_of(members.size(), UINT64_MAX);
  std::vector<uint32_t> size_of(members.size(), 0);
  for (size_t i = 0; i < members.size(); ++i) {
    const size_t root = uf.Find(i);
    min_of[root] = std::min(min_of[root], members[i]);
    ++size_of[root];
  }
  for (size_t i = 0; i < members.size(); ++i) {
    const size_t root = uf.Find(i);
    const int side = static_cast<int>(members[i] >> 32);
    Slot& slot = slots_[side][static_cast<uint32_t>(members[i])];
    if (slot.handle != min_of[root]) {
      slot.handle = min_of[root];
      ids_[side].GetMutable(slot.record->tuple.id())->handle = slot.handle;
    }
    if (size_of[root] >= 2) {
      cluster_members_[min_of[root]].push_back(members[i]);
    }
  }
}

size_t MatchSession::PersistentAllocBytesLocked() const {
  return corpus_trie_[0].alloc_bytes() + corpus_trie_[1].alloc_bytes() +
         ids_[0].alloc_bytes() + ids_[1].alloc_bytes() +
         pairs_.alloc_bytes();
}

SharedMatchStatePtr MatchSession::PublishLocked(uint64_t version,
                                                size_t alloc_base,
                                                IngestReport* report) {
  ScopedTimer timer(&report->publish_seconds);
  auto state = std::make_shared<SharedMatchState>();
  state->version = version;
  state->parent_version = state_version_;
  state->indexes = indexes_;
  state->matches = pairs_.Freeze();
  pairs_.TakeDelta(&state->added_pairs, &state->retired_pairs);
  for (int side = 0; side < 2; ++side) {
    state->corpus[side] = corpus_trie_[side].Freeze();
    state->ids[side] = ids_[side].Freeze();
    state->next_seq[side] = static_cast<uint32_t>(slots_[side].size());
  }
  state->upserted = report->upserted;
  state->removed = report->removed;
  state->matches_added = report->matches_added;
  state->matches_dropped = report->matches_dropped;
  // What this flush path-copied into the persistent structures — the
  // whole structural footprint of the publish.
  report->publish_bytes_copied += PersistentAllocBytesLocked() - alloc_base;
  SwapInLocked(state, report);
  return state;
}

void MatchSession::SwapInLocked(SharedMatchStatePtr state,
                                IngestReport* report) {
  state_version_ = state->version;
  auto gen = std::make_shared<SessionGeneration>();
  gen->generation = next_generation_++;
  gen->state = std::move(state);
  ReportStanding(*gen, report);
  // The only writer-side touch of the publication latch: one pointer
  // swap. The old generation's release (possibly the last reference)
  // happens after the latch is dropped.
  SessionGenerationPtr retired;
  util::MutexLock publish_lock(publish_mu_);
  retired.swap(published_);
  published_ = std::move(gen);
}

void MatchSession::AdoptLocked(SharedMatchStatePtr state,
                               IngestReport* report) {
  ScopedTimer timer(&report->publish_seconds);
  // The sibling's flush consumed a delta identical to ours (same base
  // version, same fingerprint), so our staging map is subsumed by the
  // adopted state.
  report->coalesced_deltas = pending_coalesced_;
  pending_coalesced_ = 0;
  pending_.clear();
  report->match_reused = true;
  report->upserted = state->upserted;
  report->removed = state->removed;
  report->matches_added = state->matches_added;
  report->matches_dropped = state->matches_dropped;
  indexes_ = state->indexes;
  // Drop the build-side containers: while this session keeps adopting,
  // its per-replica match-state memory is O(1) — everything queryable
  // lives in the shared state. The next self-built flush re-materializes
  // them (MaterializeLocked).
  for (int side = 0; side < 2; ++side) {
    slots_[side].clear();
    slots_[side].shrink_to_fit();
    corpus_trie_[side] = util::PersistentTrie<SessionRecordPtr>();
    ids_[side] = util::PersistentTrie<IdEntry>();
  }
  pairs_ = match::PersistentPairSet();
  cluster_members_.clear();
  build_stale_ = true;
  SwapInLocked(std::move(state), report);
}

void MatchSession::MaterializeLocked() {
  const SharedMatchStatePtr state = CurrentGeneration()->state;
  for (int side = 0; side < 2; ++side) {
    corpus_trie_[side] =
        util::PersistentTrie<SessionRecordPtr>::FromFrozen(
            state->corpus[side]);
    ids_[side] = util::PersistentTrie<IdEntry>::FromFrozen(state->ids[side]);
    auto& slots = slots_[side];
    slots.assign(state->next_seq[side], Slot{});
    state->corpus[side].ForEach(
        [&slots](uint64_t seq, const SessionRecordPtr& record) {
          slots[seq].record = record;
        });
    state->ids[side].ForEach([&slots](uint64_t, const IdEntry& entry) {
      slots[entry.seq].handle = entry.handle;
    });
  }
  // Cluster member lists from the handles.
  cluster_members_.clear();
  for (int side = 0; side < 2; ++side) {
    for (uint32_t seq = 0; seq < slots_[side].size(); ++seq) {
      if (slots_[side][seq].record != nullptr) {
        cluster_members_[slots_[side][seq].handle].push_back(
            Handle(side, seq));
      }
    }
  }
  std::erase_if(cluster_members_,
                [](const auto& entry) { return entry.second.size() < 2; });
  // Standing pairs: adopt the frozen trie (journal starts empty).
  pairs_ = match::PersistentPairSet::FromFrozen(state->matches);
  indexes_ = state->indexes;
  build_stale_ = false;
}

void MatchSession::EvaluatePairs(const SeqPairs& pairs, SeqPairs* out,
                                 IngestReport* report) {
  ScopedTimer eval_timer(&report->eval_seconds);
  report->pairs_evaluated += pairs.size();
  // Worker-lambda aliases: this thread holds mu_ and keeps the slot
  // table frozen while the workers read it; a lambda body is outside the
  // analysis, so it reads through aliases bound here.
  const auto& slots = slots_;
  const match::CompiledEvaluator& evaluator = plan_->evaluator();
  auto eval = [&slots, &evaluator](uint32_t l, uint32_t r) {
    const Record& left = *slots[0][l].record;
    const Record& right = *slots[1][r].record;
    return evaluator.Matches(left.tuple, right.tuple, left.profile,
                             right.profile);
  };
  size_t workers = options_.num_threads;
  if (options_.min_pairs_per_thread > 0) {
    workers = std::min(workers, pairs.size() / options_.min_pairs_per_thread);
  }
  if (workers <= 1) {
    for (const auto& [l, r] : pairs) {
      if (eval(l, r)) out->emplace_back(l, r);
    }
    return;
  }
  std::vector<SeqPairs> local(workers);
  ParallelChunks(pairs.size(), workers,
                 [&](size_t w, size_t begin, size_t end) {
                   for (size_t i = begin; i < end; ++i) {
                     const auto& [l, r] = pairs[i];
                     if (eval(l, r)) local[w].emplace_back(l, r);
                   }
                 });
  for (const auto& chunk : local) {
    out->insert(out->end(), chunk.begin(), chunk.end());
  }
}

size_t MatchSession::pending_ops() const {
  util::MutexLock lock(mu_);
  return pending_.size();
}

}  // namespace mdmatch::api
