#include "api/session.h"

#include <algorithm>
#include <cassert>

#include "api/parallel.h"
#include "api/plan_io.h"
#include "candidate/indexed_entry.h"
#include "candidate/windowing.h"
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
/// are sorted vectors probed by binary search.
void SortUnique(std::vector<uint64_t>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

bool Has(const std::vector<uint64_t>& sorted, uint64_t value) {
  return std::binary_search(sorted.begin(), sorted.end(), value);
}

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
  /// Removal-gap positions per windowing pass, sorted, in the post-merge
  /// order.
  std::vector<std::vector<size_t>> gaps;
  match::CandidateSet candidates;
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
  if (plan_->evaluator().needs_profiles()) {
    record->profile = plan_->evaluator().ProfileRecord(tuple, side);
  }
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
  // Packed (side, seq) of the removed and updated records: their standing
  // matches retire below.
  std::vector<uint64_t> retired;
  for (auto& [key, op] : pending_) {
    const auto [side, id] = key;
    const IdEntry* entry = ids_[side].Get(id);
    if (entry == nullptr && !op.has_value()) continue;  // staged-only
    std::vector<Slot>& slots = slots_[side];
    uint32_t seq = 0;
    if (entry != nullptr) {
      // A removal or an update: the old record leaves the indexes and
      // its standing matches retire — edges its cluster loses, unless it
      // was a singleton. The old record object stays untouched —
      // published generations may still reference it.
      seq = entry->seq;
      index(*slots[seq].record, side, /*insert=*/false);
      retired.push_back(Handle(side, seq));
      if (cluster_members_.count(slots[seq].handle) != 0) {
        delta->lost.push_back(slots[seq].handle);
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

  if (!retired.empty()) {
    SortUnique(&retired);
    auto& pairs = pairs_;
    report->matches_dropped +=
        raw_matches_.RemoveMatching([&](uint32_t l, uint32_t r) {
          const bool drop =
              Has(retired, Handle(0, l)) || Has(retired, Handle(1, r));
          if (drop) pairs.Erase(l, r);
          return drop;
        });
  }
}

void MatchSession::AdvanceIndexesLocked(FlushDelta* delta,
                                        IngestReport* report) {
  ScopedTimer timer(&report->merge_seconds);
  indexes_ = IndexSnapshot::Advance(
      std::move(indexes_), delta->pass_removes,
      std::move(delta->pass_inserts), delta->block_removes,
      delta->block_inserts);
  const auto& passes = indexes_->window_passes();
  delta->gaps.assign(passes.size(), {});
  for (size_t p = 0; p < passes.size(); ++p) {
    for (const IndexedEntry& e : delta->pass_removes[p]) {
      delta->gaps[p].push_back(passes[p].LowerBound(e));
    }
    std::sort(delta->gaps[p].begin(), delta->gaps[p].end());
  }
}

void MatchSession::ScanLocked(FlushDelta* delta, IngestReport* report) {
  ScopedTimer timer(&report->scan_seconds);
  match::CandidateSet& cand = delta->candidates;
  const auto& raw_matches = raw_matches_;
  auto add = [&cand, &raw_matches](uint32_t l, uint32_t r) {
    if (!raw_matches.Contains(l, r)) cand.Add(l, r);
  };

  if (const candidate::BlockIndex* blocks = indexes_->block()) {
    // Each inserted record against the opposite side of its block
    // (intra-delta pairs emitted from both endpoints collapse in `cand`).
    for (const auto& [side, seq] : delta->inserted) {
      const candidate::BlockIndex::Block* block =
          blocks->Find(slots_[side][seq].record->keys[0]);
      if (block == nullptr) continue;
      for (uint32_t other : side == 0 ? block->right : block->left) {
        if (side == 0) {
          add(seq, other);
        } else {
          add(other, seq);
        }
      }
    }
    return;
  }

  // Windowing: scan the final order around every inserted entry (pairs
  // gaining a delta endpoint) and around every removal gap (old pairs
  // whose distance shrank below the window).
  const size_t window = plan_->options().window_size;
  if (window < 2) return;
  std::vector<const IndexedEntry*> span;  // reused window buffer
  auto add_entries = [&add](const IndexedEntry& a, const IndexedEntry& b) {
    if (a.side == b.side) return;
    if (a.side == 0) {
      add(a.seq, b.seq);
    } else {
      add(b.seq, a.seq);
    }
  };
  const auto& passes = indexes_->window_passes();
  for (size_t p = 0; p < passes.size(); ++p) {
    const SortedKeyIndex& idx = passes[p];
    const size_t n = idx.size();
    for (const auto& [side, seq] : delta->inserted) {
      const size_t center = idx.LowerBound(
          {slots_[side][seq].record->keys[p], static_cast<uint8_t>(side),
           seq});
      const size_t lo = center >= window - 1 ? center - (window - 1) : 0;
      idx.SpanInto(lo, std::min(n, center + window), &span);
      const size_t center_off = center - lo;
      for (size_t j = 0; j < span.size(); ++j) {
        if (j == center_off) continue;
        add_entries(*span[std::min(j, center_off)],
                    *span[std::max(j, center_off)]);
      }
    }
    for (size_t gap : delta->gaps[p]) {
      const size_t lo = gap >= window - 1 ? gap - (window - 1) : 0;
      idx.SpanInto(lo, std::min(n, gap + window - 1), &span);
      for (size_t i = 0; i < span.size(); ++i) {
        const size_t jhi = std::min(span.size(), i + window);
        for (size_t j = i + 1; j < jhi; ++j) add_entries(*span[i], *span[j]);
      }
    }
  }
}

void MatchSession::EvaluateLocked(FlushDelta* delta, IngestReport* report) {
  if (options_.batch_eval && plan_->evaluator().BatchProfitable()) {
    EvaluatePairsBatch(delta->candidates.pairs(), &delta->new_matches,
                       report);
  } else {
    EvaluatePairs(delta->candidates.pairs(), &delta->new_matches, report);
  }
}

void MatchSession::RetireDriftLocked(FlushDelta* delta,
                                     IngestReport* report) {
  const auto& widx = indexes_->window_passes();
  const size_t passes = widx.size();
  const size_t window = plan_->options().window_size;
  if (passes == 0 || window < 2 || delta->inserted.empty() ||
      raw_matches_.empty()) {
    return;
  }
  ScopedTimer timer(&report->rerank_seconds);
  const size_t n = widx[0].size();
  auto& pairs = pairs_;
  auto& slots = slots_;
  auto& lost = delta->lost;
  // Retires (l, r) — no longer a candidate in any pass — and marks its
  // cluster as having lost an edge.
  auto retire = [&pairs, &slots, &lost](uint32_t l, uint32_t r) {
    pairs.Erase(l, r);
    lost.push_back(slots[0][l].handle);
    return true;
  };
  // Two exact strategies, chosen by cost. Per-pair rank queries on the
  // treap cost a logarithmic descent of key comparisons per pair per
  // pass — fine while standing matches are few. Past that, one in-order
  // walk per pass ranks *every* record in O(n) with no key comparisons at
  // all, and pairs are re-ranked by O(1) integer distance checks against
  // the dense rank table. The table is indexed by seq, and seqs are never
  // reused — a session that churned records down leaves the seq space
  // larger than the live corpus, so bulk also requires the table
  // (seq-space-sized) to stay proportional to n or the zero-fill would
  // dwarf the walks.
  const size_t seq_space = slots_[0].size() + slots_[1].size();
  const bool bulk = raw_matches_.size() * 8 >= n && seq_space <= 4 * n;
  size_t drifted = 0;
  if (bulk) {
    // rank_of[side][seq * passes + p] = rank in pass p. The scratch
    // persists across flushes: every live record appears in the
    // full-index walks below, so each flush overwrites every entry it
    // can later read (stale slots belong to dead seqs, which no standing
    // pair references).
    auto& rank_of = rank_scratch_;
    rank_of[0].resize(slots_[0].size() * passes);
    rank_of[1].resize(slots_[1].size() * passes);
    std::vector<const IndexedEntry*> span;
    for (size_t p = 0; p < passes; ++p) {
      widx[p].SpanInto(0, n, &span);
      for (size_t i = 0; i < span.size(); ++i) {
        rank_of[span[i]->side][span[i]->seq * passes + p] =
            static_cast<uint32_t>(i);
      }
    }
    drifted = raw_matches_.RemoveMatching([&](uint32_t l, uint32_t r) {
      const uint32_t* pl = &rank_of[0][static_cast<size_t>(l) * passes];
      const uint32_t* pr = &rank_of[1][static_cast<size_t>(r) * passes];
      for (size_t p = 0; p < passes; ++p) {
        const uint32_t dist = pl[p] > pr[p] ? pl[p] - pr[p] : pr[p] - pl[p];
        if (dist <= window - 1) return false;  // still a candidate
      }
      return retire(l, r);
    });
  } else {
    drifted = raw_matches_.RemoveMatching([&](uint32_t l, uint32_t r) {
      const Record& left = *slots[0][l].record;
      const Record& right = *slots[1][r].record;
      for (size_t p = 0; p < passes; ++p) {
        const size_t pl = widx[p].LowerBound({left.keys[p], 0, left.seq});
        const size_t pr = widx[p].LowerBound({right.keys[p], 1, right.seq});
        const size_t dist = pl > pr ? pl - pr : pr - pl;
        if (dist <= window - 1) return false;  // still a candidate
      }
      return retire(l, r);
    });
  }
  report->matches_dropped += drifted;
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
    if (!raw_matches_.Add(l, r)) continue;
    pairs_.Add(l, r);
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
  // standing pairs, the only scan of them this pass makes. Clusters the
  // flush did not touch keep their handles: a dropped edge cannot split,
  // and a new match cannot merge, a cluster that did not hold it.
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
  }
  if (!lost.empty()) {
    for (const auto& [l, r] : raw_matches_.pairs()) {
      if (Has(lost, slots_[0][l].handle)) {
        uf.Union(node_of.at(Handle(0, l)), node_of.at(Handle(1, r)));
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
  gen->parent_generation = gen->generation - 1;
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
  raw_matches_ = match::PairSet();
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
  // Standing pairs: the hash engine from a key-ordered walk, the
  // persistent set by adopting the frozen trie (journal starts empty).
  raw_matches_ = match::PairSet();
  auto& raw_matches = raw_matches_;
  state->matches.ForEach([&raw_matches](uint32_t l, uint32_t r) {
    raw_matches.Add(l, r);
  });
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
  const MatchPlan& plan = *plan_;
  auto eval = [&slots, &plan](uint32_t l, uint32_t r) {
    const Record& left = *slots[0][l].record;
    const Record& right = *slots[1][r].record;
    return plan.MatchesPair(left.tuple, right.tuple, &left.profile,
                            &right.profile);
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

void MatchSession::EvaluatePairsBatch(const SeqPairs& pairs, SeqPairs* out,
                                      IngestReport* report) {
  ScopedTimer eval_timer(&report->eval_seconds);
  report->pairs_evaluated += pairs.size();
  if (pairs.empty()) return;
  const match::CompiledEvaluator& evaluator = plan_->evaluator();
  batch_arena_.Reset();
  util::Arena& arena = batch_arena_;

  // Columns are indexed by seq (the pair elements); size them to the
  // largest touched seq and fill only the rows some pair references.
  uint32_t max_seq[2] = {0, 0};
  for (const auto& [l, r] : pairs) {
    max_seq[0] = std::max(max_seq[0], l);
    max_seq[1] = std::max(max_seq[1], r);
  }
  match::ValueInterner interner;
  match::BatchColumns cols[2];
  uint8_t* filled[2];
  for (int side = 0; side < 2; ++side) {
    const size_t rows = static_cast<size_t>(max_seq[side]) + 1;
    cols[side] = evaluator.MakeBatchColumns(side, rows, &arena);
    filled[side] = arena.AllocateArrayOf<uint8_t>(rows);
    std::fill_n(filled[side], rows, uint8_t{0});
  }
  const auto& slots = slots_;
  auto fill_row = [&](int side, uint32_t seq) {
    if (filled[side][seq] != 0) return;
    filled[side][seq] = 1;
    const Record& rec = *slots[side][seq].record;
    evaluator.FillBatchRow(&cols[side], seq, rec.tuple, &rec.profile,
                           &interner);
  };
  for (const auto& [l, r] : pairs) {
    fill_row(0, l);
    fill_row(1, r);
  }

  const candidate::PairStrips strips = candidate::BuildStrips(pairs, &arena);
  uint8_t* lane_dec = arena.AllocateArrayOf<uint8_t>(strips.lanes);
  std::fill_n(lane_dec, strips.lanes, uint8_t{0});
  match::BatchStats stats;
  for (size_t b = 0; b < strips.num_batches; ++b) {
    evaluator.MatchesBatch(cols[0], cols[1], strips.batches[b],
                           lane_dec + strips.batch_first_lane[b], &stats);
  }
  // Output in original pair order — the order EvaluatePairs produces.
  uint8_t* decision = arena.AllocateArrayOf<uint8_t>(pairs.size());
  for (size_t lane = 0; lane < strips.lanes; ++lane) {
    decision[strips.lane_pair[lane]] = lane_dec[lane];
  }
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (decision[i] != 0) out->push_back(pairs[i]);
  }
  report->strips += stats.strips;
  report->simd_lanes_evaluated += stats.simd_lanes_evaluated;
  report->arena_bytes += arena.bytes_used();
}

size_t MatchSession::pending_ops() const {
  util::MutexLock lock(mu_);
  return pending_.size();
}

}  // namespace mdmatch::api
