#ifndef MDMATCH_API_SESSION_H_
#define MDMATCH_API_SESSION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/plan.h"
#include "candidate/catalog.h"
#include "candidate/snapshot.h"
#include "match/clustering.h"
#include "match/compiled_eval.h"
#include "match/match_result.h"
#include "match/persistent_pairs.h"
#include "schema/instance.h"
#include "util/arena.h"
#include "util/persistent_trie.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace mdmatch::api {

/// Runtime knobs of a MatchSession.
struct SessionOptions {
  /// Worker threads for rule evaluation. Results are identical for every
  /// thread count.
  size_t num_threads = 1;
  /// Minimum candidate pairs per worker in the evaluation stage; below it
  /// the stage stays sequential. 0 disables the scaling.
  size_t min_pairs_per_thread = 2048;
  /// Route rule evaluation through the SoA batch evaluator (pair strips,
  /// SIMD atom kernels, the session's reusable arena) when the compiled
  /// evaluator reports the batch path profitable (an equality-only atom
  /// basis — see CompiledEvaluator::BatchProfitable). Decisions are
  /// bit-identical to the scalar path.
  bool batch_eval = true;
  /// Optional shared catalog. Sessions created with the same catalog, an
  /// identical compiled plan (keyed by PlanFingerprint) and the same
  /// corpus_id attach to one candidate::IndexCatalog entry: the first
  /// session to flush a given delta builds the next published state
  /// (indexes, matches, clusters), every other session adopts it
  /// (IngestReport::match_reused), so the work is paid once per corpus
  /// instead of once per session. Sharing pays off when the sessions
  /// ingest identical delta streams; divergence is detected by delta
  /// fingerprint and degrades to private builds — results are
  /// bit-identical either way.
  std::shared_ptr<candidate::IndexCatalog> catalog;
  /// Names the corpus within the catalog (ignored without `catalog`).
  std::string corpus_id;
};

/// What one Flush did.
struct IngestReport {
  size_t upserted = 0;         ///< records inserted or updated
  size_t removed = 0;          ///< records removed from the corpus
  size_t pairs_evaluated = 0;  ///< candidate pairs the matcher inspected
  size_t matches_added = 0;
  size_t matches_dropped = 0;  ///< retired with their records or drifted
                               ///< out of every window
  /// True when this flush adopted a whole match state (pairs + clusters +
  /// corpus maps) another session already published for the same (base
  /// version, delta) through the shared catalog entry's match store,
  /// skipping candidate generation and evaluation entirely.
  bool match_reused = false;
  /// The generation number this flush published (unchanged by an empty
  /// flush). Every query answers from exactly one generation; a reader
  /// that remembers this number can tell whether a view already includes
  /// this flush.
  uint64_t generation = 0;
  /// Staged operations that collapsed onto an already-staged (side, id)
  /// before this flush applied them — the per-key coalescing a bursty
  /// producer gets for free from the staging map (and, through a
  /// stream::IngestDriver, from ops queued while the previous flush ran).
  size_t coalesced_deltas = 0;
  /// Driver-side staging-queue backlog sampled right after this flush
  /// completed (stream::IngestDriver fills it; always 0 for synchronous
  /// Flush calls). A persistently nonzero depth means producers outpace
  /// the flusher.
  size_t queue_depth = 0;
  size_t corpus_left = 0;      ///< live left records after the flush
  size_t corpus_right = 0;
  size_t total_matches = 0;    ///< standing match pairs after the flush
  size_t strips = 0;  ///< batch-eval units this flush ran (0 = scalar path)
  size_t simd_lanes_evaluated = 0;  ///< atom-lanes that took a SIMD kernel
  size_t arena_bytes = 0;  ///< batch-arena bytes used by this flush
  double index_seconds = 0;    ///< corpus bookkeeping + index merge
  double match_seconds = 0;    ///< candidate scans + rule evaluation
  double cluster_seconds = 0;  ///< drift re-rank + cluster upkeep + publish
  // Finer-grained phases (each nested inside one aggregate above):
  double merge_seconds = 0;   ///< index delta merge alone (in index_seconds)
  double scan_seconds = 0;    ///< candidate scans alone (in match_seconds)
  double eval_seconds = 0;    ///< rule evaluation alone (in match_seconds)
  double rerank_seconds = 0;  ///< windowing drift re-rank (in
                              ///< cluster_seconds)
  double publish_seconds = 0;  ///< building + swapping in the new
                               ///< SessionGeneration (in cluster_seconds)
  /// Bytes of queryable state the publish step copied (as opposed to
  /// shared structurally with the previous generation) — the O(corpus)
  /// slice an O(delta) publish eliminates.
  size_t publish_bytes_copied = 0;
};

/// One corpus record as the session stores it: the tuple plus everything
/// derived from it (sort/block keys, evaluator profile). Shared
/// immutably between the session's build side and every published
/// generation — an upsert replaces the pointer, never the record.
struct SessionRecord {
  Tuple tuple;
  uint32_t seq = 0;  ///< per-side ingestion sequence, stable for life
  /// Rendered keys: one per windowing pass, or the single block key.
  std::vector<std::string> keys;
  /// Derived per-record values for the compiled evaluator (empty when
  /// the plan's atoms need none).
  match::RecordProfile profile;
};
using SessionRecordPtr = std::shared_ptr<const SessionRecord>;

/// Per-(side, TupleId) entry of a published id trie: the record's seq and
/// its cluster handle, together so ClusterOf() is a single trie lookup.
struct IdEntry {
  uint32_t seq = 0;
  /// Cluster representative: the minimum (side << 32 | seq) over the
  /// cluster's members — a pure function of the match graph, so every
  /// session publishing the same corpus content publishes the same
  /// handles (what lets catalog sessions share states bit-for-bit).
  uint64_t handle = 0;
};

/// \brief One immutable published match state: corpus, id maps, indexes,
/// matches and clusters, all from the same flush — *the* unit the shared
/// catalog match store memoizes, versioned like candidate::IndexSnapshot.
///
/// Everything here is persistent: the tries share all but O(delta·log n)
/// nodes with the parent state, records are shared by pointer, indexes by
/// persistent-treap nodes, matches by pair-trie nodes. Building the next
/// state from a flushed delta is therefore O(delta·log n), independent of
/// corpus size — and N sessions adopting one state through a catalog
/// entry pay O(1) match-state memory per replica instead of O(corpus).
struct SharedMatchState {
  /// Version in the state chain (0 = the empty initial state; catalog
  /// sessions draw versions from the shared entry counter, private
  /// sessions count locally).
  uint64_t version = 0;
  /// The version this state was built from — stream::GenerationDiff's
  /// O(changes) fast path applies iff to.parent == from.version.
  uint64_t parent_version = 0;
  /// seq -> record, per side (live records only; enumeration order ==
  /// seq order == ingestion order).
  util::FrozenTrie<SessionRecordPtr> corpus[2];
  /// TupleId -> (seq, cluster handle), per side.
  util::FrozenTrie<IdEntry> ids[2];
  /// The candidate indexes this state's matches were computed with.
  candidate::IndexSnapshotPtr indexes;
  /// Standing raw match pairs as (left seq, right seq).
  match::FrozenPairSet matches;
  /// Next per-side ingestion sequence (what an adopting session resumes
  /// allocating from).
  uint32_t next_seq[2] = {0, 0};

  // --- delta vs. the parent state ---

  /// Match pairs present here but not in the parent, as (left seq,
  /// right seq), in first-event order. Net of same-flush churn: a pair
  /// retired and re-established within one flush (an in-place update
  /// whose records still match) appears in neither list.
  std::vector<std::pair<uint32_t, uint32_t>> added_pairs;
  /// Match pairs present in the parent but not here. Seqs may name
  /// records this state no longer holds — translate them through the
  /// *parent* state's corpus.
  std::vector<std::pair<uint32_t, uint32_t>> retired_pairs;

  // --- what the building flush did (so a session that *adopts* this
  // state can report the work it inherited) ---
  size_t upserted = 0;
  size_t removed = 0;
  size_t matches_added = 0;
  size_t matches_dropped = 0;
};
using SharedMatchStatePtr = std::shared_ptr<const SharedMatchState>;

/// \brief One immutable published version of a MatchSession's queryable
/// state: a session-local generation number wrapping a SharedMatchState.
///
/// Flush builds the next state off to the side and publishes it with a
/// single pointer swap under the session's publication latch; queries
/// acquire the pointer once and answer entirely from the acquired object,
/// so a query can never observe a torn mix of versions (matches from one
/// flush against a corpus from another). Generation numbers are per
/// session (every flush that publishes increments them, whether it built
/// the state or adopted it from the catalog); state versions travel with
/// the state and are shared across adopting sessions.
struct SessionGeneration {
  /// Monotonic per-session publication counter (0 = the empty initial
  /// generation).
  uint64_t generation = 0;
  /// The generation this one was published after (generation - 1 in an
  /// unbroken chain).
  uint64_t parent_generation = 0;
  /// The queryable state (never null).
  SharedMatchStatePtr state;
};
using SessionGenerationPtr = std::shared_ptr<const SessionGeneration>;

/// \brief A read-only view of one MatchSession generation.
///
/// Obtained lock-free from MatchSession::View(); every accessor answers
/// from the same pinned generation, so Corpus(), Matches() and Clusters()
/// read from a view are mutually consistent by construction — exactly
/// what one-shot Executor::Run over Corpus() would produce — no matter
/// how many flushes race past in the meantime. Hold a view to make a
/// multi-call read atomic; drop it to release the pinned generation.
class SessionView {
 public:
  uint64_t generation() const { return gen_->generation; }
  size_t left_size() const { return gen_->state->corpus[0].size(); }
  size_t right_size() const { return gen_->state->corpus[1].size(); }

  /// The view's index snapshot (immutable).
  const candidate::IndexSnapshotPtr& indexes() const {
    return gen_->state->indexes;
  }

  /// The pinned generation object itself (immutable, refcounted) — the
  /// raw material stream::GenerationDiff consumes. Holding the returned
  /// pointer keeps the generation alive like holding the view does.
  const SessionGenerationPtr& state() const { return gen_; }

  /// Materializes the view's corpus as an Instance (live records in
  /// ingestion order).
  Instance Corpus() const;

  /// The view's match pairs as (left position, right position) into
  /// Corpus(). Closure plans report the transitively implied pairs.
  match::MatchResult Matches() const;

  /// The entity clusters of the view's matches, numbered exactly as
  /// match::ClusterMatches over (Matches(), Corpus()).
  match::Clustering Clusters() const;

  /// Opaque cluster handle of a record: two records are in one cluster
  /// iff their handles are equal. Valid within this view's generation.
  /// NotFound for unknown ids.
  Result<uint64_t> ClusterOf(int side, TupleId id) const;

  /// True iff both records are in the same cluster of this view.
  Result<bool> SameCluster(int side_a, TupleId id_a, int side_b,
                           TupleId id_b) const;

 private:
  friend class MatchSession;
  SessionView(PlanPtr plan, SessionGenerationPtr gen)
      : plan_(std::move(plan)), gen_(std::move(gen)) {}

  PlanPtr plan_;
  SessionGenerationPtr gen_;
};

/// \brief A standing, incrementally matched corpus behind one compiled
/// MatchPlan.
///
/// Where the Executor treats every batch as a stateless one-shot, a
/// MatchSession keeps the corpus resident: per-RCK blocking / sort-key
/// indexes persist across ingests as immutable candidate::IndexSnapshot
/// versions (persistent treaps for windowing and blocking alike), so a
/// Flush advances the index chain in O(delta · log n) and matches only
/// the staged delta against the indexed corpus (plus intra-delta pairs)
/// instead of re-blocking the world. Match state is maintained
/// incrementally — standing pairs live in a persistent pair set, cluster
/// handles are recomputed only for the clusters a flush touched — and
/// Matches() / ClusterOf() are queryable between ingests. Publishing is
/// O(delta) too: the queryable state (SharedMatchState) is persistent
/// tries frozen in O(1), and catalog sessions share whole published
/// states through the entry's match store (IngestReport::match_reused).
///
/// The contract that makes the incrementality trustworthy: after any
/// sequence of Upsert / Remove / Flush calls, Matches() and Clusters()
/// are exactly what one-shot Executor::Run produces over Corpus() — bit
/// for bit, for every thread count, with or without a shared catalog.
/// For windowing plans this includes the non-local effects of the sorted
/// order: a flush re-examines pairs pushed together by removals (they
/// may newly match) and retires standing matches pushed apart by
/// insertions (they are no longer sorted-neighborhood candidates) — the
/// latter re-rank resolves every standing pair's per-pass ranks either
/// by direct index queries or, past a size threshold, from one ordered
/// walk per pass with comparison-free O(1) distance checks (see
/// RetireDriftLocked).
///
/// Records are addressed by (side, TupleId): side 0 is the plan's left
/// relation, side 1 the right. Upserting an existing id replaces its
/// values; the record keeps its position in the corpus order.
///
/// Concurrency model: *generation publishing*. Writers (Upsert / Remove /
/// Flush) serialize on one internal mutex and mutate only build-side
/// state; the queryable state lives in an immutable, reference-counted
/// SessionGeneration that Flush swaps in once the next version is fully
/// built. Queries — Corpus(), Matches(), Clusters(), ClusterOf(),
/// SameCluster(), the size accessors and View() — never touch the writer
/// mutex: they acquire the current generation through a publication latch
/// held only for the pointer copy itself, so read throughput is
/// independent of flush activity (a reader waits on a concurrent flush
/// for at most one pointer swap, never for the flush's work). Each query
/// call answers from one generation; use View() to pin a generation
/// across several calls.
///
/// Note on positions: Matches() / Clusters() address records by position
/// into the same call's (generation's) Corpus(). A flush that removes
/// records renumbers positions of later records — correlate results
/// across flushes by TupleId (via Corpus()) or through a pinned View(),
/// never by raw position.
class MatchSession {
 public:
  explicit MatchSession(PlanPtr plan, SessionOptions options = {});

  const MatchPlan& plan() const { return *plan_; }
  const SessionOptions& options() const { return options_; }

  /// Stages a record for insertion or update. The tuple's id() is its
  /// identity within `side`; its arity must match that side's schema.
  Status Upsert(int side, Tuple tuple) EXCLUDES(mu_);

  /// Stages many records for one side.
  Status Upsert(int side, std::vector<Tuple> tuples) EXCLUDES(mu_);

  /// Stages the removal of a record. NotFound when the id is neither in
  /// the corpus nor staged.
  Status Remove(int side, TupleId id) EXCLUDES(mu_);

  /// Applies the staged delta: merges it into the persistent indexes
  /// (advancing the snapshot chain), matches delta-vs-corpus and
  /// intra-delta pairs, retires match state of removed/updated records,
  /// updates the clustering, and publishes the result as the next
  /// generation. A flush with nothing staged is a cheap no-op that
  /// publishes nothing.
  Result<IngestReport> Flush() EXCLUDES(mu_);

  // Flush-independent queries: each call acquires the current generation
  // once and answers from it (one View() call); none of them ever touches
  // the writer mutex — the EXCLUDES(mu_) annotations make that PR 5
  // guarantee a compile-time property under Clang TSA: a code path that
  // routed a query through mu_ (or called one with mu_ held) would no
  // longer build. Two consecutive calls may span a concurrent flush —
  // pin a View() when several reads must agree.

  /// A consistent read view of the current generation — one pointer
  /// acquire through the publication latch (held for a pointer copy,
  /// never for flush work). All accessors of the returned view answer
  /// from the same generation even while flushes continue.
  SessionView View() const EXCLUDES(mu_) {
    return SessionView(plan_, CurrentGeneration());
  }

  /// The published generation number (0 until the first non-empty flush).
  uint64_t generation() const EXCLUDES(mu_) {
    return CurrentGeneration()->generation;
  }

  size_t left_size() const EXCLUDES(mu_) { return View().left_size(); }
  size_t right_size() const EXCLUDES(mu_) { return View().right_size(); }

  /// Records staged but not yet flushed. (A staging query, not a
  /// generation query: it reads build-side state under the writer mutex.)
  size_t pending_ops() const EXCLUDES(mu_);

  /// The current (last flushed) index snapshot — immutable; stays valid
  /// and unchanged while the session keeps flushing.
  candidate::IndexSnapshotPtr indexes() const EXCLUDES(mu_) {
    return View().indexes();
  }

  /// Materializes the standing corpus as an Instance (live records in
  /// ingestion order) — the "equivalent single batch" a one-shot
  /// Executor::Run reproduces this session's results on.
  Instance Corpus() const EXCLUDES(mu_) { return View().Corpus(); }

  /// The standing match pairs, as (left position, right position) into
  /// Corpus() *of the same generation* (see the class comment on
  /// positions across flushes). Closure plans report the transitively
  /// implied pairs, like Executor::Run does.
  match::MatchResult Matches() const EXCLUDES(mu_) {
    return View().Matches();
  }

  /// The entity clusters of the standing matches, numbered exactly as
  /// match::ClusterMatches over (Matches(), Corpus()).
  match::Clustering Clusters() const EXCLUDES(mu_) {
    return View().Clusters();
  }

  /// Opaque cluster handle of a record: two records are in one cluster
  /// iff their handles are equal. Handles are stable between flushes
  /// (any Flush may renumber). NotFound for unknown ids.
  Result<uint64_t> ClusterOf(int side, TupleId id) const EXCLUDES(mu_) {
    return View().ClusterOf(side, id);
  }

  /// True iff both records are currently in the same cluster (answered
  /// from one generation).
  Result<bool> SameCluster(int side_a, TupleId id_a, int side_b,
                           TupleId id_b) const EXCLUDES(mu_) {
    return View().SameCluster(side_a, id_a, side_b, id_b);
  }

 private:
  using Record = SessionRecord;
  using SeqPairs = std::vector<std::pair<uint32_t, uint32_t>>;
  /// One flush's working state, handed from stage to stage (session.cc).
  struct FlushDelta;

  static uint64_t Handle(int side, uint32_t seq) {
    return (static_cast<uint64_t>(side) << 32) | seq;
  }

  Status CheckSide(int side) const;
  /// A fresh record for `tuple`: rendered keys plus evaluator profile.
  SessionRecordPtr MakeRecord(Tuple tuple, int side, uint32_t seq) const;

  // ---- Flush stages, in order (each REQUIRES(mu_)) ----

  /// Consumes the staging map: applies removals, updates and inserts to
  /// the slot table and the persistent tries, collects the index delta,
  /// and retires the standing matches of removed and updated records.
  void ResolveDeltaLocked(FlushDelta* delta, IngestReport* report)
      REQUIRES(mu_);
  /// Advances the index snapshot chain by the delta and locates the
  /// removal gaps in the new order (merge_seconds).
  void AdvanceIndexesLocked(FlushDelta* delta, IngestReport* report)
      REQUIRES(mu_);
  /// Candidate pairs the delta creates: the windows around every
  /// inserted entry and every removal gap, or the inserted records'
  /// blocks; standing matches are skipped (scan_seconds).
  void ScanLocked(FlushDelta* delta, IngestReport* report) REQUIRES(mu_);
  /// Evaluates the candidates (batch strips when profitable, else scalar
  /// across num_threads) into delta->new_matches (eval_seconds).
  void EvaluateLocked(FlushDelta* delta, IngestReport* report)
      REQUIRES(mu_);
  /// Retires standing windowing matches that insertions pushed out of
  /// every window (rerank_seconds).
  void RetireDriftLocked(FlushDelta* delta, IngestReport* report)
      REQUIRES(mu_);
  /// Folds the new matches into the pair sets and recomputes cluster
  /// handles over only the clusters the flush touched: one union-find
  /// pass over their live members, scanning standing pairs only when
  /// some cluster lost an edge.
  void ReclusterLocked(FlushDelta* delta, IngestReport* report)
      REQUIRES(mu_);
  /// Freezes the build-side state into the next SharedMatchState under
  /// `version` and publishes it (publish_seconds). O(delta): every
  /// container is persistent. `alloc_base` is the persistent structures'
  /// alloc_bytes sum sampled at flush start (their growth is
  /// publish_bytes_copied). Returns the state (for the catalog store).
  SharedMatchStatePtr PublishLocked(uint64_t version, size_t alloc_base,
                                    IngestReport* report) REQUIRES(mu_);

  /// Swaps in the next generation wrapping `state` — the single
  /// publication point — and fills the report's standing counts.
  void SwapInLocked(SharedMatchStatePtr state, IngestReport* report)
      REQUIRES(mu_);
  /// Adopts a state a sibling catalog session already published for this
  /// exact transition: publishes it as this session's next generation and
  /// drops the build-side containers (build_stale_) — per-replica match
  /// memory stays O(1) while sessions keep adopting.
  void AdoptLocked(SharedMatchStatePtr state, IngestReport* report)
      REQUIRES(mu_);
  /// Reconstructs the build-side containers from the last published
  /// state — the O(corpus) cost a previously-adopting session pays once
  /// when it has to build a transition itself (divergence, or winning the
  /// builder race).
  void MaterializeLocked() REQUIRES(mu_);
  /// The persistent structures' monotonic allocation counters, summed
  /// (see PublishLocked's alloc_base).
  size_t PersistentAllocBytesLocked() const REQUIRES(mu_);
  /// The current generation, acquired through the publication latch.
  SessionGenerationPtr CurrentGeneration() const EXCLUDES(publish_mu_) {
    util::MutexLock lock(publish_mu_);
    return published_;
  }

  /// Scalar evaluation of a deduped candidate list, parallel-chunked
  /// like the Executor's match stage; appends passing pairs to `out` in
  /// input order.
  void EvaluatePairs(const SeqPairs& pairs, SeqPairs* out,
                     IngestReport* report) REQUIRES(mu_);
  /// Batched form of EvaluatePairs: regroups the candidates into strips
  /// (candidate::BuildStrips) and runs CompiledEvaluator::MatchesBatch
  /// over columns built in batch_arena_. Same output order. Requires
  /// plan_->evaluator().SupportsBatch().
  void EvaluatePairsBatch(const SeqPairs& pairs, SeqPairs* out,
                          IngestReport* report) REQUIRES(mu_);

  PlanPtr plan_;
  SessionOptions options_;

  /// The published side: the current generation, swapped by SwapInLocked
  /// and acquired by every query. The latch guards nothing but the
  /// pointer copy (a few atomic ops): writers hold it for one swap per
  /// flush, readers for one shared_ptr copy per query — queries therefore
  /// never wait on flush work, only on other sub-microsecond pointer
  /// copies. (The natural primitive here is std::atomic<shared_ptr>, but
  /// libstdc++'s implementation is itself a per-object spinlock around
  /// exactly this pointer+refcount pair — with a formally relaxed reader
  /// unlock that ThreadSanitizer rightly flags — so an explicit latch
  /// costs the same and is memory-model clean. A truly contention-free
  /// many-core acquire needs epoch/hazard machinery; see ROADMAP.)
  /// `published_` is never null.
  mutable util::Mutex publish_mu_ ACQUIRED_AFTER(mu_);
  SessionGenerationPtr published_ GUARDED_BY(publish_mu_);

  /// ---- build side: guarded by mu_, never read by queries ----
  mutable util::Mutex mu_;

  /// The build-side record table, one per side, indexed by seq (seqs are
  /// allocated consecutively and never reused). A removed record leaves
  /// its slot with a null record. `handle` is the build-side mirror of
  /// the cluster handle published in ids_. A flat array because this
  /// lookup sits on the hottest flush paths — every pair evaluation
  /// resolves both records through it.
  struct Slot {
    SessionRecordPtr record;
    uint64_t handle = 0;
  };
  std::vector<Slot> slots_[2] GUARDED_BY(mu_);

  /// The persistent mirrors of the queryable state — what PublishLocked
  /// freezes in O(1). corpus_trie_: seq -> record; ids_: id -> (seq,
  /// handle), which doubles as the build side's id lookup.
  util::PersistentTrie<SessionRecordPtr> corpus_trie_[2] GUARDED_BY(mu_);
  util::PersistentTrie<IdEntry> ids_[2] GUARDED_BY(mu_);

  /// Staged delta, keyed (side, id); nullopt = removal. Ordered so flush
  /// processing (and hence seq assignment) is deterministic.
  std::map<std::pair<int, TupleId>, std::optional<Tuple>> pending_
      GUARDED_BY(mu_);
  /// Staged ops that overwrote an already-staged (side, id) since the
  /// last flush (reported as IngestReport::coalesced_deltas).
  size_t pending_coalesced_ GUARDED_BY(mu_) = 0;

  /// Standing raw match pairs as (left seq, right seq), twice: the hash
  /// PairSet is the O(1) Contains engine the candidate scans probe per
  /// pair; the persistent set carries the same membership as a trie so
  /// publishing is an O(1) freeze (it also journals the net added/retired
  /// delta each flush publishes). Double-maintained on add/retire.
  match::PairSet raw_matches_ GUARDED_BY(mu_);
  match::PersistentPairSet pairs_ GUARDED_BY(mu_);

  /// The current version of the persistent candidate indexes: one sorted
  /// treap per windowing pass, or the block index, frozen per flush.
  /// Readers (queries, sibling catalog sessions) hold the snapshot
  /// through their generation; Flush advances to the next version
  /// without disturbing them.
  candidate::IndexSnapshotPtr indexes_ GUARDED_BY(mu_);
  /// Publication counter behind SessionGeneration::generation.
  uint64_t next_generation_ GUARDED_BY(mu_) = 1;
  /// The version of the last published SharedMatchState — the base of the
  /// next transition (keys the catalog match store).
  uint64_t state_version_ GUARDED_BY(mu_) = 0;
  /// State-version counter for private (non-catalog) chains; catalog
  /// sessions draw versions from the shared entry instead.
  uint64_t next_state_version_ GUARDED_BY(mu_) = 1;
  /// The shared catalog entry, when SessionOptions::catalog is set.
  /// Assigned by the constructor, immutable afterwards (the Entry locks
  /// itself internally), so it needs no guard.
  candidate::IndexCatalog::EntryPtr catalog_entry_;

  /// Members of every multi-record cluster, as packed (side, seq), keyed
  /// by the cluster's handle: the minimum packed member. Singletons are
  /// implicit — a record's own packed (side, seq) is its handle until it
  /// matches.
  std::unordered_map<uint64_t, std::vector<uint64_t>> cluster_members_
      GUARDED_BY(mu_);

  /// True after AdoptLocked dropped the build-side containers: the next
  /// flush this session has to build itself first re-materializes them
  /// from the published state (MaterializeLocked).
  bool build_stale_ GUARDED_BY(mu_) = false;

  /// Bulk-rerank rank table, reused across flushes so the ~1 MB
  /// allocation is paid once (every slot a flush reads is rewritten by
  /// its own full-index walks first).
  std::vector<uint32_t> rank_scratch_[2] GUARDED_BY(mu_);

  /// Reusable arena for the batch-evaluation transients of one flush
  /// (columns, strips, lane masks). Reset at the start of every
  /// EvaluatePairsBatch; steady-state flushes allocate from already
  /// committed pages.
  util::Arena batch_arena_ GUARDED_BY(mu_);
};

}  // namespace mdmatch::api

#endif  // MDMATCH_API_SESSION_H_
