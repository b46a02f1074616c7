#ifndef MDMATCH_MATCH_CLUSTERING_H_
#define MDMATCH_MATCH_CLUSTERING_H_

#include <cstdint>
#include <vector>

#include "match/match_result.h"
#include "schema/instance.h"

namespace mdmatch::match {

/// A record reference inside a clustering: relation side (0 = left,
/// 1 = right) plus tuple position.
struct RecordRef {
  uint8_t side = 0;
  uint32_t index = 0;
  bool operator==(const RecordRef&) const = default;
};

/// \brief Incrementally maintained disjoint sets (union by size, path
/// compression).
///
/// The union-find under ClusterMatches, also used by api::MatchSession to
/// recompute the clusters one flush touched. Nodes are dense ids handed
/// out by Add; there is no node or edge deletion — callers that remove
/// records re-join the affected members from the surviving match pairs
/// (deletion would require decremental connectivity, which the
/// ingest-heavy workload does not justify).
class UnionFind {
 public:
  UnionFind() = default;
  /// Starts with `n` singleton nodes 0..n-1.
  explicit UnionFind(size_t n);

  /// Appends a new singleton node and returns its id.
  size_t Add();

  /// Representative of x's component. Two nodes are in one cluster iff
  /// their Find results are equal. Path-compresses (cheap, logically
  /// const — but a *write*, so concurrent Find calls race).
  size_t Find(size_t x) const;

  /// Joins the components of a and b; returns true when they were
  /// previously distinct.
  bool Union(size_t a, size_t b);

  size_t size() const { return parent_.size(); }
  size_t num_components() const { return components_; }

 private:
  mutable std::vector<size_t> parent_;
  std::vector<size_t> size_;
  size_t components_ = 0;
};

/// \brief Entity clusters: the connected components of the match graph.
///
/// Merge/purge [20] treats "matches" as an equivalence witness and closes
/// them transitively: if credit t matches billing u and billing u matches
/// credit t', then t, u, t' form one entity cluster even though (t, t')
/// was never compared. Clusters with a single record are kept (singletons
/// represent unmatched records).
class Clustering {
 public:
  /// Component id of a record; components are numbered densely from 0.
  size_t ClusterOf(RecordRef r) const;

  size_t num_clusters() const { return clusters_.size(); }
  const std::vector<std::vector<RecordRef>>& clusters() const {
    return clusters_;
  }

  /// All cross-relation pairs implied by the clustering (the transitive
  /// closure of the input matches).
  MatchResult ImpliedMatches() const;

 private:
  friend Clustering ClusterPairs(const MatchResult&, size_t, size_t);
  std::vector<std::vector<RecordRef>> clusters_;
  std::vector<size_t> left_cluster_;   // per left tuple position
  std::vector<size_t> right_cluster_;  // per right tuple position
};

/// Builds the transitive closure of a cross-relation match result over
/// records 0..num_left-1 / 0..num_right-1. Cluster ids are densely
/// numbered by first appearance over left positions then right positions,
/// so two equal match results always yield identically numbered clusters.
Clustering ClusterPairs(const MatchResult& matches, size_t num_left,
                        size_t num_right);

/// Builds the transitive closure of a cross-relation match result over the
/// instance's records.
Clustering ClusterMatches(const MatchResult& matches,
                          const Instance& instance);

/// Cluster-level quality versus the entity ground truth: a cluster is
/// *pure* when all its records share one entity.
struct ClusterQuality {
  size_t clusters = 0;
  size_t pure_clusters = 0;
  size_t multi_record_clusters = 0;
  double purity = 0;  ///< record-weighted: fraction of records whose
                      ///< cluster-majority entity is their own
};
ClusterQuality EvaluateClusters(const Clustering& clustering,
                                const Instance& instance);

}  // namespace mdmatch::match

#endif  // MDMATCH_MATCH_CLUSTERING_H_
