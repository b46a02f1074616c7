#include "match/clustering.h"

#include <cstdint>
#include <map>
#include <numeric>
#include <utility>
#include <vector>

namespace mdmatch::match {

UnionFind::UnionFind(size_t n) : parent_(n), size_(n, 1), components_(n) {
  std::iota(parent_.begin(), parent_.end(), size_t{0});
}

size_t UnionFind::Add() {
  const size_t id = parent_.size();
  parent_.push_back(id);
  size_.push_back(1);
  ++components_;
  return id;
}

size_t UnionFind::Find(size_t x) const {
  while (parent_[x] != x) {
    parent_[x] = parent_[parent_[x]];
    x = parent_[x];
  }
  return x;
}

bool UnionFind::Union(size_t a, size_t b) {
  size_t ra = Find(a);
  size_t rb = Find(b);
  if (ra == rb) return false;
  if (size_[ra] < size_[rb]) std::swap(ra, rb);
  parent_[rb] = ra;
  size_[ra] += size_[rb];
  --components_;
  return true;
}

Clustering ClusterPairs(const MatchResult& matches, size_t num_left,
                        size_t num_right) {
  const size_t nl = num_left;
  const size_t nr = num_right;
  UnionFind dsu(nl + nr);
  for (const auto& [l, r] : matches.pairs()) {
    dsu.Union(l, nl + r);
  }

  Clustering out;
  out.left_cluster_.assign(nl, 0);
  out.right_cluster_.assign(nr, 0);
  constexpr size_t kUnseen = SIZE_MAX;
  std::vector<size_t> root_to_cluster(nl + nr, kUnseen);
  auto cluster_id = [&](size_t root) {
    size_t& id = root_to_cluster[root];
    if (id == kUnseen) {
      id = out.clusters_.size();
      out.clusters_.emplace_back();
    }
    return id;
  };
  for (size_t i = 0; i < nl; ++i) {
    size_t c = cluster_id(dsu.Find(i));
    out.left_cluster_[i] = c;
    out.clusters_[c].push_back(RecordRef{0, static_cast<uint32_t>(i)});
  }
  for (size_t i = 0; i < nr; ++i) {
    size_t c = cluster_id(dsu.Find(nl + i));
    out.right_cluster_[i] = c;
    out.clusters_[c].push_back(RecordRef{1, static_cast<uint32_t>(i)});
  }
  return out;
}

Clustering ClusterMatches(const MatchResult& matches,
                          const Instance& instance) {
  return ClusterPairs(matches, instance.left().size(),
                      instance.right().size());
}

size_t Clustering::ClusterOf(RecordRef r) const {
  return r.side == 0 ? left_cluster_[r.index] : right_cluster_[r.index];
}

MatchResult Clustering::ImpliedMatches() const {
  MatchResult out;
  for (const auto& cluster : clusters_) {
    for (const auto& a : cluster) {
      if (a.side != 0) continue;
      for (const auto& b : cluster) {
        if (b.side != 1) continue;
        out.Add(a.index, b.index);
      }
    }
  }
  return out;
}

ClusterQuality EvaluateClusters(const Clustering& clustering,
                                const Instance& instance) {
  ClusterQuality q;
  q.clusters = clustering.num_clusters();
  size_t records_total = 0;
  size_t records_in_majority = 0;
  std::map<EntityId, size_t> entities;
  for (const auto& cluster : clustering.clusters()) {
    entities.clear();
    for (const auto& r : cluster) {
      const Tuple& t = r.side == 0 ? instance.left().tuple(r.index)
                                   : instance.right().tuple(r.index);
      ++entities[t.entity()];
    }
    size_t majority = 0;
    for (const auto& [e, c] : entities) majority = std::max(majority, c);
    if (entities.size() == 1) ++q.pure_clusters;
    if (cluster.size() > 1) ++q.multi_record_clusters;
    records_total += cluster.size();
    records_in_majority += majority;
  }
  q.purity = records_total == 0
                 ? 0.0
                 : static_cast<double>(records_in_majority) /
                       static_cast<double>(records_total);
  return q;
}

}  // namespace mdmatch::match
