#ifndef MDMATCH_MATCH_FELLEGI_SUNTER_H_
#define MDMATCH_MATCH_FELLEGI_SUNTER_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "match/comparison.h"
#include "match/match_result.h"
#include "schema/instance.h"
#include "sim/sim_op.h"
#include "util/status.h"

namespace mdmatch::match {

/// Options of the Fellegi-Sunter matcher (paper Exp-2: the FS model [17]
/// with the EM algorithm [21] for parameter assessment).
struct FsOptions {
  /// Training sample cap ("a sample of at most 30k tuples").
  size_t max_training_pairs = 30000;
  size_t em_iterations = 200;
  double em_tolerance = 1e-7;
  /// Independent EM restarts with jittered initial parameters; the run
  /// with the best final log-likelihood wins. Guards against the local
  /// optima the plain initialization occasionally lands in.
  size_t em_restarts = 3;
  double init_m = 0.9;
  double init_u = 0.1;
  double init_p = 0.1;
  /// Decision threshold on the log2 likelihood ratio; when unset, the MAP
  /// boundary log2((1-p)/p) from the learned match proportion p is used.
  std::optional<double> match_threshold;
  uint64_t seed = 7;
};

/// Learned parameters: m_i = P(agree_i | Match), u_i = P(agree_i | Unmatch)
/// under conditional independence, and the match proportion p.
struct FsModel {
  std::vector<double> m;
  std::vector<double> u;
  double p = 0.1;
  size_t iterations_run = 0;

  double AgreementWeight(size_t i) const;
  double DisagreementWeight(size_t i) const;
};

/// \brief The Fellegi-Sunter statistical matcher over a comparison vector.
///
/// Train() runs EM over a sample of cross-relation pairs (a mix of
/// sort-neighbor pairs, which are match-enriched, and uniform random
/// pairs). Score() is the log2 likelihood ratio; IsMatch() applies the
/// decision threshold.
class FellegiSunter {
 public:
  FellegiSunter(ComparisonVector vector, FsOptions options = {});

  /// EM parameter estimation. InvalidArgument when the comparison vector is
  /// empty or longer than 32 elements.
  Status Train(const Instance& instance, const sim::SimOpRegistry& ops);

  /// Installs externally chosen parameters (tests).
  void SetModel(FsModel model) { model_ = std::move(model); }
  const FsModel& model() const { return model_; }
  const ComparisonVector& vector() const { return vector_; }

  /// log2 P(pattern | M) / P(pattern | U) for the pair's pattern.
  double Score(const sim::SimOpRegistry& ops, const Tuple& left,
               const Tuple& right) const;
  double ScorePattern(uint32_t pattern) const;

  bool IsMatch(const sim::SimOpRegistry& ops, const Tuple& left,
               const Tuple& right) const;

  /// The decision threshold in effect (explicit or MAP).
  double Threshold() const;

 private:
  ComparisonVector vector_;
  FsOptions options_;
  FsModel model_;
};

/// \brief The paper's FS baseline vector selection: train EM over the full
/// target vector (every Y pair compared with `op`) and keep the
/// `max_attrs` elements with the largest total discriminating power
/// |log2(m/u)| + |log2((1-m)/(1-u))|.
ComparisonVector SelectVectorByEm(const Instance& instance,
                                  const sim::SimOpRegistry& ops,
                                  const ComparableLists& target,
                                  sim::SimOpId op, size_t max_attrs,
                                  const FsOptions& options = {});

/// Samples training pairs: half neighbors under a sort of the given
/// comparison attributes (match-enriched), half uniform random pairs.
/// Exposed for tests.
CandidateSet SampleTrainingPairs(const Instance& instance,
                                 const ComparisonVector& vector,
                                 size_t max_pairs, uint64_t seed);

}  // namespace mdmatch::match

#endif  // MDMATCH_MATCH_FELLEGI_SUNTER_H_
