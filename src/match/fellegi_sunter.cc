#include "match/fellegi_sunter.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

// The training sample windows the instance over the vector's sort key.
// mdmatch-lint: allow(layering) windowing lives one layer up, in candidate/
#include "candidate/windowing.h"
#include "match/key_function.h"
#include "util/random.h"

namespace mdmatch::match {

namespace {

constexpr double kProbFloor = 1e-5;

double Clamp01(double v) {
  return std::min(1.0 - kProbFloor, std::max(kProbFloor, v));
}

/// A sort key over the comparison vector's attribute pairs (first three
/// elements, full values).
KeyFunction VectorSortKey(const ComparisonVector& vector) {
  std::vector<KeyFunction::Element> elems;
  for (const auto& e : vector.elements()) {
    if (elems.size() >= 3) break;
    elems.push_back(KeyFunction::Element{e.attrs, false, 0});
  }
  return KeyFunction(std::move(elems));
}

}  // namespace

double FsModel::AgreementWeight(size_t i) const {
  return std::log2(Clamp01(m[i]) / Clamp01(u[i]));
}

double FsModel::DisagreementWeight(size_t i) const {
  return std::log2((1.0 - Clamp01(m[i])) / (1.0 - Clamp01(u[i])));
}

FellegiSunter::FellegiSunter(ComparisonVector vector, FsOptions options)
    : vector_(std::move(vector)), options_(options) {}

CandidateSet SampleTrainingPairs(const Instance& instance,
                                 const ComparisonVector& vector,
                                 size_t max_pairs, uint64_t seed) {
  CandidateSet sample;
  if (instance.left().empty() || instance.right().empty()) return sample;
  Rng rng(seed);
  PairSet drawn;  // a random draw can repeat a pair
  auto add = [&](uint32_t l, uint32_t r) {
    if (drawn.Add(l, r)) sample.Add(l, r);
  };

  // Neighbor pairs from a window over the vector's sort key: these are
  // enriched in true matches, which EM needs to identify the match class.
  CandidateSet neighbors =
      candidate::WindowCandidates(instance, VectorSortKey(vector), 6);
  std::vector<std::pair<uint32_t, uint32_t>> shuffled = neighbors.pairs();
  rng.Shuffle(&shuffled);
  size_t neighbor_quota = max_pairs / 2;
  for (const auto& [l, r] : shuffled) {
    if (sample.size() >= neighbor_quota) break;
    add(l, r);
  }

  // Uniform random pairs: overwhelmingly non-matches, anchoring the u
  // probabilities.
  size_t guard = 0;
  while (sample.size() < max_pairs && guard < 4 * max_pairs) {
    ++guard;
    add(static_cast<uint32_t>(rng.Index(instance.left().size())),
        static_cast<uint32_t>(rng.Index(instance.right().size())));
  }
  return sample;
}

Status FellegiSunter::Train(const Instance& instance,
                            const sim::SimOpRegistry& ops) {
  const size_t k = vector_.size();
  if (k == 0) return Status::InvalidArgument("empty comparison vector");
  MDMATCH_RETURN_NOT_OK(vector_.CheckPatternWidth());

  CandidateSet sample = SampleTrainingPairs(
      instance, vector_, options_.max_training_pairs, options_.seed);
  if (sample.empty()) {
    return Status::FailedPrecondition("no training pairs available");
  }

  // Compress agreement patterns to counts: EM then iterates over distinct
  // patterns only.
  std::unordered_map<uint32_t, size_t> pattern_counts;
  for (const auto& [l, r] : sample.pairs()) {
    uint32_t pattern = vector_.ComparePattern(ops, instance.left().tuple(l),
                                              instance.right().tuple(r));
    ++pattern_counts[pattern];
  }
  const double total = static_cast<double>(sample.size());

  // One EM run from the given initial parameters; returns the final
  // log-likelihood.
  auto run_em = [&](double init_m, double init_u, double init_p,
                    FsModel* model) {
    model->m.assign(k, init_m);
    model->u.assign(k, init_u);
    model->p = init_p;
    double loglik = -1e300;
    double prev_loglik = -1e300;
    std::vector<double> m_num(k), u_num(k);
    for (size_t iter = 0; iter < options_.em_iterations; ++iter) {
      model->iterations_run = iter + 1;
      // E-step: posterior match probability per pattern.
      double sum_w = 0;
      m_num.assign(k, 0);
      u_num.assign(k, 0);
      loglik = 0;
      for (const auto& [pattern, count] : pattern_counts) {
        double pm = model->p, pu = 1.0 - model->p;
        for (size_t i = 0; i < k; ++i) {
          bool agree = (pattern >> i) & 1u;
          pm *= agree ? model->m[i] : (1.0 - model->m[i]);
          pu *= agree ? model->u[i] : (1.0 - model->u[i]);
        }
        double denom = pm + pu;
        double w = denom > 0 ? pm / denom : 0.5;
        double cnt = static_cast<double>(count);
        loglik += cnt * std::log(std::max(denom, 1e-300));
        sum_w += w * cnt;
        for (size_t i = 0; i < k; ++i) {
          if ((pattern >> i) & 1u) {
            m_num[i] += w * cnt;
            u_num[i] += (1.0 - w) * cnt;
          }
        }
      }
      // M-step.
      double sum_u = total - sum_w;
      model->p = Clamp01(sum_w / total);
      for (size_t i = 0; i < k; ++i) {
        model->m[i] = Clamp01(sum_w > 0 ? m_num[i] / sum_w : init_m);
        model->u[i] = Clamp01(sum_u > 0 ? u_num[i] / sum_u : init_u);
      }
      if (std::abs(loglik - prev_loglik) < options_.em_tolerance * total) {
        break;
      }
      prev_loglik = loglik;
    }
    return loglik;
  };

  // Restarts with jittered initializations. A higher likelihood split is
  // not necessarily the match/unmatch split (EM can converge to any
  // two-cluster structure), so restarts are first screened for a sane
  // orientation — the match class is the minority class and agreement is
  // more likely under it — and the best-likelihood *sane* solution wins;
  // only if every restart is degenerate does the best raw likelihood win
  // (orientation-corrected).
  Rng jitter(options_.seed ^ 0x5eedf00dULL);
  auto orientation_ok = [&](const FsModel& m) {
    if (m.p > 0.5) return false;
    size_t regular = 0;
    for (size_t i = 0; i < k; ++i) {
      if (m.m[i] > m.u[i]) ++regular;
    }
    return regular > k / 2;
  };

  FsModel best, best_sane;
  double best_loglik = -1e301, best_sane_loglik = -1e301;
  bool have_sane = false;
  size_t restarts = std::max<size_t>(options_.em_restarts, 1);
  for (size_t r = 0; r < restarts; ++r) {
    double jm = r == 0 ? options_.init_m
                       : Clamp01(options_.init_m - 0.25 * jitter.NextDouble());
    double ju = r == 0 ? options_.init_u
                       : Clamp01(options_.init_u + 0.2 * jitter.NextDouble());
    double jp = r == 0 ? options_.init_p
                       : Clamp01(0.02 + 0.3 * jitter.NextDouble());
    FsModel candidate;
    double loglik = run_em(jm, ju, jp, &candidate);
    if (orientation_ok(candidate) && loglik > best_sane_loglik) {
      best_sane_loglik = loglik;
      best_sane = candidate;
      have_sane = true;
    }
    if (loglik > best_loglik) {
      best_loglik = loglik;
      best = std::move(candidate);
    }
  }

  if (have_sane) {
    model_ = std::move(best_sane);
  } else {
    size_t inverted = 0;
    for (size_t i = 0; i < k; ++i) {
      if (best.m[i] < best.u[i]) ++inverted;
    }
    if (inverted > k / 2) {
      std::swap(best.m, best.u);
      best.p = Clamp01(1.0 - best.p);
    }
    model_ = std::move(best);
  }
  return Status::OK();
}

double FellegiSunter::ScorePattern(uint32_t pattern) const {
  double score = 0;
  for (size_t i = 0; i < vector_.size(); ++i) {
    score += ((pattern >> i) & 1u) ? model_.AgreementWeight(i)
                                   : model_.DisagreementWeight(i);
  }
  return score;
}

double FellegiSunter::Score(const sim::SimOpRegistry& ops, const Tuple& left,
                            const Tuple& right) const {
  return ScorePattern(vector_.ComparePattern(ops, left, right));
}

double FellegiSunter::Threshold() const {
  if (options_.match_threshold.has_value()) return *options_.match_threshold;
  double p = Clamp01(model_.p);
  return std::log2((1.0 - p) / p);  // MAP decision boundary
}

bool FellegiSunter::IsMatch(const sim::SimOpRegistry& ops, const Tuple& left,
                            const Tuple& right) const {
  return Score(ops, left, right) >= Threshold();
}

ComparisonVector SelectVectorByEm(const Instance& instance,
                                  const sim::SimOpRegistry& ops,
                                  const ComparableLists& target,
                                  sim::SimOpId op, size_t max_attrs,
                                  const FsOptions& options) {
  ComparisonVector full = ComparisonVector::AllWithOp(target, op);
  FellegiSunter fs(full, options);
  if (!fs.Train(instance, ops).ok()) return full;

  // Rank the elements by total discriminating power.
  std::vector<std::pair<double, size_t>> ranked;
  for (size_t i = 0; i < full.size(); ++i) {
    double power = std::abs(fs.model().AgreementWeight(i)) +
                   std::abs(fs.model().DisagreementWeight(i));
    ranked.emplace_back(power, i);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });

  std::vector<Conjunct> chosen;
  for (size_t i = 0; i < ranked.size() && chosen.size() < max_attrs; ++i) {
    chosen.push_back(full.elements()[ranked[i].second]);
  }
  return ComparisonVector(std::move(chosen));
}

}  // namespace mdmatch::match
