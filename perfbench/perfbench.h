#ifndef MDMATCH_PERFBENCH_PERFBENCH_H_
#define MDMATCH_PERFBENCH_PERFBENCH_H_

// Shared pieces of the repository benchmark: the workload interface, the
// per-operation layer spans the traced runs record, and the set-up and
// correctness helpers every workload uses. See README.md for what each
// workload measures and why.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/plan.h"
#include "api/session.h"
#include "datagen/credit_billing.h"
#include "sim/sim_op.h"
#include "stream/delta.h"
#include "util/status.h"

namespace perfbench {

using namespace mdmatch;

/// One benchmark invocation, as given on the command line.
struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10;  ///< measured window, excluding warm-up
  bool trace = false;   ///< per-layer run instead of the end-to-end one
};

/// Share of RunConfig::seconds run untimed first, so caches fill and lazy
/// set-up finishes before latencies are sampled.
inline double WarmupSeconds(const RunConfig& config) {
  return 0.1 * config.seconds;
}

/// Entities of the session workloads' dataset: the FULL size of
/// bench/bench_session_stream.cc and bench/bench_ingest_latency.cc
/// (K = 20000, 1.8 records per entity per side, 72k records).
constexpr size_t kSessionEntities = 20000;

/// Records of a relation in the standing corpus: its first 80%, the
/// bulk-loaded share of those benches (57.6k records at kSessionEntities).
inline size_t StandingCount(const Relation& relation) {
  return relation.size() * 8 / 10;
}

/// \brief The layer spans of one operation (a flush cycle, a churn wave or
/// a one-shot job), in seconds.
///
/// `total` is the wall time of the operation as the benchmark saw it. The
/// four named layers are disjoint parts of it; whatever they leave over is
/// the unattributed remainder. The session detail fields split the
/// layers further and are zero on the one-shot path.
struct OpSpans {
  double start = 0;  ///< monotonic start of the operation
  double total = 0;
  double candidate = 0;  ///< index merge + candidate scan | windowing
  double eval = 0;       ///< pair evaluation
  double cluster = 0;    ///< drift re-rank + cluster upkeep | closure
  double deliver = 0;    ///< publish + diff + replicas | sink
  // Session detail (each nested in one layer above, or unattributed).
  double stage = 0;    ///< Upsert/Remove staging calls (unattributed)
  double merge = 0;    ///< in candidate
  double scan = 0;     ///< in candidate
  double rerank = 0;   ///< in cluster
  double publish = 0;  ///< in deliver
  double diff = 0;     ///< GenerationDiff, in deliver
  double apply = 0;    ///< subscriber replica apply, in deliver
  double reader = 0;   ///< read-replica staging + flush, in deliver
  size_t records = 0;  ///< records staged (or in the batch)
  size_t pairs_evaluated = 0;
  size_t matches_added = 0;
  size_t publish_bytes = 0;

  double Unattributed() const {
    return total - candidate - eval - cluster - deliver;
  }
  /// Fills the flush-internal spans from the session's own report.
  void AddFlush(const api::IngestReport& report);
};

/// One end-to-end latency sample.
struct Sample {
  double at = 0;       ///< monotonic time the result arrived
  double seconds = 0;  ///< the result's latency
};

/// The control arm's kernel time at the machine speed every reported
/// end-to-end time is scaled to: its time on an unloaded 2.1 GHz Xeon
/// vCPU.
constexpr double kControlReferenceSeconds = 1.25e-3;

/// \brief The benchmark's control arm: a fixed CPU kernel (edit-distance
/// tables and a string sort over a fixed string pool) that no change to
/// the program can speed up or slow down.
///
/// Workloads run it between operations, never inside a timed span. The
/// machine the benchmark shares runs at two thirds of its speed or less
/// for seconds to minutes at a time, and the kernel's time tracks that
/// speed. End-to-end times are scaled by kControlReferenceSeconds over
/// the kernel's time measured alongside them.
class ControlArm {
 public:
  /// Runs the kernel once, records and returns its time in seconds.
  double Run();
  /// Runs the kernel when 50 ms have passed since its last run.
  void MaybeRun();
  /// Median kernel time of all runs. Requires a run.
  double MedianSeconds() const;
  /// Median kernel time of the runs that ended in [from, to], or of all
  /// runs when none did. Requires a run.
  double SecondsNear(double from, double to) const;

 private:
  std::vector<Sample> samples_;
  double last_ = 0;
  uint64_t sink_ = 0;
};

/// What one measured run produced.
struct Outcome {
  bool correct = true;
  std::vector<std::string> errors;
  size_t attempted = 0;
  size_t failed = 0;
  /// End-to-end latency samples of the measured window.
  std::vector<Sample> latencies;
  /// Traced operations (trace mode).
  std::vector<OpSpans> ops;
  /// The control arm, run by the workload between its operations.
  ControlArm control;
  /// Diagnostics printed ahead of the result line.
  std::vector<std::pair<std::string, double>> notes;

  void Fail(std::string why) {
    correct = false;
    errors.push_back(std::move(why));
  }
};

/// A workload: constructed by its set-up (inputs generated from the seed,
/// the system brought to its starting state), then run once.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual Outcome Run(const RunConfig& config) = 0;
};

/// Set-up entry points, one per workload; each returns a ready workload.
Result<std::unique_ptr<Workload>> SetupStream(const RunConfig& config);
Result<std::unique_ptr<Workload>> SetupChurn(const RunConfig& config);
Result<std::unique_ptr<Workload>> SetupOneShotFs(const RunConfig& config);

/// A generated credit/billing dataset and the plan compiled for it. The
/// similarity-operator registry is heap-held so the plan's reference to it
/// stays valid when the Dataset moves.
struct Dataset {
  std::unique_ptr<sim::SimOpRegistry> ops;
  datagen::CreditBillingData data;
  api::PlanPtr plan;
};

/// Generates the Section 6.2 dataset with `num_base` entities and compiles
/// the experiment plan over it: deduced RCKs, the standard windowing keys,
/// and for rule plans the relaxed top-k RCK rules.
Result<Dataset> MakeDataset(size_t num_base, uint64_t seed,
                            api::PlanOptions options);

/// Checks the session contract on one generation: its matches equal a
/// one-shot Executor::Run over its corpus. Records a failure otherwise.
void CheckAgainstOneShot(const api::PlanPtr& plan,
                         const api::SessionView& view, Outcome* outcome);

/// Checks that a second session's view holds exactly the first's matches.
void CheckSameMatches(const api::SessionView& expected,
                      const api::SessionView& got, const std::string& name,
                      Outcome* outcome);

/// Checks that a subscriber replica holds exactly the view's matches.
void CheckReplica(const stream::DeltaReplica& replica,
                  const api::SessionView& view, const std::string& name,
                  Outcome* outcome);

}  // namespace perfbench

#endif  // MDMATCH_PERFBENCH_PERFBENCH_H_
