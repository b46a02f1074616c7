#ifndef MDMATCH_STREAM_SINK_H_
#define MDMATCH_STREAM_SINK_H_

#include "stream/delta.h"

namespace mdmatch::stream {

/// \brief Receives the match-delta stream of an IngestDriver subscription.
///
/// OnDelta is called from the subscription's dedicated delivery thread —
/// one call at a time, deltas in generation order, never a gap: between
/// two consecutive calls either to/from generations chain directly or the
/// second delta is a resync snapshot (MatchDelta::resync) replacing the
/// subscriber's state wholesale. A slow implementation delays only its
/// own queue — never the flusher or other subscribers — and past its
/// queue bound it is resynced instead of growing memory.
class MatchDeltaSink {
 public:
  virtual ~MatchDeltaSink() = default;
  virtual void OnDelta(const MatchDelta& delta) = 0;
};

/// Per-subscription knobs of IngestDriver::Subscribe. The delivery queue
/// bound is the driver's (IngestDriverOptions::subscriber_queue_capacity).
struct SubscribeOptions {
  /// Deliver the driver's current standing state as one resync delta
  /// before any incremental diffs — for subscribers attaching to a
  /// non-empty session. Without it a subscription starts at the current
  /// generation and receives only subsequent changes.
  bool initial_snapshot = false;
};

}  // namespace mdmatch::stream

#endif  // MDMATCH_STREAM_SINK_H_
