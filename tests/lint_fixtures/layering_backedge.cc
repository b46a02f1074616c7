// Seeded violation: linted under the pretend path src/match/bad.cc, so
// the direct candidate/ include below is a layer-DAG back-edge (match is
// below candidate; a sanctioned back-edge carries an allow(layering)
// marker).

#include "candidate/windowing.h"
#include "match/blocking.h"
#include "util/status.h"

namespace mdmatch::match {}
