// Planted metric-name-literal violations: inline metric names in library
// code. A typo in one of them creates a new, dead series instead of
// failing to compile.
#include "obs/metrics.h"

namespace fixture {

void Count(ricd::obs::MetricsRegistry& registry) {
  registry.GetCounter("fixture.ingest.acepted")->Add(1);
  registry.GetHistogram("fixture.ingest.seconds")->Observe(0.001);
}

}  // namespace fixture
