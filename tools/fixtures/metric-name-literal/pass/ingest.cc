// Library code names its metrics through constants, as src/obs/
// metric_names.h does for the project, so a misspelling fails to compile.
#include "obs/metrics.h"

namespace fixture {

inline constexpr char kIngestAccepted[] = "fixture.ingest.accepted";
inline constexpr char kIngestSeconds[] = "fixture.ingest.seconds";

void Count(ricd::obs::MetricsRegistry& registry) {
  registry.GetCounter(kIngestAccepted)->Add(1);
  registry.GetHistogram(kIngestSeconds)->Observe(0.001);
}

}  // namespace fixture
