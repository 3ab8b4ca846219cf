// Tests are not library code: a test may name a throwaway series inline.
#include "obs/metrics.h"

namespace fixture {

void CountInTest(ricd::obs::MetricsRegistry& registry) {
  registry.GetCounter("test.scratch.counter")->Add(1);
}

}  // namespace fixture
