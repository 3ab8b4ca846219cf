// Library code formats into a buffer (snprintf writes no stream) and hands
// the text to the logger.
#include <cstdio>

#include "common/logging.h"

namespace fixture {

void Summarize(double precision, double recall) {
  char line[64];
  std::snprintf(line, sizeof(line), "precision %.3f recall %.3f", precision,
                recall);
  RICD_LOG(INFO) << line;
}

}  // namespace fixture
