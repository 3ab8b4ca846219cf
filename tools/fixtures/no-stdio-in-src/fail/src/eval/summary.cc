// Planted no-stdio-in-src violations in library code (this file sits under
// src/): printf, fprintf, puts and std::cout write past the logger, so a
// server embedding the library cannot route or silence them.
#include <cstdio>
#include <iostream>

namespace fixture {

void Summarize(double precision, double recall) {
  std::printf("precision %.3f\n", precision);
  std::fprintf(stderr, "recall %.3f\n", recall);
  puts("done");
  std::cout << "f1 " << 2 * precision * recall / (precision + recall) << "\n";
}

}  // namespace fixture
