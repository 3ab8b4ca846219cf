// Seed-stable sampling through the project generator. The word rand in a
// comment or in a string literal ("rand()") is not a call, and a member
// named rand_ is not libc.
#include <cstdint>

#include "common/random.h"

namespace fixture {

struct Draw {
  uint64_t rand_ = 0;
};

const char* const kBanned = "rand()";

uint64_t Sample(uint64_t seed) {
  ricd::Rng rng(seed);
  Draw draw;
  draw.rand_ = rng.Next();
  return draw.rand_ % 100;
}

}  // namespace fixture
