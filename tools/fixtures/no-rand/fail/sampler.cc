// Planted no-rand violations: libc srand()/rand(), unqualified and through
// std::. Their sequence differs across C libraries, so a seeded run would
// not reproduce on another platform.
#include <cstdlib>

namespace fixture {

int Sample(unsigned seed) {
  std::srand(seed);
  return rand() % 100 + std::rand() % 100;
}

}  // namespace fixture
