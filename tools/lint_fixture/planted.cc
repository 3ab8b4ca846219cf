// Deliberately non-conforming translation unit for the ricd_lint fixture
// test; see planted.h. Never build or link this file.
#include "planted.h"

#include <cstdio>
#include <cstdlib>
#include <thread>

int PlantedViolations() {
  std::srand(42);                 // planted: no-rand
  const int noise = std::rand();  // planted: no-rand
  std::thread worker([] {});      // planted: no-raw-thread
  worker.join();
  FakeRegistry registry;
  int* series = registry.GetCounter("my.adhoc.metric");  // planted: metric-name-literal
  char scratch[8];
  std::FILE* f = std::fopen("/dev/null", "rb");
  fread(scratch, 1, sizeof(scratch), f);  // planted: unchecked-io-return
  std::fclose(f);
  int sock = OpenSocket();
  close(sock);  // planted: unchecked-io-return (socket flavor)
  return noise + static_cast<int>(scratch[0]);
}
