// Planted no-raw-thread violations: a std::thread, a std::jthread, a
// std::async task and a pthread_create call, each one outside the pool that
// owns the worker count.
#include <pthread.h>

#include <future>
#include <thread>

namespace fixture {

void* Work(void*) { return nullptr; }

void FanOut() {
  std::thread a([] {});
  std::jthread b([] {});
  auto c = std::async([] { return 1; });
  pthread_t d;
  pthread_create(&d, nullptr, &Work, nullptr);
  a.join();
  c.wait();
  pthread_join(d, nullptr);
}

}  // namespace fixture
