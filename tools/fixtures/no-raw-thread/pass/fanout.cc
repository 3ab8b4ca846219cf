// Work fans out through the pool; naming a nested member of std::thread
// (hardware_concurrency, id) constructs no thread.
#include <thread>

#include "common/thread_pool.h"

namespace fixture {

void FanOut() {
  const unsigned cores = std::thread::hardware_concurrency();
  std::thread::id owner;
  ricd::ThreadPool pool(cores == 0 ? 1 : 2);
  pool.Submit([owner] { (void)owner; });
  pool.Wait();
}

}  // namespace fixture
