// lint-fixture-path: src/core/bad_thread.cc
// Fixture: the raw-thread rule. Spawning threads anywhere in src/ is an
// error: evaluation is single-threaded, every TupleStore mutation needs
// exclusive access, and the provenance log takes no lock.
#include <future>
#include <thread>

void SpawnWorker() {
  std::thread worker([] {});     // expect-lint: raw-thread
  worker.join();
}

void SpawnJthread() {
  std::jthread worker([] {});    // expect-lint: raw-thread
}

int LaunchAsync() {
  auto f = std::async([] { return 1; });  // expect-lint: raw-thread
  return f.get();
}

// std::this_thread is not thread creation and stays legal everywhere, as
// are nested-member observations like std::thread::id.
void YieldOnce() { std::this_thread::yield(); }
unsigned Cores() { return std::thread::hardware_concurrency(); }
