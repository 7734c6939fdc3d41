// Scripts created and run on several threads at once share one interned
// chunk and the process-wide stdlib (the sharded engine attaches handlers
// on its worker threads).  Run under TSan by tools/ci.sh.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "aal/script.hpp"

namespace rbay::aal {
namespace {

constexpr int kThreads = 4;
constexpr int kScriptsPerThread = 40;

const char* const kSource = R"(
AA = {Secret = crypto.sha1("3053482032")}
function onGet(caller, load)
  return crypto.sha1(string.format("%s:%d:%s", caller, math.floor(load), AA.Secret))
end)";

std::string on_get(Script& script, int thread, int i) {
  auto r = script.call("onGet", {Value::string("node" + std::to_string(thread)),
                                 Value::number(i + 0.5)});
  return r.ok() && r.value().is_string() ? r.value().as_string() : "error";
}

/// Each worker loads its own scripts over `kSource` and checks every
/// onGet answer against `expected[thread][i]`; returns the mismatch count.
int run_workers(const std::vector<std::vector<std::string>>& expected,
                const Chunk* must_share) {
  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kScriptsPerThread; ++i) {
        auto script = Script::load(kSource);
        if (!script.ok() || on_get(*script.value(), t, i) != expected[t][i] ||
            (must_share != nullptr && script.value()->chunk().get() != must_share)) {
          ++mismatches;
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  return mismatches.load();
}

TEST(ConcurrentChunks, ThreadsShareOneChunkAndTheStdlib) {
  auto loaded = Script::load(kSource);
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  auto anchor = loaded.take();
  std::vector<std::vector<std::string>> expected(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kScriptsPerThread; ++i) {
      expected[t].push_back(on_get(*anchor, t, i));
      ASSERT_EQ(expected[t].back().size(), 40u);
    }
  }
  // With the anchor alive every load reuses its chunk.
  EXPECT_EQ(run_workers(expected, anchor->chunk().get()), 0);
  // Without it the chunk dies and is recompiled as the workers race.
  anchor.reset();
  EXPECT_EQ(run_workers(expected, nullptr), 0);
}

}  // namespace
}  // namespace rbay::aal
