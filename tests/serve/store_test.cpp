// serve::ReputationStore: snapshot publishing, epoch-based reclamation, and
// the (epoch, score) consistency contract under concurrent readers.
#include "serve/store.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

namespace gt::serve {
namespace {

TEST(ReputationStore, LookupBeforeFirstPublishMisses) {
  ReputationStore store;
  auto guard = store.reader();
  EXPECT_FALSE(store.lookup(guard, 0).found());
  EXPECT_EQ(store.published_epoch(), 0u);
  EXPECT_EQ(store.snapshots_live(), 0u);
}

TEST(ReputationStore, PublishThenLookup) {
  ReputationStore store;
  const std::vector<double> scores{0.5, 0.25, 0.125, 0.0625, 0.0625};
  const std::uint64_t epoch = store.publish(scores);
  EXPECT_EQ(epoch, 1u);
  EXPECT_EQ(store.published_epoch(), 1u);
  EXPECT_EQ(store.snapshots_live(), 1u);

  auto guard = store.reader();
  for (std::size_t i = 0; i < scores.size(); ++i) {
    const LookupResult r = store.lookup(guard, i);
    ASSERT_TRUE(r.found()) << "id " << i;
    EXPECT_EQ(r.epoch, 1u);
    EXPECT_DOUBLE_EQ(r.score, scores[i]);
  }
  // Ids at or past the published size are not present.
  for (const std::uint64_t id : {std::uint64_t{scores.size()},
                                 std::uint64_t{scores.size() + 1},
                                 ~std::uint64_t{0}}) {
    const LookupResult r = store.lookup(guard, id);
    EXPECT_FALSE(r.found()) << "id " << id;
    EXPECT_EQ(r.score, 0.0) << "id " << id;
  }
}

TEST(ReputationStore, RepublishBumpsEpochEverywhere) {
  ReputationStore store;
  store.publish({0.1, 0.2, 0.3});
  const std::uint64_t e2 = store.publish({0.4, 0.5, 0.6});
  EXPECT_EQ(e2, 2u);
  auto guard = store.reader();
  for (std::uint64_t i = 0; i < 3; ++i) {
    const LookupResult r = store.lookup(guard, i);
    EXPECT_EQ(r.epoch, 2u);
    EXPECT_DOUBLE_EQ(r.score, 0.4 + 0.1 * static_cast<double>(i));
  }
  // A shorter vector replaces the previous one whole: ids it no longer
  // covers read as not found instead of keeping their old scores.
  EXPECT_EQ(store.publish({0.7}), 3u);
  EXPECT_EQ(store.lookup(guard, 0).epoch, 3u);
  EXPECT_DOUBLE_EQ(store.lookup(guard, 0).score, 0.7);
  for (std::uint64_t i = 1; i < 3; ++i)
    EXPECT_FALSE(store.lookup(guard, i).found()) << "id " << i;
}

TEST(ReputationStore, ReclamationWithoutReaders) {
  ReputationStore store;
  const int kPublishes = 10;
  for (int i = 0; i < kPublishes; ++i) store.publish({1.0, 2.0, 3.0});
  // Each publish after the first retires the previous snapshot; with no
  // pinned readers every retired snapshot must be reclaimed or in limbo.
  const std::uint64_t retired = kPublishes - 1;
  EXPECT_EQ(store.snapshots_reclaimed() + store.limbo_size(), retired);
  EXPECT_EQ(store.snapshots_live(), 1u);
  // With no reader pinned the limbo should be fully drained by the last
  // publish except possibly the snapshot it retired itself.
  EXPECT_LE(store.limbo_size(), 1u);
}

TEST(ReputationStore, PinnedReaderBlocksReclamation) {
  ReputationStore store;
  store.publish({0.5});

  auto guard = store.reader();  // pins the epoch with the v1 snapshot live
  const LookupResult before = store.lookup(guard, 0);
  EXPECT_EQ(before.epoch, 1u);

  store.publish({0.6});  // retires v1 — must NOT free it: we may still read
  store.publish({0.7});
  EXPECT_GE(store.limbo_size(), 1u) << "snapshot freed under a pinned reader";

  // The pinned guard still reads a coherent (if stale) snapshot.
  const LookupResult stale = store.lookup(guard, 0);
  EXPECT_TRUE(stale.found());

  guard.release();
  store.publish({0.8});  // reclamation runs on the next publish
  EXPECT_LE(store.limbo_size(), 1u);
  EXPECT_GE(store.snapshots_reclaimed(), 2u);
}

TEST(ReputationStore, RefreshUnblocksReclamation) {
  ReputationStore store;
  store.publish({0.5});
  auto guard = store.reader();
  store.publish({0.6});
  guard.refresh();  // moves the pin to the current epoch
  store.publish({0.7});
  // Everything retired before the refreshed pin is now reclaimable. Note
  // the pin protects reclamation, not data freshness: lookups always read
  // the currently published snapshot.
  EXPECT_GE(store.snapshots_reclaimed(), 1u);
  EXPECT_EQ(store.lookup(guard, 0).epoch, store.published_epoch());
}

TEST(ReputationStore, IngestQueueDrains) {
  ReputationStore store;
  for (std::uint64_t i = 0; i < 100; ++i)
    store.enqueue_feedback({i, i + 1, 0.5});
  EXPECT_EQ(store.feedback_enqueued(), 100u);
  EXPECT_EQ(store.feedback_pending(), 100u);
  std::vector<FeedbackUpdate> out;
  EXPECT_EQ(store.drain_feedback(out), 100u);
  EXPECT_EQ(out.size(), 100u);
  EXPECT_EQ(out[7].rater, 7u);
  EXPECT_EQ(out[7].ratee, 8u);
  EXPECT_EQ(store.feedback_pending(), 0u);
  EXPECT_EQ(store.drain_feedback(out), 0u);
  EXPECT_EQ(store.feedback_enqueued(), 100u);  // enqueued is cumulative
}

// --- threshold wait on the ingest queue -----------------------------------

using std::chrono::milliseconds;
using WaitClock = std::chrono::steady_clock;

double seconds_since(WaitClock::time_point t0) {
  return std::chrono::duration<double>(WaitClock::now() - t0).count();
}

TEST(ReputationStore, WaitFeedbackWakesWhenAnEnqueueReachesTheThreshold) {
  ReputationStore store;
  constexpr std::uint64_t kBatch = 64;
  // The last update lands well after the waiter is asleep, so only the
  // threshold wake, not the 5 s timeout, can end the wait in time.
  std::thread producer([&] {
    for (std::uint64_t i = 0; i + 1 < kBatch; ++i)
      store.enqueue_feedback({i, i + 1, 0.5});
    std::this_thread::sleep_for(milliseconds(50));
    store.enqueue_feedback({kBatch, kBatch + 1, 0.5});
  });
  const auto t0 = WaitClock::now();
  const std::size_t pending = store.wait_feedback(kBatch, std::chrono::seconds(5));
  const double waited = seconds_since(t0);
  producer.join();
  EXPECT_EQ(pending, kBatch);
  EXPECT_LT(waited, 2.5);
  EXPECT_EQ(store.feedback_pending(), kBatch);  // waiting never drains
}

TEST(ReputationStore, WaitFeedbackWakesEachWaiterAtItsOwnThreshold) {
  ReputationStore store;
  std::atomic<std::size_t> low_saw{0}, high_saw{0};
  std::thread low([&] { low_saw = store.wait_feedback(10, std::chrono::seconds(5)); });
  std::thread high([&] { high_saw = store.wait_feedback(20, std::chrono::seconds(5)); });
  const auto t0 = WaitClock::now();
  for (std::uint64_t i = 0; i < 20; ++i) {
    std::this_thread::sleep_for(milliseconds(2));
    store.enqueue_feedback({i, i + 1, 0.5});
  }
  low.join();
  high.join();
  EXPECT_LT(seconds_since(t0), 2.5);
  EXPECT_GE(low_saw.load(), 10u);
  EXPECT_EQ(high_saw.load(), 20u);
  EXPECT_EQ(store.feedback_pending(), 20u);
}

TEST(ReputationStore, WaitFeedbackTimesOutBelowTheThreshold) {
  ReputationStore store;
  store.enqueue_feedback({0, 1, 0.5});
  const auto t0 = WaitClock::now();
  EXPECT_EQ(store.wait_feedback(2, milliseconds(30)), 1u);
  EXPECT_GE(seconds_since(t0), 0.029);
  EXPECT_EQ(store.feedback_pending(), 1u);
}

TEST(ReputationStore, WaitFeedbackReturnsAtOnceWhenTheThresholdIsMet) {
  ReputationStore store;
  for (std::uint64_t i = 0; i < 3; ++i) store.enqueue_feedback({i, i + 1, 0.5});
  const auto t0 = WaitClock::now();
  EXPECT_EQ(store.wait_feedback(3, std::chrono::seconds(5)), 3u);
  EXPECT_EQ(store.wait_feedback(0, std::chrono::seconds(5)), 3u);
  EXPECT_LT(seconds_since(t0), 2.5);
  EXPECT_EQ(store.feedback_pending(), 3u);
}

// The load-bearing test: N reader threads hammer lookups while a writer
// publishes continuously. Every publish encodes its own epoch into every
// score (score[i] = epoch * 1000 + i), so a reader can verify from the
// result alone that the (epoch, score) pair came from ONE coherent
// snapshot — a torn read across two snapshots fails the equality.
TEST(ReputationStore, ConcurrentReadersSeeCoherentEpochScorePairs) {
  constexpr std::size_t kNodes = 256;
  constexpr std::size_t kReaders = 4;
  constexpr int kPublishes = 400;

  ReputationStore store;
  std::vector<double> seed(kNodes);
  for (std::size_t i = 0; i < kNodes; ++i)
    seed[i] = 1000.0 + static_cast<double>(i);  // epoch 1 encoding
  store.publish(seed);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::atomic<int> failures{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (std::size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      std::uint64_t last_epoch = 0;
      std::uint64_t x = 0x9e3779b97f4a7c15ull * (t + 1);
      auto guard = store.reader();
      while (!stop.load(std::memory_order_acquire)) {
        // xorshift: cheap deterministic id sequence per thread
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const std::uint64_t id = x % kNodes;
        const LookupResult r = store.lookup(guard, id);
        const double expect =
            static_cast<double>(r.epoch) * 1000.0 + static_cast<double>(id);
        // One snapshot pointer: a reader's epoch never goes backwards,
        // whichever ids it reads in between.
        if (!r.found() || r.score != expect || r.epoch < last_epoch) {
          failures.fetch_add(1, std::memory_order_relaxed);
          break;
        }
        last_epoch = r.epoch;
        reads.fetch_add(1, std::memory_order_relaxed);
        if ((reads.load(std::memory_order_relaxed) & 0x3f) == 0)
          guard.refresh();
      }
    });
  }

  // Publish kPublishes epochs, then keep churning until every reader has
  // made real progress — on a loaded single-core host the reader threads
  // may not get scheduled at all during a fixed publish count, and the
  // test is only meaningful if reads overlap publishes.
  std::vector<double> scores(kNodes);
  std::uint64_t next_epoch = 2;
  const auto publish_one = [&] {
    for (std::size_t i = 0; i < kNodes; ++i)
      scores[i] = static_cast<double>(next_epoch) * 1000.0 +
                  static_cast<double>(i);
    const std::uint64_t epoch = store.publish(scores);
    ASSERT_EQ(epoch, next_epoch);
    ++next_epoch;
  };
  for (int p = 0; p < kPublishes; ++p) publish_one();
  while (reads.load(std::memory_order_relaxed) < kReaders * 64 &&
         failures.load(std::memory_order_relaxed) == 0) {
    publish_one();
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(reads.load(), 0u);
  // Readers are quiescent: one more publish must drain the limbo fully
  // (modulo the snapshot that very publish retired).
  store.publish(scores);
  EXPECT_LE(store.limbo_size(), 1u);
  EXPECT_GT(store.snapshots_reclaimed(), 0u);
}

TEST(ReputationStoreDeathTest, ReaderSlotExhaustionAbortsLoudly) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  StoreConfig cfg;
  cfg.max_readers = 1;
  ReputationStore store(cfg);
  auto guard = store.reader();
  EXPECT_DEATH(
      {
        auto second = store.reader();
        (void)second;
      },
      "reader slots");
}

}  // namespace
}  // namespace gt::serve
