#include "iqs/util/epoch.h"

#include <atomic>
#include <cstdint>
#include <latch>
#include <memory>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "iqs/util/thread_pool.h"

namespace iqs {
namespace {

// Payload with an instance counter (for leak/growth assertions) and a
// redundancy invariant (for torn-read detection): check == ~value always.
struct Payload {
  explicit Payload(uint64_t v) : value(v), check(~v) { ++live; }
  ~Payload() { --live; }
  uint64_t value;
  uint64_t check;
  static std::atomic<int64_t> live;
};
std::atomic<int64_t> Payload::live{0};

TEST(VersionedTest, AcquireSeesLatestPublish) {
  Versioned<Payload> versioned(std::make_unique<const Payload>(0));
  for (uint64_t v = 1; v <= 10; ++v) {
    versioned.Publish(std::make_unique<const Payload>(v));
    const Snapshot<Payload> snap = versioned.Acquire();
    ASSERT_TRUE(snap);
    EXPECT_EQ(snap->value, v);
    EXPECT_EQ(snap->check, ~v);
  }
  EXPECT_EQ(versioned.versions_published(), 10u);
}

TEST(VersionedTest, SnapshotKeepsRetiredVersionAlive) {
  Versioned<Payload> versioned(std::make_unique<const Payload>(7));
  const Snapshot<Payload> pinned = versioned.Acquire();
  // Publish several replacements while the old version is pinned: the
  // pinned payload must stay intact (not reclaimed, not torn).
  for (uint64_t v = 100; v < 105; ++v) {
    versioned.Publish(std::make_unique<const Payload>(v));
    EXPECT_EQ(pinned->value, 7u);
    EXPECT_EQ(pinned->check, ~uint64_t{7});
  }
  // The pin blocks the grace period: retired versions cannot all be
  // reclaimed while the snapshot lives.
  EXPECT_GT(versioned.epoch_manager()->retired_pending(), 0u);
}

TEST(VersionedTest, ReleaseUnblocksReclamation) {
  Versioned<Payload> versioned(std::make_unique<const Payload>(1));
  {
    const Snapshot<Payload> pinned = versioned.Acquire();
    for (uint64_t v = 2; v < 8; ++v) {
      versioned.Publish(std::make_unique<const Payload>(v));
    }
    EXPECT_GT(versioned.epoch_manager()->retired_pending(), 0u);
  }
  // Pin released: a writer-side reclaim pass drains the limbo ring.
  EXPECT_GT(versioned.epoch_manager()->Reclaim(), 0u);
  EXPECT_EQ(versioned.epoch_manager()->retired_pending(), 0u);
  // Exactly the latest version remains live.
  EXPECT_EQ(Payload::live.load(), 1);
}

TEST(VersionedTest, MoveTransfersThePin) {
  Versioned<Payload> versioned(std::make_unique<const Payload>(3));
  Snapshot<Payload> a = versioned.Acquire();
  Snapshot<Payload> b = std::move(a);
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): moved-from is empty
  ASSERT_TRUE(b);
  EXPECT_EQ(b->value, 3u);
  Snapshot<Payload> c;
  c = std::move(b);
  ASSERT_TRUE(c);
  EXPECT_EQ(c->value, 3u);
}

TEST(VersionedTest, NoMonotonicGrowthAcrossManyPublishCycles) {
  // The reclamation acceptance bound: across >= 1000 publish cycles with
  // transient readers, the number of live payloads stays O(1) — retired
  // versions provably come back.
  ASSERT_EQ(Payload::live.load(), 0);
  Versioned<Payload> versioned(std::make_unique<const Payload>(0));
  int64_t max_live = 0;
  size_t max_pending = 0;
  for (uint64_t v = 1; v <= 1500; ++v) {
    {
      const Snapshot<Payload> snap = versioned.Acquire();
      EXPECT_EQ(snap->check, ~snap->value);
    }
    versioned.Publish(std::make_unique<const Payload>(v));
    max_live = std::max(max_live, Payload::live.load());
    max_pending =
        std::max(max_pending, versioned.epoch_manager()->retired_pending());
  }
  // The 3-epoch grace period bounds limbo at a handful of versions; far
  // below the 1500 published (the leak regime this test guards against).
  EXPECT_LE(max_live, 8);
  EXPECT_LE(max_pending, 8u);
  EXPECT_EQ(versioned.epoch_manager()->reclaimed() +
                versioned.epoch_manager()->retired_pending(),
            1500u);
}

TEST(EpochManagerTest, RetireRunsDeleterExactlyOnceViaDrain) {
  EpochManager manager;
  static std::atomic<int> deleted;
  deleted = 0;
  int dummy[4];
  for (int& slot : dummy) {
    manager.Retire(&slot, [](void*) { deleted.fetch_add(1); });
  }
  EXPECT_EQ(manager.retired_pending(), 4u);
  manager.Drain();
  EXPECT_EQ(deleted.load(), 4);
  EXPECT_EQ(manager.retired_pending(), 0u);
  EXPECT_EQ(manager.reclaimed(), 4u);
}

TEST(EpochManagerTest, ReaderPinsAreCounted) {
  EpochManager manager;
  EXPECT_EQ(manager.reader_pins(), 0u);
  for (int i = 0; i < 5; ++i) {
    const size_t slot = manager.EnterReader();
    manager.ExitReader(slot);
  }
  EXPECT_EQ(manager.reader_pins(), 5u);
}

TEST(EpochManagerTest, ReclaimRunsDeletersOnThePool) {
  ThreadPool pool(3);
  EpochManager manager;
  static std::atomic<int> deleted;
  deleted = 0;
  int dummy[8];
  for (int& slot : dummy) {
    manager.Retire(&slot, [](void*) { deleted.fetch_add(1); });
  }
  manager.Drain(&pool);
  EXPECT_EQ(deleted.load(), 8);
}

TEST(VersionedTest, ConcurrentReadersNeverObserveTornPayloads) {
  // 2 reader threads validating the redundancy invariant while the main
  // thread publishes 400 versions. Run under TSan in CI (sanitizers.yml);
  // the invariant also catches use-after-reclaim in normal runs. The
  // publisher starts only once every reader has pinned a snapshot, so the
  // reads always overlap the publishes.
  constexpr int kReaders = 2;
  Versioned<Payload> versioned(std::make_unique<const Payload>(0));
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::latch readers_pinned(kReaders);
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      bool first = true;
      while (!stop.load(std::memory_order_acquire)) {
        const Snapshot<Payload> snap = versioned.Acquire();
        if (first) {
          readers_pinned.count_down();
          first = false;
        }
        ASSERT_TRUE(snap);
        const uint64_t value = snap->value;
        const uint64_t check = snap->check;
        ASSERT_EQ(check, ~value);
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  readers_pinned.wait();
  for (uint64_t v = 1; v <= 400; ++v) {
    versioned.Publish(std::make_unique<const Payload>(v));
    if (v % 16 == 0) std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(versioned.versions_published(), 400u);
  const Snapshot<Payload> last = versioned.Acquire();
  EXPECT_EQ(last->value, 400u);
}

}  // namespace
}  // namespace iqs
