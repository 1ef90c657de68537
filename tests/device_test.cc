// Device-layer tests: RAM budget enforcement (partitions included), channel
// cost + transcript + session tags, arbiter policy, SecureDevice wiring.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "device/channel.h"
#include "device/channel_arbiter.h"
#include "device/guards.h"
#include "device/ram_manager.h"
#include "device/secure_device.h"

namespace ghostdb::device {
namespace {

TEST(RamManagerTest, SixtyFourKiloBytesIs32Buffers) {
  RamManager ram(64 * 1024, 2048);
  EXPECT_EQ(ram.total_buffers(), 32u);
  EXPECT_EQ(ram.free_buffers(), 32u);
}

TEST(RamManagerTest, AcquireAndAutoRelease) {
  RamManager ram(64 * 1024, 2048);
  {
    auto h = ram.Acquire(4, "merge");
    ASSERT_TRUE(h.ok());
    EXPECT_EQ(h->size(), 4 * 2048u);
    EXPECT_EQ(ram.free_buffers(), 28u);
  }
  EXPECT_EQ(ram.free_buffers(), 32u);
}

TEST(RamManagerTest, ExhaustionIsAHardError) {
  RamManager ram(8 * 1024, 2048);  // 4 buffers
  auto a = ram.Acquire(3, "a");
  ASSERT_TRUE(a.ok());
  auto b = ram.Acquire(2, "b");
  EXPECT_TRUE(b.status().IsResourceExhausted());
  auto c = ram.Acquire(1, "c");
  EXPECT_TRUE(c.ok());
}

TEST(RamManagerTest, PeakTracksHighWaterMark) {
  RamManager ram(64 * 1024, 2048);
  {
    auto a = ram.Acquire(10, "a");
    ASSERT_TRUE(a.ok());
    {
      auto b = ram.Acquire(5, "b");
      ASSERT_TRUE(b.ok());
    }
  }
  EXPECT_EQ(ram.peak_used_buffers(), 15u);
  ram.ResetPeak();
  EXPECT_EQ(ram.peak_used_buffers(), 0u);
}

TEST(RamManagerTest, MoveTransfersOwnership) {
  RamManager ram(64 * 1024, 2048);
  auto a = ram.Acquire(2, "a");
  ASSERT_TRUE(a.ok());
  BufferHandle h = std::move(a.ValueUnsafe());
  EXPECT_EQ(ram.used_buffers(), 2u);
  BufferHandle h2 = std::move(h);
  EXPECT_FALSE(h.valid());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(ram.used_buffers(), 2u);
  h2.Release();
  EXPECT_EQ(ram.used_buffers(), 0u);
}

TEST(RamManagerTest, BuffersAreWritable) {
  RamManager ram(64 * 1024, 2048);
  auto h = ram.Acquire(1, "x");
  ASSERT_TRUE(h.ok());
  h->data()[0] = 0xAB;
  h->data()[2047] = 0xCD;
  EXPECT_EQ(h->data()[0], 0xAB);
  EXPECT_EQ(h->data()[2047], 0xCD);
}

TEST(RamManagerTest, ZeroBuffersRejected) {
  RamManager ram(64 * 1024, 2048);
  EXPECT_TRUE(ram.Acquire(0, "x").status().IsInvalidArgument());
}

TEST(RamManagerTest, FragmentationHandledByFirstFit) {
  RamManager ram(8 * 1024, 2048);  // 4 buffers
  auto a = ram.Acquire(1, "a");
  auto b = ram.Acquire(1, "b");
  auto c = ram.Acquire(1, "c");
  auto d = ram.Acquire(1, "d");
  ASSERT_TRUE(a.ok() && b.ok() && c.ok() && d.ok());
  b->Release();
  d->Release();
  // Two free buffers exist but are not contiguous.
  EXPECT_TRUE(ram.Acquire(2, "e").status().IsResourceExhausted());
  EXPECT_TRUE(ram.Acquire(1, "f").ok());
}

TEST(RamManagerTest, ExhaustionNamesTheCurrentOwners) {
  RamManager ram(8 * 1024, 2048);  // 4 buffers
  auto a = ram.Acquire(2, "merge-streams");
  auto b = ram.Acquire(1, "bloom");
  ASSERT_TRUE(a.ok() && b.ok());
  auto c = ram.Acquire(2, "sjoin-skt");
  ASSERT_TRUE(c.status().IsResourceExhausted());
  // The failure tells you who holds what, not just that nothing is free.
  EXPECT_NE(c.status().message().find("merge-streams=2"), std::string::npos)
      << c.status().ToString();
  EXPECT_NE(c.status().message().find("bloom=1"), std::string::npos)
      << c.status().ToString();
}

TEST(RamManagerTest, OwnersTrackLiveAllocationsOnly) {
  RamManager ram(64 * 1024, 2048);
  auto a = ram.Acquire(2, "a");
  ASSERT_TRUE(a.ok());
  {
    auto b = ram.Acquire(3, "b");
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(ram.Owners().size(), 2u);
  }
  auto owners = ram.Owners();
  ASSERT_EQ(owners.size(), 1u);
  EXPECT_EQ(owners[0].first, "a");
  EXPECT_EQ(owners[0].second, 2u);
}

TEST(RamPartitionTest, QuotaCapsThePartitionView) {
  RamManager ram(64 * 1024, 2048);  // 32 buffers
  auto p = ram.CreatePartition("alice", 8);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(ram.reserve_buffers(), 24u);
  RamManager::PartitionScope scope(&ram, *p);
  // Partition headroom = quota + shared reserve.
  EXPECT_EQ(ram.free_buffers(), 32u);
  auto h = ram.Acquire(8, "alice-merge");
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(ram.partition_used(*p), 8u);
  // Quota spent; the reserve still carries the partition.
  EXPECT_EQ(ram.free_buffers(), 24u);
}

TEST(RamPartitionTest, PartitionCannotTouchAnotherPartitionsQuota) {
  RamManager ram(64 * 1024, 2048);  // 32 buffers
  auto alice = ram.CreatePartition("alice", 8);
  auto bob = ram.CreatePartition("bob", 20);
  ASSERT_TRUE(alice.ok() && bob.ok());
  EXPECT_EQ(ram.reserve_buffers(), 4u);
  RamManager::PartitionScope scope(&ram, *alice);
  // alice sees her quota (8) + the reserve (4), never bob's 20.
  EXPECT_EQ(ram.free_buffers(), 12u);
  auto ok = ram.Acquire(12, "alice-big");
  ASSERT_TRUE(ok.ok());
  auto too_much = ram.Acquire(1, "alice-extra");
  ASSERT_TRUE(too_much.status().IsResourceExhausted());
  EXPECT_NE(too_much.status().message().find("partition 'alice'"),
            std::string::npos)
      << too_much.status().ToString();
  // bob's guarantee is intact: all 20 of his quota are acquirable.
  ok->Release();
  RamManager::PartitionScope bob_scope(&ram, *bob);
  EXPECT_GE(ram.free_buffers(), 20u);
  EXPECT_TRUE(ram.Acquire(20, "bob-merge").ok());
}

TEST(RamPartitionTest, PledgesAreBoundedAndReleasable) {
  RamManager ram(8 * 1024, 2048);  // 4 buffers
  auto a = ram.CreatePartition("a", 3);
  ASSERT_TRUE(a.ok());
  EXPECT_TRUE(ram.CreatePartition("b", 2).status().IsResourceExhausted());
  ASSERT_TRUE(ram.ReleasePartition(*a).ok());
  EXPECT_EQ(ram.reserve_buffers(), 4u);
  EXPECT_TRUE(ram.CreatePartition("b", 2).ok());
}

TEST(RamPartitionTest, ReleaseRequiresNoLiveAllocations) {
  RamManager ram(8 * 1024, 2048);
  auto p = ram.CreatePartition("p", 2);
  ASSERT_TRUE(p.ok());
  RamManager::PartitionScope scope(&ram, *p);
  auto h = ram.Acquire(1, "x");
  ASSERT_TRUE(h.ok());
  EXPECT_FALSE(ram.ReleasePartition(*p).ok());
  h->Release();
  EXPECT_TRUE(ram.ReleasePartition(*p).ok());
}

TEST(ChannelTest, MessagesCarryTheCurrentSessionTag) {
  SimClock clock;
  Channel ch(&clock, 1e6);
  ch.TransferSized(Direction::kToUntrusted, "query", 10);
  ch.set_current_session(3);
  ch.TransferSized(Direction::kToSecure, "vis", 20);
  ch.set_current_session(-1);
  ch.TransferSized(Direction::kToSecure, "vis", 30);
  ASSERT_EQ(ch.transcript().size(), 3u);
  EXPECT_EQ(ch.transcript()[0].session, -1);
  EXPECT_EQ(ch.transcript()[1].session, 3);
  EXPECT_EQ(ch.transcript()[2].session, -1);
}

TEST(ChannelArbiterTest, DeficitRoundRobinIsDeterministicAndWeighted) {
  SimClock clock;
  Channel ch(&clock, 1e6);
  ChannelArbiter arbiter(&ch);
  arbiter.Register(0, "light");
  arbiter.Register(1, "heavy");
  // Session 0 declares weight-1 shapes, session 1 weight-3 shapes: over a
  // long pending run, admissions settle near 3:1.
  std::vector<std::pair<int32_t, uint32_t>> pending = {{0, 1}, {1, 3}};
  int s0 = 0, s1 = 0;
  std::vector<int32_t> order;
  for (int i = 0; i < 120; ++i) {
    int32_t pick = arbiter.PickNext(pending);
    order.push_back(pick);
    (pick == 0 ? s0 : s1) += 1;
  }
  EXPECT_EQ(s0, 90);
  EXPECT_EQ(s1, 30);
  // Determinism: a fresh arbiter fed the same inputs makes the same picks.
  ChannelArbiter again(&ch);
  again.Register(0, "light");
  again.Register(1, "heavy");
  for (int i = 0; i < 120; ++i) {
    EXPECT_EQ(again.PickNext(pending), order[static_cast<size_t>(i)]) << i;
  }
}

TEST(ChannelArbiterTest, AdmissionIsExclusiveUnderContention) {
  SimClock clock;
  Channel ch(&clock, 1e6);
  ChannelArbiter arbiter(&ch);
  for (int32_t s = 0; s < 4; ++s) {
    arbiter.Register(s, "s" + std::to_string(s));
  }
  std::atomic<int> inside{0};
  std::atomic<int> max_inside{0};
  std::atomic<int> total{0};
  std::vector<std::thread> threads;
  for (int32_t s = 0; s < 4; ++s) {
    threads.emplace_back([&, s] {
      for (int i = 0; i < 50; ++i) {
        device::AdmissionGuard admission(&arbiter, s, 1 + s % 3);
        int now = inside.fetch_add(1) + 1;
        int seen = max_inside.load();
        while (now > seen && !max_inside.compare_exchange_weak(seen, now)) {
        }
        total.fetch_add(1);
        inside.fetch_sub(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(max_inside.load(), 1);  // never two holders at once
  EXPECT_EQ(total.load(), 200);
  EXPECT_EQ(arbiter.total_admissions(), 200u);
  for (int32_t s = 0; s < 4; ++s) EXPECT_EQ(arbiter.admissions(s), 50u);
}

TEST(ChannelArbiterTest, ErroringSessionDoesNotStarveNeighbors) {
  // A session whose query errors under admission (the fault-injection
  // paths end this way) must still release its ticket on every exit —
  // Admission is RAII, so the error return is just another unwind. If any
  // error path leaked a ticket, the neighbors would block forever and this
  // test would hang rather than fail.
  SimClock clock;
  Channel ch(&clock, 1e6);
  ChannelArbiter arbiter(&ch);
  for (int32_t s = 0; s < 3; ++s) {
    arbiter.Register(s, "s" + std::to_string(s));
  }
  std::atomic<int> errors{0};
  std::atomic<int> successes{0};
  auto query_under_admission = [&](int32_t s, int i) -> Status {
    device::AdmissionGuard admission(&arbiter, s, 1);
    // Session 0 fails every other statement mid-"query", after taking the
    // device; the Status return path must drop the ticket.
    if (s == 0 && i % 2 == 0) {
      return Status::IOError("simulated mid-query device fault");
    }
    return Status::OK();
  };
  std::vector<std::thread> threads;
  for (int32_t s = 0; s < 3; ++s) {
    threads.emplace_back([&, s] {
      for (int i = 0; i < 40; ++i) {
        if (query_under_admission(s, i).ok()) {
          successes.fetch_add(1);
        } else {
          errors.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(errors.load(), 20);
  EXPECT_EQ(successes.load(), 100);
  // Every request — failed or not — was admitted exactly once, and the
  // erroring session kept its full share.
  EXPECT_EQ(arbiter.total_admissions(), 120u);
  for (int32_t s = 0; s < 3; ++s) EXPECT_EQ(arbiter.admissions(s), 40u);
}

TEST(ChannelTest, TransferChargesCommTime) {
  SimClock clock;
  Channel ch(&clock, 1.5e6);  // 1.5 MB/s
  ch.TransferSized(Direction::kToSecure, "vis", 1'500'000);
  EXPECT_EQ(clock.Category("comm"), kSecond);
  EXPECT_EQ(clock.now(), kSecond);
}

TEST(ChannelTest, TranscriptRecordsEverything) {
  SimClock clock;
  Channel ch(&clock, 1e6);
  uint8_t payload[4] = {1, 2, 3, 4};
  ch.Transfer(Direction::kToUntrusted, "query", payload, 4);
  ch.TransferSized(Direction::kToSecure, "ids", 4000);
  ASSERT_EQ(ch.transcript().size(), 2u);
  EXPECT_EQ(ch.transcript()[0].label, "query");
  EXPECT_EQ(ch.transcript()[0].bytes, 4u);
  EXPECT_NE(ch.transcript()[0].content_digest, 0u);
  EXPECT_EQ(ch.BytesMoved(Direction::kToSecure), 4000u);
  EXPECT_EQ(ch.BytesMoved(Direction::kToUntrusted), 4u);
}

TEST(ChannelTest, BytesMovedMatchesTranscriptThroughEraseAndClear) {
  SimClock clock;
  Channel ch(&clock, 1e6);
  auto expect_sums_match = [&](const char* when) {
    uint64_t to_secure = 0;
    uint64_t to_untrusted = 0;
    for (const ChannelMessage& m : ch.transcript()) {
      (m.direction == Direction::kToSecure ? to_secure : to_untrusted) +=
          m.bytes;
    }
    EXPECT_EQ(ch.BytesMoved(Direction::kToSecure), to_secure) << when;
    EXPECT_EQ(ch.BytesMoved(Direction::kToUntrusted), to_untrusted) << when;
  };
  uint8_t payload[3] = {1, 2, 3};
  ch.Transfer(Direction::kToUntrusted, "query", payload, 3);
  for (uint64_t i = 1; i <= 6; ++i) {
    ch.TransferSized(i % 2 == 0 ? Direction::kToSecure
                                : Direction::kToUntrusted,
                     "m", 100 * i);
  }
  expect_sums_match("after transfers");
  EXPECT_EQ(ch.BytesMoved(Direction::kToSecure), 1200u);
  EXPECT_EQ(ch.BytesMoved(Direction::kToUntrusted), 903u);
  ch.EraseTranscript(2, 3);  // the 200-, 300- and 400-byte messages
  expect_sums_match("after a middle erase");
  EXPECT_EQ(ch.BytesMoved(Direction::kToSecure), 600u);
  ch.EraseTranscript(5, 10);  // past the end: clamped to nothing
  ch.EraseTranscript(3, 10);  // the tail, clamped
  expect_sums_match("after clamped erases");
  ch.TransferSized(Direction::kToSecure, "late", 7);
  expect_sums_match("after a transfer following erases");
  ch.ClearTranscript();
  expect_sums_match("after clear");
  EXPECT_EQ(ch.BytesMoved(Direction::kToSecure), 0u);
  EXPECT_EQ(ch.BytesMoved(Direction::kToUntrusted), 0u);
  ch.TransferSized(Direction::kToUntrusted, "after-clear", 11);
  expect_sums_match("after clear and a transfer");
  EXPECT_EQ(ch.BytesMoved(Direction::kToUntrusted), 11u);
}

TEST(ChannelTest, SamePayloadSameDigest) {
  SimClock clock;
  Channel ch(&clock, 1e6);
  uint8_t p1[3] = {7, 8, 9};
  uint8_t p2[3] = {7, 8, 9};
  uint8_t p3[3] = {7, 8, 10};
  ch.Transfer(Direction::kToSecure, "a", p1, 3);
  ch.Transfer(Direction::kToSecure, "b", p2, 3);
  ch.Transfer(Direction::kToSecure, "c", p3, 3);
  EXPECT_EQ(ch.transcript()[0].content_digest,
            ch.transcript()[1].content_digest);
  EXPECT_NE(ch.transcript()[0].content_digest,
            ch.transcript()[2].content_digest);
}

TEST(ChannelTest, ThroughputAffectsCost) {
  SimClock clock;
  Channel slow(&clock, 0.3e6);
  slow.TransferSized(Direction::kToSecure, "x", 300'000);
  SimNanos slow_time = clock.now();
  clock.Reset();
  Channel fast(&clock, 10e6);
  fast.TransferSized(Direction::kToSecure, "x", 300'000);
  EXPECT_GT(slow_time, clock.now() * 30);
}

TEST(SecureDeviceTest, WiresComponentsTogether) {
  DeviceConfig cfg;
  cfg.flash.logical_pages = 128;
  cfg.flash.pages_per_block = 4;
  cfg.flash.spare_blocks = 2;
  SecureDevice dev(cfg);
  EXPECT_EQ(dev.ram().total_buffers(), 32u);
  // Flash I/O advances the device clock.
  std::vector<uint8_t> page(2048, 7);
  ASSERT_TRUE(dev.flash().WritePage(0, page.data()).ok());
  EXPECT_GT(dev.clock().now(), 0u);
  // Channel shares the same clock.
  SimNanos before = dev.clock().now();
  dev.channel().TransferSized(Direction::kToSecure, "x", 15000);
  EXPECT_GT(dev.clock().now(), before);
}

TEST(SecureDeviceTest, DefaultsMatchTable1) {
  DeviceConfig cfg;
  EXPECT_EQ(cfg.ram_bytes, 65536u);
  EXPECT_EQ(cfg.flash.page_size, 2048u);
  // A RAM buffer is one flash page.
  SecureDevice dev(cfg);
  EXPECT_EQ(dev.ram().buffer_size(), cfg.flash.page_size);
  EXPECT_EQ(dev.ram().total_buffers(), 32u);
  EXPECT_EQ(cfg.flash.read_page_latency, 25 * kMicrosecond);
  EXPECT_EQ(cfg.flash.write_page_latency, 200 * kMicrosecond);
  EXPECT_EQ(cfg.flash.byte_transfer_latency, 50u);
  EXPECT_DOUBLE_EQ(cfg.channel_throughput_bytes_per_sec, 1.5e6);
}

}  // namespace
}  // namespace ghostdb::device
