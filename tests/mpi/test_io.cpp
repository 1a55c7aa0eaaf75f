#include "mpi/io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/machine_helpers.hpp"

namespace ds::mpi {
namespace {

TEST(FileIo, WriteAllLaysBlocksInRankOrder) {
  mpi::Machine machine(testing::tiny_machine(4));
  machine.run([&](Rank& self) {
    File file(machine, self.world(), "out.dat", /*aggregator_stride=*/2);
    const char c = static_cast<char>('a' + self.world_rank());
    std::vector<char> block(static_cast<std::size_t>(self.world_rank()) + 1, c);
    file.write_all(self, SendBuf::of(block.data(), block.size()));
  });
  const auto content = machine.filesystem().open("out.dat")->content();
  ASSERT_EQ(content.size(), 10u);  // 1+2+3+4
  const std::string text(reinterpret_cast<const char*>(content.data()),
                         content.size());
  EXPECT_EQ(text, "abbcccdddd");
}

TEST(FileIo, SecondCollectiveWriteAppends) {
  mpi::Machine machine(testing::tiny_machine(2));
  machine.run([&](Rank& self) {
    File file(machine, self.world(), "f", 32);
    const char first = static_cast<char>('0' + self.world_rank());
    const char second = static_cast<char>('A' + self.world_rank());
    file.write_all(self, SendBuf::of(&first, 1));
    file.write_all(self, SendBuf::of(&second, 1));
  });
  const auto content = machine.filesystem().open("f")->content();
  const std::string text(reinterpret_cast<const char*>(content.data()),
                         content.size());
  EXPECT_EQ(text, "01AB");
}

TEST(FileIo, FreshHandleAppendsAfterEarlierCollectiveWrite) {
  // Recovery opens a fresh File over the surviving membership. A collective
  // write through a new handle must append after the earlier handle's
  // writes, not reclaim their extent.
  mpi::Machine machine(testing::tiny_machine(2));
  machine.run([&](Rank& self) {
    const char first = static_cast<char>('0' + self.world_rank());
    const char second = static_cast<char>('A' + self.world_rank());
    {
      File file(machine, self.world(), "f", 32);
      file.write_all(self, SendBuf::of(&first, 1));
    }
    File fresh(machine, self.world(), "f", 32);
    fresh.write_all(self, SendBuf::of(&second, 1));
  });
  const auto content = machine.filesystem().open("f")->content();
  const std::string text(reinterpret_cast<const char*>(content.data()),
                         content.size());
  EXPECT_EQ(text, "01AB");
}

TEST(FileIo, WriteAllUnevenLastGroupAndEmptyBlocks) {
  // P = 5 at stride 2: groups {0,1}, {2,3} and a last group of one. The
  // first write's empty block sits at an aggregator (rank 2), the second's
  // at a non-aggregator (rank 3). An empty std::vector's data() is null, so
  // an empty real block looks like a synthetic one; the rest of its group's
  // bytes must still be stored.
  mpi::Machine machine(testing::tiny_machine(5));
  machine.run([&](Rank& self) {
    File file(machine, self.world(), "u", /*aggregator_stride=*/2);
    const int me = self.world_rank();
    const auto len = static_cast<std::size_t>(me + 1);
    const std::vector<char> lower(me == 2 ? 0 : len, static_cast<char>('a' + me));
    const std::vector<char> upper(me == 3 ? 0 : len, static_cast<char>('A' + me));
    file.write_all(self, SendBuf::of(lower.data(), lower.size()));
    file.write_all(self, SendBuf::of(upper.data(), upper.size()));
  });
  const auto content = machine.filesystem().open("u")->content();
  const std::string text(reinterpret_cast<const char*>(content.data()),
                         content.size());
  EXPECT_EQ(text, "abbddddeeeeeABBCCCEEEEE");
}

TEST(FileIo, WriteSharedKeepsRecordsIntact) {
  mpi::Machine machine(testing::tiny_machine(4));
  machine.run([&](Rank& self) {
    File file(machine, self.world(), "s");
    const std::uint64_t record = 1000 + self.world_rank();
    file.write_shared(self, SendBuf::of(&record, 1));
  });
  const auto content = machine.filesystem().open("s")->content();
  ASSERT_EQ(content.size(), 32u);
  std::vector<std::uint64_t> records(4);
  std::memcpy(records.data(), content.data(), 32);
  std::sort(records.begin(), records.end());
  EXPECT_EQ(records, (std::vector<std::uint64_t>{1000, 1001, 1002, 1003}));
}

TEST(FileIo, WriteAtPlacesExactly) {
  mpi::Machine machine(testing::tiny_machine(2));
  machine.run([&](Rank& self) {
    File file(machine, self.world(), "a");
    const char c = self.world_rank() == 0 ? 'x' : 'y';
    file.write_at(self, static_cast<std::uint64_t>(self.world_rank()) * 4,
                  SendBuf::of(&c, 1));
  });
  const auto content = machine.filesystem().open("a")->content();
  ASSERT_GE(content.size(), 5u);
  EXPECT_EQ(static_cast<char>(content[0]), 'x');
  EXPECT_EQ(static_cast<char>(content[4]), 'y');
}

TEST(FileIo, SharedWritesSerializeCollectiveWritesAggregate) {
  // With many small writers, the shared-pointer path must be slower than the
  // collective two-phase path: this is the Fig. 8 mechanism in miniature.
  const int p = 32;
  auto run = [&](bool shared) {
    mpi::MachineConfig cfg = testing::tiny_machine(p);
    mpi::Machine machine(cfg);
    return util::to_seconds(machine.run([&](Rank& self) {
      File file(machine, self.world(), "t");
      for (int i = 0; i < 4; ++i) {
        if (shared) {
          file.write_shared(self, SendBuf::synthetic(4096));
        } else {
          file.write_all(self, SendBuf::synthetic(4096));
        }
      }
    }));
  };
  EXPECT_GT(run(true), run(false));
}

TEST(FileIo, SetViewSynchronizes) {
  std::vector<util::SimTime> after(3, 0);
  mpi::Machine machine(testing::tiny_machine(3));
  machine.run([&](Rank& self) {
    File file(machine, self.world(), "v");
    if (self.world_rank() == 1) self.process().advance(util::milliseconds(2));
    file.set_view(self);
    after[static_cast<std::size_t>(self.world_rank())] = self.now();
  });
  for (const auto t : after) EXPECT_GE(t, util::milliseconds(2));
}

TEST(FileIo, SyntheticWritesTrackSizeWithoutContent) {
  mpi::Machine machine(testing::tiny_machine(2));
  machine.run([&](Rank& self) {
    File file(machine, self.world(), "z");
    file.write_all(self, SendBuf::synthetic(1 << 20));
  });
  EXPECT_EQ(machine.filesystem().open("z")->size(), 2u << 20);
}

}  // namespace
}  // namespace ds::mpi
