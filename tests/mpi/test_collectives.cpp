#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/machine_helpers.hpp"
#include "mpi/io.hpp"

namespace ds::mpi {
namespace {

TEST(Collectives, BarrierSynchronizesLaggard) {
  std::vector<util::SimTime> exit_times(4, 0);
  testing::run_program(testing::tiny_machine(4), [&](Rank& self) {
    if (self.world_rank() == 2) self.process().advance(util::milliseconds(3));
    self.barrier(self.world());
    exit_times[static_cast<std::size_t>(self.world_rank())] = self.now();
  });
  for (const auto t : exit_times) EXPECT_GE(t, util::milliseconds(3));
}

TEST(Collectives, BcastDeliversFromNonZeroRoot) {
  std::vector<int> got(5, -1);
  testing::run_program(testing::tiny_machine(5), [&](Rank& self) {
    int value = self.world_rank() == 3 ? 99 : -1;
    self.bcast(self.world(), 3, RecvBuf::of(&value, 1));
    got[static_cast<std::size_t>(self.world_rank())] = value;
  });
  for (const int v : got) EXPECT_EQ(v, 99);
}

TEST(Collectives, ReduceSumsToRoot) {
  long long result = 0;
  constexpr int kP = 6;
  testing::run_program(testing::tiny_machine(kP), [&](Rank& self) {
    const long long mine = self.world_rank() + 1;
    long long out = 0;
    self.reduce(self.world(), 0, SendBuf::of(&mine, 1), &out,
                reduce_sum<long long>());
    if (self.world_rank() == 0) result = out;
  });
  EXPECT_EQ(result, kP * (kP + 1) / 2);
}

TEST(Collectives, ReduceVectorElementwise) {
  std::vector<double> result;
  testing::run_program(testing::tiny_machine(3), [&](Rank& self) {
    std::vector<double> mine(8);
    std::iota(mine.begin(), mine.end(), static_cast<double>(self.world_rank()));
    std::vector<double> out(8, 0.0);
    self.reduce(self.world(), 0, SendBuf::of(mine.data(), mine.size()),
                out.data(), reduce_sum<double>());
    if (self.world_rank() == 0) result = out;
  });
  for (int i = 0; i < 8; ++i)
    EXPECT_DOUBLE_EQ(result[static_cast<std::size_t>(i)], 3.0 * i + 3.0);
}

TEST(Collectives, ReduceMinMax) {
  int min_out = 0, max_out = 0;
  testing::run_program(testing::tiny_machine(5), [&](Rank& self) {
    const int mine = (self.world_rank() * 7) % 5;  // 0,2,4,1,3
    int lo = 0, hi = 0;
    self.reduce(self.world(), 0, SendBuf::of(&mine, 1), &lo, reduce_min<int>());
    self.reduce(self.world(), 0, SendBuf::of(&mine, 1), &hi, reduce_max<int>());
    if (self.world_rank() == 0) {
      min_out = lo;
      max_out = hi;
    }
  });
  EXPECT_EQ(min_out, 0);
  EXPECT_EQ(max_out, 4);
}

TEST(Collectives, AllreduceGivesEveryoneTheSum) {
  std::vector<double> results(4, 0);
  testing::run_program(testing::tiny_machine(4), [&](Rank& self) {
    const double mine = 1.5;
    double out = 0;
    self.allreduce(self.world(), SendBuf::of(&mine, 1), &out,
                   reduce_sum<double>());
    results[static_cast<std::size_t>(self.world_rank())] = out;
  });
  for (const double v : results) EXPECT_DOUBLE_EQ(v, 6.0);
}

TEST(Collectives, AllgathervVariableBlocks) {
  constexpr int kP = 4;
  std::vector<std::vector<std::int32_t>> results(kP);
  testing::run_program(testing::tiny_machine(kP), [&](Rank& self) {
    const int me = self.world_rank();
    // Rank r contributes r+1 copies of value r.
    std::vector<std::int32_t> mine(static_cast<std::size_t>(me + 1), me);
    std::vector<std::size_t> counts;
    std::size_t total = 0;
    for (int r = 0; r < kP; ++r) {
      counts.push_back(static_cast<std::size_t>(r + 1) * sizeof(std::int32_t));
      total += static_cast<std::size_t>(r + 1);
    }
    std::vector<std::int32_t> out(total, -1);
    self.allgatherv(self.world(), SendBuf::of(mine.data(), mine.size()),
                    out.data(), counts);
    results[static_cast<std::size_t>(me)] = out;
  });
  const std::vector<std::int32_t> expected{0, 1, 1, 2, 2, 2, 3, 3, 3, 3};
  for (const auto& r : results) EXPECT_EQ(r, expected);
}

TEST(Collectives, AllgathervPowerOfTwoUsesRecursiveDoublingCorrectly) {
  constexpr int kP = 8;  // power of two -> recursive doubling path
  std::vector<std::vector<std::int32_t>> results(kP);
  testing::run_program(testing::tiny_machine(kP), [&](Rank& self) {
    const int me = self.world_rank();
    std::vector<std::int32_t> mine{me, me * 10};
    const std::vector<std::size_t> counts(kP, 2 * sizeof(std::int32_t));
    std::vector<std::int32_t> out(2 * kP, -1);
    self.allgatherv(self.world(), SendBuf::of(mine.data(), 2), out.data(),
                    counts);
    results[static_cast<std::size_t>(me)] = out;
  });
  for (const auto& r : results) {
    for (int p = 0; p < kP; ++p) {
      EXPECT_EQ(r[static_cast<std::size_t>(2 * p)], p);
      EXPECT_EQ(r[static_cast<std::size_t>(2 * p + 1)], p * 10);
    }
  }
}

TEST(Collectives, AllgathervRecursiveDoublingUnevenCounts) {
  // P = 16 takes recursive doubling, which keeps only the block offsets its
  // rounds touch. Rank r contributes (r mod 3) * 4 bytes, so a third of the
  // blocks are empty and no two neighbours have equal sizes.
  constexpr int kP = 16;
  std::vector<std::size_t> counts;
  std::vector<std::int32_t> expected;
  for (int r = 0; r < kP; ++r) {
    counts.push_back(static_cast<std::size_t>(r % 3) * sizeof(std::int32_t));
    for (int i = 0; i < r % 3; ++i) expected.push_back(100 * r + i);
  }
  std::vector<std::vector<std::int32_t>> results(kP);
  testing::run_program(testing::tiny_machine(kP), [&](Rank& self) {
    const int me = self.world_rank();
    std::vector<std::int32_t> mine;
    for (int i = 0; i < me % 3; ++i) mine.push_back(100 * me + i);
    std::vector<std::int32_t> out(expected.size(), -1);
    const Status st = self.allgatherv(
        self.world(), SendBuf::of(mine.data(), mine.size()), out.data(),
        counts);
    EXPECT_FALSE(st.failed);
    results[static_cast<std::size_t>(me)] = std::move(out);
  });
  for (int r = 0; r < kP; ++r)
    EXPECT_EQ(results[static_cast<std::size_t>(r)], expected) << "rank " << r;
}

TEST(Collectives, AllgatherMatchesUniformAllgatherv) {
  // P = 8 takes recursive doubling, P = 6 the ring. Same rounds, messages
  // and posting charge: identical bytes, outcomes and virtual makespan.
  for (const int p : {8, 6}) {
    struct Outcome {
      std::vector<std::vector<std::int32_t>> out;
      std::vector<Status> status;
      util::SimTime makespan = 0;
    };
    const auto run = [p](bool with_counts) {
      Outcome o;
      o.out.resize(static_cast<std::size_t>(p));
      o.status.resize(static_cast<std::size_t>(p));
      const auto program = [&](Rank& self) {
        const int me = self.world_rank();
        const std::array<std::int32_t, 3> mine{me, 10 * me, -me};
        const SendBuf block = SendBuf::of(mine.data(), mine.size());
        std::vector<std::int32_t> out(static_cast<std::size_t>(3 * p), -1);
        const std::vector<std::size_t> counts(static_cast<std::size_t>(p),
                                              sizeof(mine));
        const auto idx = static_cast<std::size_t>(me);
        if (with_counts) {
          o.status[idx] =
              self.allgatherv(self.world(), block, out.data(), counts);
        } else {
          const AllgatherResult gathered = self.allgather(self.world(), block);
          o.status[idx] = gathered.status;
          for (std::size_t i = 0; i < out.size(); ++i)
            out[i] = gathered.at<std::int32_t>(i);
        }
        o.out[idx] = std::move(out);
      };
      o.makespan = testing::run_program(testing::tiny_machine(p), program);
      return o;
    };
    const Outcome v = run(true);
    const Outcome plain = run(false);
    EXPECT_EQ(plain.makespan, v.makespan) << "P = " << p;
    for (int r = 0; r < p; ++r) {
      const auto idx = static_cast<std::size_t>(r);
      EXPECT_EQ(plain.out[idx], v.out[idx]) << "P = " << p << ", rank " << r;
      EXPECT_EQ(plain.out[idx][static_cast<std::size_t>(3 * (p - 1) + 1)],
                10 * (p - 1));
      EXPECT_EQ(plain.status[idx].failed, v.status[idx].failed);
      EXPECT_EQ(plain.status[idx].source, v.status[idx].source);
      EXPECT_EQ(plain.status[idx].tag, v.status[idx].tag);
      EXPECT_EQ(plain.status[idx].bytes, v.status[idx].bytes);
      EXPECT_EQ(plain.status[idx].synthetic, v.status[idx].synthetic);
    }
  }
}

TEST(Collectives, AllgatherMembersShareOneResultBuffer) {
  // P = 1, 2, 8 and 16 take recursive doubling, P = 3 and 5 the ring. Every
  // member sees every block, all members hold the one shared buffer, and
  // the makespan equals that of the allgatherv form.
  for (const int p : {1, 2, 3, 5, 8, 16}) {
    const auto block_of = [](int r) {
      return std::array<std::int64_t, 2>{r, 100 + r};
    };
    std::vector<AllgatherResult> results(static_cast<std::size_t>(p));
    const util::SimTime shared =
        testing::run_program(testing::tiny_machine(p), [&](Rank& self) {
          const auto mine = block_of(self.world_rank());
          results[static_cast<std::size_t>(self.world_rank())] = self.allgather(
              self.world(), SendBuf::of(mine.data(), mine.size()));
        });
    const util::SimTime with_counts =
        testing::run_program(testing::tiny_machine(p), [&](Rank& self) {
          const auto mine = block_of(self.world_rank());
          std::vector<std::int64_t> out(static_cast<std::size_t>(2 * p));
          const std::vector<std::size_t> counts(static_cast<std::size_t>(p),
                                                sizeof(mine));
          (void)self.allgatherv(self.world(),
                                SendBuf::of(mine.data(), mine.size()),
                                out.data(), counts);
        });
    EXPECT_EQ(shared, with_counts) << "P = " << p;
    for (int r = 0; r < p; ++r) {
      const AllgatherResult& got = results[static_cast<std::size_t>(r)];
      EXPECT_FALSE(got.status.failed) << "P = " << p << ", rank " << r;
      ASSERT_TRUE(got.blocks) << "P = " << p << ", rank " << r;
      EXPECT_EQ(got.blocks, results[0].blocks) << "P = " << p << ", rank " << r;
      ASSERT_EQ(got.blocks->size(), 2 * sizeof(std::int64_t) * p);
      for (int b = 0; b < p; ++b) {
        const auto want = block_of(b);
        const auto first = static_cast<std::size_t>(2 * b);
        EXPECT_EQ(got.at<std::int64_t>(first), want[0]);
        EXPECT_EQ(got.at<std::int64_t>(first + 1), want[1]);
      }
    }
  }
}

TEST(Collectives, NoAllgatherEntryOutlivesAFaultFreeRun) {
  // The count-free allgather and the collectives built on it (split, the
  // size exchange of write_all) leave no shared result entry behind once
  // every member has read it, however long members hold their results.
  constexpr int kP = 6;
  Machine machine(testing::tiny_machine(kP));
  std::vector<std::size_t> live_while_held(kP, 0);
  machine.run([&](Rank& self) {
    const int me = self.world_rank();
    const AllgatherResult held =
        self.allgather(self.world(), SendBuf::of(&me, 1));
    const Comm half = self.split(self.world(), me % 2, me);
    File file(self.machine(), half, "entries.dat");
    (void)file.write_all(self, SendBuf::of(&me, 1));
    (void)self.allgather(half, SendBuf::synthetic(16));
    self.barrier(self.world());
    live_while_held[static_cast<std::size_t>(me)] =
        self.machine().exchange_count();
    EXPECT_EQ(held.at<int>(kP - 1), kP - 1);
  });
  for (const std::size_t live : live_while_held) EXPECT_EQ(live, 0u);
  EXPECT_EQ(machine.exchange_count(), 0u);
}

TEST(Collectives, AllgatherProductIsDerivedOnceForEveryMember) {
  // All 64 members ask for the prefix sums of the gathered values: the
  // maker runs once, and every member reads that one object.
  constexpr int kP = 64;
  int made = 0;
  std::vector<std::shared_ptr<const std::vector<std::int64_t>>> got(kP);
  testing::run_program(testing::tiny_machine(kP), [&](Rank& self) {
    const std::int64_t mine = 10 * self.world_rank() + 1;
    const AllgatherResult all =
        self.allgather(self.world(), SendBuf::of(&mine, 1));
    got[static_cast<std::size_t>(self.world_rank())] =
        all.product<std::vector<std::int64_t>>([&made](
                                                   const AllgatherResult& r) {
          ++made;
          std::vector<std::int64_t> sums(kP + 1, 0);
          for (std::size_t i = 0; i < kP; ++i)
            sums[i + 1] = sums[i] + r.at<std::int64_t>(i);
          return sums;
        });
  });
  EXPECT_EQ(made, 1);
  ASSERT_TRUE(got[0]);
  for (const auto& sums : got) EXPECT_EQ(sums, got[0]);
  ASSERT_EQ(got[0]->size(), static_cast<std::size_t>(kP + 1));
  for (std::int64_t i = 0; i <= kP; ++i)
    EXPECT_EQ((*got[0])[static_cast<std::size_t>(i)], 5 * i * (i - 1) + i);
}

TEST(Collectives, LateDepositDropsTheAllgatherProduct) {
  // Under a crash a member can deposit after another member derived the
  // product: the next reader derives it again, with the late block. Every
  // member must ask for the same product type.
  Machine machine(testing::tiny_machine(2));
  const int first = 7;
  const int late = 9;
  const auto entry = machine.exchange(/*key=*/5, /*size=*/2, /*member=*/0,
                                      SendBuf::of(&first, 1));
  const AllgatherResult result{Status{}, {entry, &entry->data}, entry};
  const auto sum = [](const AllgatherResult& r) {
    return r.at<int>(0) + r.at<int>(1);
  };
  const auto before = result.product<int>(sum);
  EXPECT_EQ(*before, 7);
  EXPECT_EQ(result.product<int>(sum), before);
  EXPECT_THROW((void)result.product<long>(sum), std::logic_error);
  (void)machine.exchange(5, 2, 1, SendBuf::of(&late, 1));
  EXPECT_EQ(*result.product<int>(sum), 16);
  EXPECT_EQ(*before, 7);  // a reader's copy outlives the drop
  machine.release_exchange(5, *entry);
  machine.release_exchange(5, *entry);
  EXPECT_EQ(machine.exchange_count(), 0u);
}

TEST(Collectives, AllgatherRejectsUnequalBlocks) {
  // MPI_Allgather takes one block size: a member that contributes a
  // different size would not fit the shared entry's layout, so the call
  // reports the protocol error instead of writing past its block.
  EXPECT_THROW(
      testing::run_program(testing::tiny_machine(2),
                           [](Rank& self) {
                             const std::array<int, 2> mine{1, 2};
                             (void)self.allgather(
                                 self.world(),
                                 SendBuf::of(mine.data(),
                                             self.world_rank() == 0 ? 1 : 2));
                           }),
      std::logic_error);
}

TEST(Collectives, AlltoallvExchangesPersonalizedData) {
  constexpr int kP = 4;
  std::vector<std::vector<std::int32_t>> results(kP);
  testing::run_program(testing::tiny_machine(kP), [&](Rank& self) {
    const int me = self.world_rank();
    // Send one int to every rank: value = me*10 + dest.
    std::vector<std::int32_t> send(kP);
    for (int d = 0; d < kP; ++d) send[static_cast<std::size_t>(d)] = me * 10 + d;
    const std::vector<std::size_t> counts(kP, sizeof(std::int32_t));
    std::vector<std::int32_t> recv(kP, -1);
    self.alltoallv(self.world(), send.data(), counts, recv.data(), counts);
    results[static_cast<std::size_t>(me)] = recv;
  });
  for (int me = 0; me < kP; ++me)
    for (int src = 0; src < kP; ++src)
      EXPECT_EQ(results[static_cast<std::size_t>(me)][static_cast<std::size_t>(src)],
                src * 10 + me);
}

TEST(Collectives, AlltoallvSparsePatternSkipsEmptyPairs) {
  constexpr int kP = 6;
  std::vector<int> got(kP, -1);
  testing::run_program(testing::tiny_machine(kP), [&](Rank& self) {
    const int me = self.world_rank();
    // Ring: each rank sends one int to (me+1)%P only. With a single nonzero
    // count, the packed send/recv buffers hold exactly one element at
    // displacement zero.
    std::vector<std::size_t> scounts(kP, 0), rcounts(kP, 0);
    scounts[static_cast<std::size_t>((me + 1) % kP)] = sizeof(int);
    rcounts[static_cast<std::size_t>((me - 1 + kP) % kP)] = sizeof(int);
    const int payload = me;
    int received = -1;
    self.alltoallv(self.world(), &payload, scounts, &received, rcounts);
    got[static_cast<std::size_t>(me)] = received;
  });
  for (int me = 0; me < kP; ++me)
    EXPECT_EQ(got[static_cast<std::size_t>(me)], (me - 1 + kP) % kP);
}

TEST(Collectives, NonblockingReduceOverlapsCompute) {
  // The collective must progress while the fiber computes: total time should
  // be ~ the compute time, not compute + collective.
  const auto overlapped = testing::run_program(
      testing::tiny_machine(8), [&](Rank& self) {
        const Request req = self.ireduce(self.world(), 0,
                                         SendBuf::synthetic(1 << 20), nullptr, {});
        self.compute(util::milliseconds(50));
        self.wait(req);
      });
  const auto serial = testing::run_program(
      testing::tiny_machine(8), [&](Rank& self) {
        self.reduce(self.world(), 0, SendBuf::synthetic(1 << 20), nullptr, {});
        self.compute(util::milliseconds(50));
      });
  EXPECT_LT(overlapped, serial);
}

TEST(Collectives, SingletonCommunicatorCollectivesComplete) {
  testing::run_program(testing::tiny_machine(3), [&](Rank& self) {
    const Comm solo = self.split(self.world(), self.world_rank(), 0);
    self.barrier(solo);
    int v = self.world_rank();
    self.bcast(solo, 0, RecvBuf::of(&v, 1));
    int out = 0;
    self.reduce(solo, 0, SendBuf::of(&v, 1), &out, reduce_sum<int>());
    EXPECT_EQ(out, self.world_rank());
  });
}

TEST(Collectives, SyntheticCollectivesAdvanceTime) {
  const auto makespan = testing::run_program(
      testing::tiny_machine(16), [&](Rank& self) {
        self.reduce(self.world(), 0, SendBuf::synthetic(1 << 16), nullptr, {});
      });
  EXPECT_GT(makespan, 0);
}

}  // namespace
}  // namespace ds::mpi
