// The simulated parallel machine: engine + fabric + file system + the
// message matching/transport core that the Rank facade and the collective
// state machines sit on.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <typeinfo>
#include <unordered_map>
#include <vector>

#include "fs/filesystem.hpp"
#include "mpi/comm.hpp"
#include "mpi/ops.hpp"
#include "net/fabric.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "resilience/agreement.hpp"
#include "resilience/fault.hpp"
#include "sim/engine.hpp"

namespace ds::mpi {

class Rank;

namespace detail {
/// The one result buffer of a count-free allgather, shared by the members
/// of the call (see Rank::allgather and Machine::exchange).
struct Exchange {
  std::size_t block = 0;         ///< bytes per member
  std::vector<std::byte> data;   ///< member r's block at r * block
  int readers_left = 0;          ///< depositors yet to release the entry
  /// A value derived from `data` by the first member that asked for it
  /// (AllgatherResult::product), of type *product_type. A deposit drops
  /// it, so no reader gets a product that misses a block it can read.
  std::shared_ptr<const void> product;
  const std::type_info* product_type = nullptr;
};
}  // namespace detail

struct MachineConfig {
  int world_size = 1;
  net::NetworkConfig network = net::NetworkConfig::aries_like();
  fs::FsConfig filesystem = fs::FsConfig::lustre_like();
  sim::EngineConfig engine{};
  /// Fault-injection schedule executed during run() (see resilience/fault.hpp).
  sim::FaultPlan faults{};
  /// Observability switches (ds::obs): span tracing and the metrics
  /// registry. Off by default — the hot path pays one null check per hook
  /// when disabled.
  obs::ObsConfig observability{};
  /// When nonzero, every collective arms a watchdog: an instance still
  /// incomplete after this much virtual time throws CollectiveTimeout out of
  /// run() instead of wedging the event loop. Off by default; tests enable
  /// it so a future non-failure-aware hang fails in bounded virtual time
  /// rather than hanging ctest.
  util::SimTime collective_timeout = 0;

  [[nodiscard]] static MachineConfig testbed(int world_size) {
    MachineConfig c;
    c.world_size = world_size;
    return c;
  }
};

class Machine {
 public:
  explicit Machine(MachineConfig config);
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  /// Spawn one fiber per world rank running `program`, then run the engine
  /// to completion. Returns the virtual makespan (latest event time). When
  /// the run aborts with an exception (deadlock, collective timeout, an
  /// exception escaping a rank), every rank is failed and every unfinished
  /// fiber unwound before the exception propagates.
  util::SimTime run(std::function<void(Rank&)> program);

  [[nodiscard]] sim::Engine& engine() noexcept { return engine_; }
  [[nodiscard]] net::Fabric& fabric() noexcept { return fabric_; }
  [[nodiscard]] fs::FileSystem& filesystem() noexcept { return filesystem_; }

  /// Metrics registry (ds::obs), or nullptr when
  /// MachineConfig::observability.metrics is off. Runtime layers feed it at
  /// lifecycle points; machine collectors (fabric link bytes/occupancy,
  /// op-pool stats, engine event count) snapshot on collect()/to_json().
  [[nodiscard]] obs::Metrics* metrics() noexcept { return metrics_.get(); }
  [[nodiscard]] bool metrics_enabled() const noexcept {
    return metrics_ != nullptr;
  }
  [[nodiscard]] const MachineConfig& config() const noexcept { return config_; }
  [[nodiscard]] int world_size() const noexcept { return config_.world_size; }
  [[nodiscard]] const Comm& world() const noexcept { return world_; }

  // ---- runtime services (used by Rank, collectives, streams) ----

  /// Transport a message. Charges no CPU time (callers charge o_s/o_r);
  /// reserves fabric ports, schedules arrival and sender-completion events.
  /// Callable from fiber or event context. The returned op comes from the
  /// machine's freelist pool and recycles when the last reference drops.
  detail::OpRef<detail::SendOp> post_send(std::uint64_t context,
                                          int src_comm_rank, int src_world,
                                          int dst_world, int tag, SendBuf data,
                                          sim::Callback on_complete = {});
  /// post_send of a shared read-only payload: the op holds a reference to
  /// `data.owner` instead of a copy of the bytes, so one buffer sent to
  /// many destinations is one buffer in memory. The fabric charges
  /// `data.wire_bytes`, as it charges any send its wire size.
  detail::OpRef<detail::SendOp> post_send(std::uint64_t context,
                                          int src_comm_rank, int src_world,
                                          int dst_world, int tag,
                                          SharedBuf data,
                                          sim::Callback on_complete = {});

  /// Post a receive; matches immediately against unexpected arrivals.
  /// A borrowing receive (`out` = RecvBuf::borrowed()) copies nothing: on
  /// completion the matched send op is handed over in RecvOp::message, and
  /// its pool slot stays pinned until the receiver releases it.
  /// `fused_wake` fuses the waiter's wake with the o_r charge: completion
  /// resumes a blocked waiter at completion-time + o_r with the overhead
  /// pre-charged, replacing the wake + separate-advance pair (streams'
  /// per-message context-switch floor). No effect on receives that complete
  /// synchronously or are tested/continued instead of waited on.
  ///
  /// `src_world`, when >= 0, names the world rank of the only sender that
  /// can match: if that rank is already dead (and no message of its outran
  /// the crash into the unexpected queue), the receive completes immediately
  /// with Status::failed, and if it dies while the receive is posted,
  /// kill_rank completes it the same way (satisfied-by-failure). Receives
  /// with kAnySource keep the pre-existing semantics.
  detail::OpRef<detail::RecvOp> post_recv(std::uint64_t context, int dst_world,
                                          int src_filter, int tag_filter,
                                          RecvBuf out,
                                          sim::Callback on_complete = {},
                                          bool fused_wake = false,
                                          int src_world = kAnySource);

  /// Non-consuming look into dst's unexpected queue. Returns true and fills
  /// `out` when a matching message has arrived.
  bool match_probe(std::uint64_t context, int dst_world, int src_filter,
                   int tag_filter, Status* out);

  /// Wake dst_world's fiber at the next arrival in its mailbox (or at its
  /// crash). Only the mailbox's own fiber parks on it.
  void add_probe_waiter(int dst_world);

  /// Deterministic derived context id (same inputs -> same id on all ranks,
  /// no coordination needed).
  [[nodiscard]] static std::uint64_t derive_context(std::uint64_t parent,
                                                    std::uint64_t salt,
                                                    std::uint64_t color) noexcept;

  /// Mark an op complete: fire continuation, wake waiter.
  void complete_op(detail::OpState& op);

  /// Freelist pool statistics (slots created vs. acquisitions served from
  /// the freelist) for benches and the pooled-reuse tests.
  struct PoolStats {
    detail::OpPoolStats send;
    detail::OpPoolStats recv;
  };
  [[nodiscard]] PoolStats pool_stats() const noexcept {
    return PoolStats{send_pool_.stats(), recv_pool_.stats()};
  }

  /// Live matching-context buckets in `world_rank`'s mailbox (introspection
  /// for the lazy bucket sweep: dead contexts must not accumulate).
  [[nodiscard]] std::size_t mailbox_context_count(int world_rank) const {
    return mailboxes_.at(static_cast<std::size_t>(world_rank)).contexts.size();
  }

  // ---- fault injection / failure record (resilience subsystem) ----

  /// True once `world_rank` has been crashed (and not restarted).
  [[nodiscard]] bool rank_failed(int world_rank) const noexcept {
    return dead_[static_cast<std::size_t>(world_rank)] != 0;
  }
  /// The ranks rank_failed holds for, in no promised order: a check for a
  /// dead member walks these instead of a communicator's members.
  [[nodiscard]] const std::vector<int>& dead_ranks() const noexcept {
    return dead_ranks_;
  }
  /// Monotone counter bumped on every crash and every restart: layers that
  /// must react to membership changes (stream failover and rebalancing)
  /// compare it against a cached value instead of scanning the failure
  /// record on every operation.
  [[nodiscard]] std::uint64_t membership_epoch() const noexcept {
    return membership_epoch_;
  }
  /// How many times `world_rank`'s program fiber has been (re)started; 0 for
  /// the original incarnation. Restart-aware programs branch on this.
  [[nodiscard]] int incarnation(int world_rank) const noexcept {
    return incarnation_[static_cast<std::size_t>(world_rank)];
  }

  /// Fail-stop `world_rank` now (fiber or event context): marks it dead and
  /// kills its fiber (sim::Engine::kill with RankFailure), which unwinds
  /// when its current wait ends and takes no further action. Drops the
  /// rank's unexpected messages (releasing their pool slots), completes its
  /// posted receives with Status::failed, and wakes its fiber if it is
  /// parked for an arrival. Messages already in flight toward the rank are
  /// dropped on arrival; rendezvous senders targeting it complete without
  /// transferring. Then wakes every live rank's fiber in rank order, so
  /// blocked protocol loops (credit, term and agreement waits) re-evaluate
  /// membership without registering for it.
  void kill_rank(int world_rank);

  /// Respawn the program fiber of a previously crashed rank (incarnation
  /// bumped). The new fiber starts at the current virtual time with a fresh
  /// stack; reintegration into application protocols is the program's job.
  /// Like a crash, wakes every live rank's fiber in rank order.
  void restart_rank(int world_rank);

  /// Fetch-or-create the shared agreement ledger for one Rank::agree
  /// instance (`key` = context derived from the communicator and the
  /// per-context agreement sequence number, so every participant of the
  /// same call lands on the same ledger). `release_agreement` drops the
  /// entry once the last live participant has read the frozen result.
  [[nodiscard]] std::shared_ptr<resilience::Agreement> agreement(
      std::uint64_t key, int size);
  void release_agreement(std::uint64_t key);

  /// Deposit `mine` as member `member`'s block of one count-free allgather
  /// and return the call's shared result entry, created zero-filled with
  /// `size` blocks of `mine.on_wire()` bytes by its first depositor (`key` =
  /// context derived from the communicator and the collective's tag, so
  /// every member of the same call lands on the same entry). Throws
  /// std::logic_error when members contribute different block sizes, whose
  /// deposits would not fit the entry's layout. A deposit drops the entry's
  /// derived product. Each
  /// depositor calls `release_exchange` exactly once, after reading the
  /// result or while its fiber unwinds; the last one erases the entry, and
  /// members still holding it keep the buffer alive.
  [[nodiscard]] std::shared_ptr<detail::Exchange> exchange(std::uint64_t key,
                                                           int size,
                                                           int member,
                                                           SendBuf mine);
  void release_exchange(std::uint64_t key, detail::Exchange& entry) noexcept;
  /// Live allgather result entries (introspection: none outlives a
  /// fault-free run).
  [[nodiscard]] std::size_t exchange_count() const noexcept {
    return exchanges_.size();
  }

  /// Control-message wire size used by rendezvous handshakes.
  static constexpr std::size_t kControlBytes = 64;

 private:
  void spawn_rank(int r);
  /// Wake the fiber of every rank not dead, in rank order.
  void wake_live_ranks();
  void install_faults();
  void apply_fault(const sim::FaultEvent& event);
  /// Address `op`, whose payload is attached, and put it on the fabric.
  void launch(const detail::OpRef<detail::SendOp>& op, std::uint64_t context,
              int src_comm_rank, int src_world, int dst_world, int tag,
              std::size_t wire_bytes, sim::Callback on_complete);
  void deposit(const detail::OpRef<detail::SendOp>& msg);
  void start_transfer(const detail::OpRef<detail::RecvOp>& recv,
                      const detail::OpRef<detail::SendOp>& send);
  void finish_delivery(const detail::OpRef<detail::RecvOp>& recv,
                       const detail::OpRef<detail::SendOp>& send);

  MachineConfig config_;
  // The pools are declared first: engine events and mailbox queues hold
  // references into them, so the pools must be destroyed last — after the
  // payload buffers their send ops give back on recycling.
  detail::PayloadBuffers payload_buffers_;
  detail::OpPool<detail::SendOp> send_pool_;
  detail::OpPool<detail::RecvOp> recv_pool_;
  sim::Engine engine_;
  net::Fabric fabric_;
  fs::FileSystem filesystem_;
  std::unique_ptr<obs::Metrics> metrics_;  ///< null = metrics disabled
  Comm world_;
  std::vector<detail::Mailbox> mailboxes_;  // by world rank

  // fault-injection state
  std::function<void(Rank&)> program_;     ///< for restart_rank respawns
  std::vector<std::uint8_t> dead_;         ///< fail-stopped ranks
  std::vector<int> dead_ranks_;            ///< the same ranks, listed
  std::vector<int> incarnation_;           ///< fiber (re)starts per rank
  std::vector<int> pid_;                   ///< engine pid of each rank's fiber
  std::uint64_t membership_epoch_ = 0;     ///< crashes + restarts so far
  /// Live agreement ledgers (see agreement()); erased when read out.
  std::unordered_map<std::uint64_t, std::shared_ptr<resilience::Agreement>>
      agreements_;
  /// Live allgather results (see exchange()); erased by the last reader.
  std::unordered_map<std::uint64_t, std::shared_ptr<detail::Exchange>>
      exchanges_;
};

}  // namespace ds::mpi
