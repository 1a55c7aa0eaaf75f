// Shared value types of the message-passing runtime.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>

namespace ds::mpi {

/// Wildcards, mirroring MPI_ANY_SOURCE / MPI_ANY_TAG.
inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

/// Tags below this are reserved for the runtime (collectives, streams).
inline constexpr int kMinUserTag = 0;

/// Completion information for a receive.
struct Status {
  int source = kAnySource;  ///< sending rank, in the communicator's numbering
  int tag = kAnyTag;
  std::size_t bytes = 0;    ///< payload size on the wire
  bool synthetic = false;   ///< true when the sender attached no real payload
  /// The operation was aborted by fault injection (the receiving rank was
  /// crashed while the receive was posted); no data arrived.
  bool failed = false;
};

/// Thrown inside a simulated process when fault injection has crashed its
/// rank (fail-stop): Machine::kill_rank kills the rank's fiber, whose
/// current advance or suspend throws this instead of returning, when that
/// wait would have ended (sim::Engine::kill), and so does every later one.
/// The crashed incarnation takes no further action. Caught by
/// Machine::run's program wrapper, so the rest of the simulation continues;
/// RAII cleanup along the unwind path must not start new communication
/// (Channel::free, which a decouple stream's destructor runs, and stream
/// termination check Rank::failed and become no-ops on a killed fiber).
class RankFailure : public std::runtime_error {
 public:
  explicit RankFailure(int world_rank)
      : std::runtime_error("rank " + std::to_string(world_rank) +
                           " crashed (fault injection)"),
        world_rank_(world_rank) {}
  [[nodiscard]] int world_rank() const noexcept { return world_rank_; }

 private:
  int world_rank_;
};

/// Thrown out of Machine::run when MachineConfig::collective_timeout is set
/// and a collective instance is still incomplete after that much virtual
/// time. A watchdog for regressions: a collective that stops being
/// failure-aware fails the run in bounded virtual time instead of wedging
/// the event loop (and the surrounding ctest invocation).
class CollectiveTimeout : public std::runtime_error {
 public:
  CollectiveTimeout(int world_rank, int tag)
      : std::runtime_error("collective (tag " + std::to_string(tag) +
                           ") on rank " + std::to_string(world_rank) +
                           " exceeded MachineConfig::collective_timeout"),
        world_rank_(world_rank) {}
  [[nodiscard]] int world_rank() const noexcept { return world_rank_; }

 private:
  int world_rank_;
};

/// Outgoing payload. `ptr == nullptr` marks a *synthetic* payload: the
/// message occupies `bytes` on the simulated wire but carries no host memory.
/// Benches use synthetic payloads so that 8,192-rank runs do not allocate
/// terabytes; tests use real payloads and check content end to end.
///
/// `wire_bytes`, when nonzero, declares a wire size larger than the real
/// payload: the first `bytes` are carried (e.g. a routing header) while the
/// message still occupies `wire_bytes` on the simulated network. Used by the
/// modeled app modes to keep headers addressable without allocating bodies.
struct SendBuf {
  const void* ptr = nullptr;
  std::size_t bytes = 0;
  std::size_t wire_bytes = 0;  ///< 0 = same as `bytes`

  [[nodiscard]] std::size_t on_wire() const noexcept {
    return wire_bytes > bytes ? wire_bytes : bytes;
  }

  [[nodiscard]] static SendBuf synthetic(std::size_t bytes) noexcept {
    return SendBuf{nullptr, 0, bytes};
  }
  template <typename T>
  [[nodiscard]] static SendBuf of(const T* data, std::size_t count) noexcept {
    return SendBuf{data, count * sizeof(T), 0};
  }
  /// Real header of `header` with a modeled body totalling `wire` bytes.
  template <typename T>
  [[nodiscard]] static SendBuf header_only(const T& header,
                                           std::size_t wire) noexcept {
    return SendBuf{&header, sizeof(T), wire};
  }
};

/// Outgoing payload that many sends share instead of copying (see
/// Machine::post_send): each send holds a reference to `owner`, which keeps
/// `bytes` alive and unchanged until the last send lets go. The message
/// occupies `wire_bytes` on the simulated network whatever the size of its
/// host form.
struct SharedBuf {
  std::shared_ptr<const void> owner;
  std::span<const std::byte> bytes;
  std::size_t wire_bytes = 0;
};

/// Incoming buffer. `ptr == nullptr` discards payload content (synthetic
/// receive); `bytes` is the capacity. A borrowing receive (`borrow`) copies
/// nothing: Machine::post_recv hands the matched message itself to the
/// receiver, which reads the payload in place for as long as it holds it.
struct RecvBuf {
  void* ptr = nullptr;
  std::size_t bytes = 0;
  bool borrow = false;

  [[nodiscard]] static RecvBuf discard(std::size_t capacity) noexcept {
    return RecvBuf{nullptr, capacity};
  }
  [[nodiscard]] static RecvBuf borrowed() noexcept {
    return RecvBuf{nullptr, 0, true};
  }
  template <typename T>
  [[nodiscard]] static RecvBuf of(T* data, std::size_t count) noexcept {
    return RecvBuf{data, count * sizeof(T)};
  }
};

/// Reduction combiner: fold `bytes` of `in` into `accum`. Called only when
/// both operands carry real data.
using ReduceFn = std::function<void(const std::byte* in, std::byte* accum,
                                    std::size_t bytes)>;

/// Elementwise sum combiner for arithmetic element type T.
template <typename T>
[[nodiscard]] ReduceFn reduce_sum() {
  return [](const std::byte* in, std::byte* accum, std::size_t bytes) {
    const auto* a = reinterpret_cast<const T*>(in);
    auto* b = reinterpret_cast<T*>(accum);
    for (std::size_t i = 0; i < bytes / sizeof(T); ++i) b[i] += a[i];
  };
}

template <typename T>
[[nodiscard]] ReduceFn reduce_min() {
  return [](const std::byte* in, std::byte* accum, std::size_t bytes) {
    const auto* a = reinterpret_cast<const T*>(in);
    auto* b = reinterpret_cast<T*>(accum);
    for (std::size_t i = 0; i < bytes / sizeof(T); ++i)
      if (a[i] < b[i]) b[i] = a[i];
  };
}

template <typename T>
[[nodiscard]] ReduceFn reduce_max() {
  return [](const std::byte* in, std::byte* accum, std::size_t bytes) {
    const auto* a = reinterpret_cast<const T*>(in);
    auto* b = reinterpret_cast<T*>(accum);
    for (std::size_t i = 0; i < bytes / sizeof(T); ++i)
      if (a[i] > b[i]) b[i] = a[i];
  };
}

}  // namespace ds::mpi
