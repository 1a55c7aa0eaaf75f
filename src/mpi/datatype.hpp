// Stream element datatypes.
//
// MPIStream binds a datatype to every stream (paper Sec. III-A step 2). What
// the simulated stream needs from it is the element's wire size: the cost
// model charges bytes on the wire, and Stream::attach fixes the largest
// element a stream accepts.
#pragma once

#include <cstddef>

namespace ds::mpi {

class Datatype {
 public:
  /// An element of `n` bytes on the wire.
  [[nodiscard]] static constexpr Datatype bytes(std::size_t n) noexcept {
    return Datatype(n);
  }
  [[nodiscard]] static constexpr Datatype int32() noexcept { return bytes(4); }
  [[nodiscard]] static constexpr Datatype int64() noexcept { return bytes(8); }

  /// Bytes this type occupies on the wire.
  [[nodiscard]] constexpr std::size_t size() const noexcept { return size_; }

 private:
  explicit constexpr Datatype(std::size_t size) noexcept : size_(size) {}

  std::size_t size_ = 0;
};

}  // namespace ds::mpi
