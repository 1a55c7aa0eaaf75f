#include "mpi/comm.hpp"

namespace ds::mpi {

const Group& Comm::no_members() noexcept {
  static const Group empty;
  return empty;
}

}  // namespace ds::mpi
