#include "apps/cg/cg_app.hpp"

#include <cmath>
#include <cstring>
#include <map>
#include <stdexcept>

#include "apps/cg/cg_solver.hpp"
#include "core/decouple.hpp"
#include "core/group_plan.hpp"
#include "mpi/cart.hpp"
#include "mpi/rank.hpp"

namespace ds::apps::cg {

namespace {

using mpi::Rank;
using mpi::RecvBuf;
using mpi::SendBuf;

struct FaceHeader {
  std::int32_t target = -1;  ///< destination worker (cart rank)
  std::int32_t face = -1;    ///< which ghost face of the target this fills
  std::int32_t iter = -1;
  std::int32_t count = 0;    ///< doubles carried (real mode)
};

[[nodiscard]] util::SimTime ns_time(double ns) {
  return static_cast<util::SimTime>(ns);
}

/// Modeled per-rank geometry: cell counts and face sizes, possibly inflated
/// for decoupled workers that carry 1/(1-alpha) more volume.
struct ModeledShape {
  double edge = 0.0;  ///< effective cubic subdomain edge
  [[nodiscard]] double cells() const noexcept { return edge * edge * edge; }
  [[nodiscard]] double inner_cells() const noexcept {
    const double e = std::max(0.0, edge - 2.0);
    return e * e * e;
  }
  [[nodiscard]] double shell_cells() const noexcept {
    return cells() - inner_cells();
  }
  [[nodiscard]] std::size_t face_bytes() const noexcept {
    return static_cast<std::size_t>(edge * edge) * sizeof(double);
  }
};

/// Real-data per-rank solver state.
struct RealState {
  LocalGrid x, r, p, ap;
  std::array<int, 3> lo{};     // global offset
  std::array<int, 3> dims{};   // local interior dims
  double rr = 0.0;
};

[[nodiscard]] std::array<int, 3> partition_local(const std::array<int, 3>& global,
                                                 const std::array<int, 3>& dims) {
  std::array<int, 3> local{};
  for (int d = 0; d < 3; ++d) {
    const auto idx = static_cast<std::size_t>(d);
    if (global[idx] % dims[idx] != 0)
      throw std::invalid_argument("cg: global grid not divisible by process grid");
    local[idx] = global[idx] / dims[idx];
  }
  return local;
}

void init_real_state(RealState& st, const mpi::CartTopology& cart, int cart_rank,
                     const std::array<int, 3>& global) {
  const auto local = partition_local(global, cart.dims());
  const auto coords = cart.coords_of(cart_rank);
  st.dims = local;
  for (int d = 0; d < 3; ++d)
    st.lo[static_cast<std::size_t>(d)] =
        coords[static_cast<std::size_t>(d)] * local[static_cast<std::size_t>(d)];
  st.x = LocalGrid(local[0], local[1], local[2]);
  st.r = LocalGrid(local[0], local[1], local[2]);
  st.p = LocalGrid(local[0], local[1], local[2]);
  st.ap = LocalGrid(local[0], local[1], local[2]);
  for (int i = 0; i < local[0]; ++i)
    for (int j = 0; j < local[1]; ++j)
      for (int k = 0; k < local[2]; ++k) {
        const double b = rhs_value(st.lo[0] + i, st.lo[1] + j, st.lo[2] + k);
        st.r.at(i, j, k) = b;
        st.p.at(i, j, k) = b;
      }
  st.rr = dot_interior(st.r, st.r);
}

/// Apply the stencil on the one-cell-thick boundary shell only.
void apply_poisson_shell(const LocalGrid& in, LocalGrid& out) {
  const int nx = in.nx(), ny = in.ny(), nz = in.nz();
  auto run = [&](std::array<int, 3> lo, std::array<int, 3> hi) {
    for (int d = 0; d < 3; ++d)
      if (lo[static_cast<std::size_t>(d)] >= hi[static_cast<std::size_t>(d)]) return;
    apply_poisson(in, out, lo, hi);
  };
  run({0, 0, 0}, {1, ny, nz});
  if (nx > 1) run({nx - 1, 0, 0}, {nx, ny, nz});
  run({1, 0, 0}, {nx - 1, 1, nz});
  if (ny > 1) run({1, ny - 1, 0}, {nx - 1, ny, nz});
  run({1, 1, 0}, {nx - 1, ny - 1, 1});
  if (nz > 1) run({1, 1, nz - 1}, {nx - 1, ny - 1, nz});
}

/// Distributed scalar allreduce shared by all variants: real values when
/// `real` is set, synthetic 8-byte payload otherwise.
double allreduce_scalar(Rank& self, const mpi::Comm& comm, bool real,
                        double local) {
  if (real) {
    double global = 0.0;
    self.allreduce(comm, SendBuf::of(&local, 1), &global,
                   mpi::reduce_sum<double>());
    return global;
  }
  self.allreduce(comm, SendBuf::synthetic(sizeof(double)), nullptr, {});
  return 0.0;
}

/// One CG step's scalar/vector tail after `ap` is complete: dot products,
/// axpy updates and the direction update, with modeled costs charged.
void cg_tail(Rank& self, const mpi::Comm& comm, const CgConfig& cfg,
             const ModeledShape& shape, bool real, RealState* st) {
  double pap_local = real ? dot_interior(st->p, st->ap) : 0.0;
  const double pap = allreduce_scalar(self, comm, real, pap_local);
  self.compute(ns_time(cfg.ns_vector_per_cell * shape.cells()), "vec");
  double rr_new_local = 0.0;
  if (real) {
    const double alpha = pap == 0.0 ? 0.0 : st->rr / pap;
    axpy_interior(alpha, st->p, st->x);
    axpy_interior(-alpha, st->ap, st->r);
    rr_new_local = dot_interior(st->r, st->r);
  }
  const double rr_new = allreduce_scalar(self, comm, real, rr_new_local);
  if (real) {
    const double beta = st->rr == 0.0 ? 0.0 : rr_new / st->rr;
    st->rr = rr_new;
    xpby_interior(st->r, beta, st->p);
  }
}

}  // namespace

CgResult run_cg(HaloVariant variant, const CgConfig& config,
                const mpi::MachineConfig& machine_config) {
  mpi::Machine machine(machine_config);
  const int size = machine.world_size();
  CgResult result;

  // ---------------- group layout ----------------
  const bool decoupled = variant == HaloVariant::Decoupled;
  stream::GroupPlan plan =
      decoupled ? stream::GroupPlan::interleaved(machine.world(), config.stride)
                : stream::GroupPlan();  // unused otherwise
  const int compute_ranks = decoupled ? plan.worker_count() : size;
  const mpi::CartTopology cart(mpi::CartTopology::dims_create(compute_ranks),
                               {false, false, false});

  // Modeled geometry: decoupled workers carry size/compute_ranks more volume.
  ModeledShape shape;
  shape.edge = config.n *
               std::cbrt(static_cast<double>(size) / compute_ranks);

  if (config.real_data) result.pieces.resize(static_cast<std::size_t>(compute_ranks));

  const auto program = [&](Rank& self) {
    const int me = self.rank_in(self.world());
    const bool real = config.real_data;

    // ---------------- reference variants ----------------
    if (!decoupled) {
      const int cart_rank = me;
      const auto neighbors = cart.face_neighbors(cart_rank);
      RealState st;
      if (real) init_real_state(st, cart, cart_rank, config.global_grid);
      // r0 = b is distributed; the CG scalars need the global ||r0||^2.
      st.rr = allreduce_scalar(self, self.world(), real, st.rr);

      // Byte counts per peer for the halo alltoallv.
      std::vector<std::size_t> counts(static_cast<std::size_t>(size), 0);
      std::array<std::size_t, 6> face_sizes{};
      for (int f = 0; f < 6; ++f) {
        if (neighbors[static_cast<std::size_t>(f)] < 0) continue;
        face_sizes[static_cast<std::size_t>(f)] =
            real ? st.p.face_cells(f) * sizeof(double) : shape.face_bytes();
        counts[static_cast<std::size_t>(neighbors[static_cast<std::size_t>(f)])] +=
            face_sizes[static_cast<std::size_t>(f)];
      }
      const std::size_t total_bytes =
          [&] { std::size_t s = 0; for (auto c : counts) s += c; return s; }();
      std::vector<std::byte> send_buf(real ? total_bytes : 0);
      std::vector<std::byte> recv_buf(real ? total_bytes : 0);
      std::vector<std::size_t> displs(static_cast<std::size_t>(size) + 1, 0);
      for (int r = 0; r < size; ++r)
        displs[static_cast<std::size_t>(r) + 1] =
            displs[static_cast<std::size_t>(r)] + counts[static_cast<std::size_t>(r)];

      std::vector<double> scratch;
      for (int it = 0; it < config.iterations; ++it) {
        if (real) {
          // Pack each face into its neighbour's slot (faces to the same
          // neighbour are laid out in face order on both sides).
          std::vector<std::size_t> cursor(displs.begin(), displs.end() - 1);
          for (int f = 0; f < 6; ++f) {
            const int nbr = neighbors[static_cast<std::size_t>(f)];
            if (nbr < 0) continue;
            st.p.extract_face(f, scratch);
            std::memcpy(send_buf.data() + cursor[static_cast<std::size_t>(nbr)],
                        scratch.data(), scratch.size() * sizeof(double));
            cursor[static_cast<std::size_t>(nbr)] += scratch.size() * sizeof(double);
          }
        }
        const mpi::Request halo = self.ialltoallv(
            self.world(), real ? send_buf.data() : nullptr, counts,
            real ? recv_buf.data() : nullptr, counts);

        auto unpack = [&] {
          if (!real) return;
          std::vector<std::size_t> cursor(displs.begin(), displs.end() - 1);
          // The neighbour packed faces in *its* face order; the face it sent
          // toward us fills our ghost on side f when it sits at -f of us.
          // Both sides enumerate faces in ascending order, and each pair of
          // ranks exchanges exactly the two opposing faces, so per-peer data
          // is unambiguous.
          for (int f = 0; f < 6; ++f) {
            const int nbr = neighbors[static_cast<std::size_t>(f)];
            if (nbr < 0) continue;
            const std::size_t bytes = face_sizes[static_cast<std::size_t>(f)];
            scratch.resize(bytes / sizeof(double));
            std::memcpy(scratch.data(),
                        recv_buf.data() + cursor[static_cast<std::size_t>(nbr)],
                        bytes);
            cursor[static_cast<std::size_t>(nbr)] += bytes;
            st.p.fill_ghost(f, scratch.data(), scratch.size());
          }
        };

        if (variant == HaloVariant::Blocking) {
          self.wait(halo);
          unpack();
          self.compute(ns_time(config.ns_stencil_per_cell * shape.cells()),
                       "comp");
          if (real)
            apply_poisson(st.p, st.ap, {0, 0, 0},
                          {st.dims[0], st.dims[1], st.dims[2]});
        } else {
          self.compute(ns_time(config.ns_stencil_per_cell * shape.inner_cells()),
                       "comp");
          if (real)
            apply_poisson(st.p, st.ap, {1, 1, 1},
                          {st.dims[0] - 1, st.dims[1] - 1, st.dims[2] - 1});
          self.wait(halo);
          unpack();
          self.compute(ns_time(config.ns_stencil_per_cell * shape.shell_cells()),
                       "comp");
          if (real) apply_poisson_shell(st.p, st.ap);
        }
        cg_tail(self, self.world(), config, shape, real, real ? &st : nullptr);
      }
      if (real) {
        result.residual2 = st.rr;
        result.pieces[static_cast<std::size_t>(cart_rank)] =
            CgPiece{st.lo, std::move(st.x)};
      }
      return;
    }

    // ---------------- decoupled variant ----------------
    const std::size_t max_face_bytes =
        (config.real_data
             ? [&] {
                 const auto local = partition_local(config.global_grid, cart.dims());
                 const std::size_t a = static_cast<std::size_t>(local[0]) * local[1];
                 const std::size_t b = static_cast<std::size_t>(local[1]) * local[2];
                 const std::size_t c = static_cast<std::size_t>(local[0]) * local[2];
                 return std::max({a, b, c}) * sizeof(double);
               }()
             : shape.face_bytes());

    decouple::StreamOptions directed;
    directed.mapping = decouple::Mapping::Directed;

    auto pipeline = decouple::Pipeline::over(self, self.world())
                        .with_plan(plan)
                        .with_worker_comm();
    auto faces = pipeline.stream<FaceHeader>(max_face_bytes, directed);
    auto bundles = pipeline.stream_between<FaceHeader>(
        pipeline.helper_stage(), pipeline.worker_stage(), 6 * max_face_bytes,
        directed);

    pipeline.run(
        [&](decouple::Context& ctx) {
          const int w = ctx.worker_index();
          const auto neighbors = cart.face_neighbors(w);
          RealState st;
          if (real) init_real_state(st, cart, w, config.global_grid);
          st.rr = allreduce_scalar(self, ctx.worker_comm(), real, st.rr);

          auto& s_face = ctx[faces];
          auto& s_back = ctx[bundles];
          bool got_bundle = false;
          int current_iter = -1;
          s_back.on_receive([&](const decouple::Element<FaceHeader>& el) {
            if (el.synthetic) {
              got_bundle = true;
              return;
            }
            if (el.record.target != w || el.record.iter != current_iter)
              throw std::logic_error(
                  "cg decoupled: bundle routed to wrong worker");
            got_bundle = true;
            if (!real) return;
            const std::byte* cursor = el.payload;
            for (int f = 0; f < 6; ++f) {
              if (neighbors[static_cast<std::size_t>(f)] < 0) continue;
              const std::size_t n = st.p.face_cells(f);
              std::vector<double> vals(n);
              std::memcpy(vals.data(), cursor, n * sizeof(double));
              cursor += n * sizeof(double);
              st.p.fill_ghost(f, vals.data(), n);
            }
          });

          std::vector<double> scratch;
          for (int it = 0; it < config.iterations; ++it) {
            current_iter = it;
            // Stream each face toward the helper that owns the *receiving*
            // neighbour; the helper aggregates all six and answers with one
            // bundle (paper: "instead of communicating with six processes").
            for (int f = 0; f < 6; ++f) {
              const int nbr = neighbors[static_cast<std::size_t>(f)];
              if (nbr < 0) continue;
              FaceHeader h{nbr, static_cast<std::int32_t>(opposite(f)), it, 0};
              if (real) {
                st.p.extract_face(f, scratch);
                h.count = static_cast<std::int32_t>(scratch.size());
                s_face.send_to(ctx.helper_of(nbr), h, scratch.data(),
                               scratch.size());
              } else {
                s_face.send_modeled_to(ctx.helper_of(nbr), h,
                                       shape.face_bytes());
              }
            }
            self.compute(
                ns_time(config.ns_stencil_per_cell * shape.inner_cells()),
                "comp");
            if (real)
              apply_poisson(st.p, st.ap, {1, 1, 1},
                            {st.dims[0] - 1, st.dims[1] - 1, st.dims[2] - 1});
            got_bundle = false;
            s_back.operate_while([&] { return !got_bundle; });
            self.compute(
                ns_time(config.ns_stencil_per_cell * shape.shell_cells()),
                "comp");
            if (real) apply_poisson_shell(st.p, st.ap);
            cg_tail(self, ctx.worker_comm(), config, shape, real,
                    real ? &st : nullptr);
          }
          if (real) {
            result.residual2 = st.rr;
            result.pieces[static_cast<std::size_t>(w)] =
                CgPiece{st.lo, std::move(st.x)};
          }
        },
        [&](decouple::Context& ctx) {
          // ---- helper: collect faces, answer bundles ----
          const int h_idx = ctx.helper_index();
          const int workers = ctx.worker_count();
          // Faces for one worker can interleave across iterations (a fast
          // neighbour may run up to two iterations ahead of a slow one), so
          // arrivals are slotted per (worker, iteration).
          struct IterSlot {
            int arrived = 0;
            std::array<std::vector<double>, 6> faces;
          };
          struct PerWorker {
            int expected = 0;
            std::map<int, IterSlot> pending;
          };
          std::vector<PerWorker> state(static_cast<std::size_t>(workers));
          for (int w = 0; w < workers; ++w) {
            if (ctx.helper_of(w) != h_idx) continue;
            const auto nb = cart.face_neighbors(w);
            for (int f = 0; f < 6; ++f)
              if (nb[static_cast<std::size_t>(f)] >= 0)
                ++state[static_cast<std::size_t>(w)].expected;
          }

          auto& s_face = ctx[faces];
          auto& s_back = ctx[bundles];
          std::vector<double> bundle;
          s_face.on_receive([&](const decouple::Element<FaceHeader>& el) {
            if (el.synthetic) return;
            const FaceHeader& h = el.record;
            auto& pw = state.at(static_cast<std::size_t>(h.target));
            auto& slot_iter = pw.pending[h.iter];
            if (real && h.count > 0)
              el.payload_to(slot_iter.faces[static_cast<std::size_t>(h.face)],
                            static_cast<std::size_t>(h.count));
            if (++slot_iter.arrived < pw.expected) return;
            IterSlot ready = std::move(slot_iter);
            pw.pending.erase(h.iter);
            auto& faces_ready = ready.faces;

            // All six (or fewer at domain boundaries) faces arrived:
            // aggregate and stream the bundle back to the worker.
            const auto nb = cart.face_neighbors(h.target);
            std::size_t data_bytes = 0;
            if (real) {
              for (int f = 0; f < 6; ++f)
                if (nb[static_cast<std::size_t>(f)] >= 0)
                  data_bytes += faces_ready[static_cast<std::size_t>(f)].size() *
                                sizeof(double);
            } else {
              int present = 0;
              for (int f = 0; f < 6; ++f)
                if (nb[static_cast<std::size_t>(f)] >= 0) ++present;
              data_bytes = static_cast<std::size_t>(present) * shape.face_bytes();
            }
            self.compute(ns_time(config.ns_aggregate_per_byte *
                                 static_cast<double>(data_bytes)),
                         "agg");
            const FaceHeader out{h.target, -1, h.iter, 0};
            if (real) {
              bundle.clear();
              for (int f = 0; f < 6; ++f) {
                if (nb[static_cast<std::size_t>(f)] < 0) continue;
                const auto& slot = faces_ready[static_cast<std::size_t>(f)];
                bundle.insert(bundle.end(), slot.begin(), slot.end());
              }
              s_back.send_to(h.target, out, bundle.data(), bundle.size());
            } else {
              s_back.send_modeled_to(h.target, out, data_bytes);
            }
          });
          s_face.operate();
        });
  };

  result.seconds = util::to_seconds(machine.run(program));
  return result;
}

}  // namespace ds::apps::cg
