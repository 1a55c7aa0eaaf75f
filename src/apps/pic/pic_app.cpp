#include "apps/pic/pic_app.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <set>
#include <stdexcept>

#include "core/decouple.hpp"
#include "core/group_plan.hpp"
#include "mpi/rank.hpp"

namespace ds::apps::pic {

namespace {

using mpi::Rank;
using mpi::RecvBuf;
using mpi::SendBuf;

[[nodiscard]] util::SimTime ns_time(double ns) {
  return static_cast<util::SimTime>(std::max(0.0, ns));
}

/// Element header for decoupled particle streams.
struct PartHeader {
  std::int32_t kind = 0;     ///< 0 = batch, 1 = end-of-step, 2 = close
  std::int32_t step = -1;
  std::int32_t dest = -1;    ///< destination worker (batch/close)
  std::int32_t count = 0;    ///< particles carried / aggregated
};

/// Sort exiting particles (one mover step applied) from `mine` into
/// per-destination lists; keeps residents in `mine`.
void split_exits(const Domain& domain, int my_rank, std::vector<Particle>& mine,
                 std::map<int, std::vector<Particle>>& exits, double dt) {
  std::vector<Particle> stay;
  stay.reserve(mine.size());
  for (Particle p : mine) {
    move_particle(p, dt);
    const int owner = domain.owner(p.x, p.y, p.z);
    if (owner == my_rank)
      stay.push_back(p);
    else
      exits[owner].push_back(p);
  }
  mine = std::move(stay);
}

}  // namespace

int compute_ranks_of(ExchangeVariant variant, const PicConfig& config,
                     int world_size) {
  if (variant == ExchangeVariant::Reference) return world_size;
  return world_size - world_size / config.stride;
}

Domain domain_of(int compute_ranks) {
  return Domain{mpi::CartTopology(mpi::CartTopology::dims_create(compute_ranks),
                                  {false, false, false})};
}

// ------------------------------------------------------------- reference --
namespace {

void run_reference_program(Rank& self, const PicConfig& cfg, const Domain& domain,
                           PicResult& result,
                           std::vector<std::vector<Particle>>& particles,
                           std::vector<std::uint64_t>& counts,
                           std::vector<double>& comm_time) {
  const int me = self.rank_in(self.world());
  const auto neighbors = domain.cart.face_neighbors(me);
  const auto my_coords = domain.cart.coords_of(me);
  util::Rng exit_rng = util::Rng::for_stream(cfg.seed ^ 0xE817, me);

  std::vector<int> present_faces;
  for (int f = 0; f < 6; ++f)
    if (neighbors[static_cast<std::size_t>(f)] >= 0) present_faces.push_back(f);

  auto& mine = particles[static_cast<std::size_t>(me)];
  std::uint64_t my_count =
      cfg.real_data ? mine.size() : counts[static_cast<std::size_t>(me)];

  for (int step = 0; step < cfg.steps; ++step) {
    // ---- mover (and moments) ----
    self.compute(ns_time(cfg.ns_mover_per_particle * static_cast<double>(my_count)),
                 "comp");

    std::map<int, std::vector<Particle>> exits;  // real mode: by final owner
    std::uint64_t modeled_outgoing = 0;
    if (cfg.real_data) {
      split_exits(domain, me, mine, exits, cfg.dt);
    } else {
      const double jitter = 0.6 + 0.8 * exit_rng.next_double();
      modeled_outgoing = static_cast<std::uint64_t>(
          cfg.exit_fraction * jitter * static_cast<double>(my_count));
      my_count -= modeled_outgoing;
    }

    // ---- iterative six-neighbour forwarding (rounds bounded by
    //      DimX + DimY + DimZ, terminated by a global allreduce) ----
    const util::SimTime comm_begin = self.now();
    while (true) {
      std::uint64_t received_total = 0;
      std::size_t present_index = 0;
      for (int f = 0; f < 6; ++f) {
        const int nbr = neighbors[static_cast<std::size_t>(f)];
        if (nbr < 0) continue;
        // Count exchange, then payload exchange (sizes now known). Tag
        // pairing: my face f talks to the neighbour's face f^1.
        std::uint64_t send_count = 0;
        std::vector<Particle> outgoing;
        if (cfg.real_data) {
          // Forward everything whose destination lies further along this
          // direction one hop toward it.
          for (auto it = exits.begin(); it != exits.end();) {
            const auto dest_coords = domain.cart.coords_of(it->first);
            const auto d = static_cast<std::size_t>(f / 2);
            const bool along = (f % 2 == 0) ? dest_coords[d] < my_coords[d]
                                            : dest_coords[d] > my_coords[d];
            if (along) {
              outgoing.insert(outgoing.end(), it->second.begin(),
                              it->second.end());
              it = exits.erase(it);
            } else {
              ++it;
            }
          }
          send_count = outgoing.size();
        } else {
          // Split this round's outgoing over the present faces, exactly.
          const auto faces = present_faces.size();
          send_count = modeled_outgoing / faces +
                       (present_index < modeled_outgoing % faces ? 1 : 0);
          ++present_index;
        }

        std::uint64_t recv_count = 0;
        self.sendrecv(self.world(), nbr, /*send_tag=*/100 + f,
                      SendBuf::of(&send_count, 1), nbr,
                      /*recv_tag=*/100 + (f ^ 1), RecvBuf::of(&recv_count, 1));
        std::vector<Particle> incoming(cfg.real_data ? recv_count : 0);
        self.sendrecv(
            self.world(), nbr, /*send_tag=*/200 + f,
            cfg.real_data ? SendBuf::of(outgoing.data(), outgoing.size())
                          : SendBuf::synthetic(send_count * cfg.particle_bytes),
            nbr, /*recv_tag=*/200 + (f ^ 1),
            cfg.real_data ? RecvBuf::of(incoming.data(), incoming.size())
                          : RecvBuf::discard(recv_count * cfg.particle_bytes));

        received_total += recv_count;
        if (cfg.real_data) {
          for (const Particle& p : incoming) {
            if (domain.contains(me, p)) {
              mine.push_back(p);
            } else {
              exits[domain.owner(p.x, p.y, p.z)].push_back(p);
            }
          }
        }
      }

      std::uint64_t still_moving = 0;
      if (cfg.real_data) {
        for (const auto& [dest, list] : exits) still_moving += list.size();
      } else {
        // A small tail of what just arrived crossed a corner/edge and needs
        // another hop; the rest settles here. Conservation is exact.
        const auto next_out = static_cast<std::uint64_t>(
            cfg.second_hop_fraction * static_cast<double>(received_total));
        my_count += received_total - next_out;
        modeled_outgoing = next_out;
        still_moving = next_out;
      }

      std::uint64_t global_moving = 0;
      self.allreduce(self.world(), SendBuf::of(&still_moving, 1), &global_moving,
                     mpi::reduce_sum<std::uint64_t>());
      if (global_moving == 0) break;
    }
    comm_time[static_cast<std::size_t>(me)] +=
        util::to_seconds(self.now() - comm_begin);
    if (cfg.real_data) my_count = mine.size();
  }

  if (cfg.real_data) {
    result.final_particles[static_cast<std::size_t>(me)] = mine;
    counts[static_cast<std::size_t>(me)] = mine.size();
  } else {
    counts[static_cast<std::size_t>(me)] = my_count;
  }
}

}  // namespace

// --------------------------------------------------------------- decoupled --
namespace {

void run_decoupled_program(Rank& self, const PicConfig& cfg, const Domain& domain,
                           const stream::GroupPlan& plan, PicResult& result,
                           std::vector<std::vector<Particle>>& particles,
                           std::vector<std::uint64_t>& counts,
                           std::vector<double>& comm_time) {
  // Element sizing: a batch carries up to one full exit wave; keep a
  // generous cap so real tests never overflow.
  const std::size_t max_batch =
      sizeof(PartHeader) +
      cfg.particle_bytes *
          std::max<std::size_t>(
              4096, static_cast<std::size_t>(
                        2.0 * cfg.exit_fraction *
                        static_cast<double>(cfg.particles_per_rank)));
  const std::size_t batch_payload = max_batch - sizeof(PartHeader);

  decouple::StreamOptions out_options;  // Block mapping toward the helpers
  // Both streams ride the default framed transport. Outbound particle
  // batches are element-sized chunks (typically far above the frame budget,
  // so each is framed alone), but end-of-step markers and small tail chunks
  // share frames with whatever was injected at the same instant.
  // The closure protocol's latency is untouched: the same-instant backstop
  // flushes the moment the worker blocks waiting on its closes.
  decouple::StreamOptions back_options;  // helpers -> workers
  back_options.mapping = decouple::Mapping::Directed;
  // CLOSE notifications are small directed records fanning from each helper
  // to its workers: frames pack a helper's same-instant closes per worker.

  auto pipeline = decouple::Pipeline::over(self, self.world()).with_plan(plan);
  auto outflow = pipeline.stream<PartHeader>(batch_payload, out_options);
  auto backflow = pipeline.stream_between<PartHeader>(
      pipeline.helper_stage(), pipeline.worker_stage(), batch_payload,
      back_options);

  const auto worker_program = [&](decouple::Context& ctx) {
    const int w = ctx.worker_index();
    const auto neighbors = domain.cart.face_neighbors(w);
    // Particles can cross corners in one step, so closure spans the Moore
    // neighbourhood: I expect one CLOSE per distinct helper of any
    // Moore-neighbour (they hold everything that can reach me in one hop).
    const auto moore = domain.cart.moore_neighbors(w);
    std::set<int> close_sources;
    for (const int v : moore) close_sources.insert(ctx.helper_of(v));

    util::Rng exit_rng = util::Rng::for_stream(cfg.seed ^ 0xE817, w);
    auto& mine = particles[static_cast<std::size_t>(w)];
    std::uint64_t my_count =
        cfg.real_data ? mine.size() : counts[static_cast<std::size_t>(w)];

    const bool relaxed = cfg.relaxed_arrival && !cfg.real_data;
    auto& s_out = ctx[outflow];
    auto& s_back = ctx[backflow];
    int closes_seen = 0;        // strict mode: closes for the current step
    int closes_total = 0;       // relaxed mode: closes across the whole run
    int current_step = -1;
    // A neighbour can run one step ahead, so its helper's CLOSE for step k+1
    // may arrive while we still wait on step k; stash and apply in order so
    // early arrivals are not moved twice (strict mode only — relaxed mode
    // integrates arrivals immediately by design).
    struct StashedClose {
      PartHeader header;
      std::vector<Particle> incoming;
    };
    std::map<int, std::vector<StashedClose>> stashed;
    auto apply_close = [&](const PartHeader& h, std::vector<Particle> incoming) {
      if (h.kind == 2) {  // final chunk for this (helper, step)
        ++closes_seen;
        ++closes_total;
      }
      if (cfg.real_data) {
        for (const Particle& p : incoming) mine.push_back(p);
      } else {
        my_count += static_cast<std::uint64_t>(h.count);
      }
    };
    s_back.on_receive([&](const decouple::Element<PartHeader>& el) {
      if (el.synthetic) return;
      const PartHeader& h = el.record;
      if (h.dest != w || (!relaxed && h.step < current_step))
        throw std::logic_error("pic decoupled: misrouted close element");
      std::vector<Particle> incoming;
      if (cfg.real_data && h.count > 0)
        el.payload_to(incoming, static_cast<std::size_t>(h.count));
      if (relaxed || h.step == current_step) {
        apply_close(h, std::move(incoming));
      } else {
        stashed[h.step].push_back(StashedClose{h, std::move(incoming)});
      }
    });

    for (int step = 0; step < cfg.steps; ++step) {
      self.compute(
          ns_time(cfg.ns_mover_per_particle * static_cast<double>(my_count)),
          "comp");

      const util::SimTime comm_begin = self.now();
      current_step = step;
      closes_seen = 0;
      if (cfg.real_data) {
        std::map<int, std::vector<Particle>> exits;
        split_exits(domain, w, mine, exits, cfg.dt);
        for (auto& [dest, list] : exits) {
          // The closure protocol covers one subdomain of travel per step;
          // faster particles would need a smaller dt.
          if (!std::binary_search(moore.begin(), moore.end(), dest))
            throw std::logic_error(
                "pic decoupled: particle crossed more than one subdomain per "
                "step; reduce dt");
          const PartHeader h{0, step, dest,
                             static_cast<std::int32_t>(list.size())};
          s_out.send(h, list.data(), list.size());
        }
      } else {
        const double jitter = 0.6 + 0.8 * exit_rng.next_double();
        std::uint64_t outgoing = static_cast<std::uint64_t>(
            cfg.exit_fraction * jitter * static_cast<double>(my_count));
        my_count -= outgoing;
        // Spread exits across the real neighbours.
        std::vector<int> nbrs;
        for (int f = 0; f < 6; ++f)
          if (neighbors[static_cast<std::size_t>(f)] >= 0)
            nbrs.push_back(neighbors[static_cast<std::size_t>(f)]);
        const std::uint64_t chunk_limit = batch_payload / cfg.particle_bytes;
        for (std::size_t i = 0; i < nbrs.size(); ++i) {
          std::uint64_t share =
              outgoing / nbrs.size() + (i < outgoing % nbrs.size() ? 1 : 0);
          // Ship in element-sized chunks (fine-grained stream elements).
          do {
            const std::uint64_t n = std::min(chunk_limit, share);
            const PartHeader h{0, step, nbrs[i], static_cast<std::int32_t>(n)};
            s_out.send_modeled(
                h, static_cast<std::size_t>(n) * cfg.particle_bytes);
            share -= n;
          } while (share > 0);
        }
      }
      // End-of-step marker; then either wait for this step's closes (strict)
      // or just drain whatever has already arrived (relaxed).
      s_out.send(PartHeader{1, step, w, 0});
      if (relaxed) {
        s_back.drain();
      } else {
        if (auto it = stashed.find(step); it != stashed.end()) {
          for (auto& sc : it->second)
            apply_close(sc.header, std::move(sc.incoming));
          stashed.erase(it);
        }
        s_back.operate_while([&] {
          return closes_seen < static_cast<int>(close_sources.size());
        });
      }
      comm_time[static_cast<std::size_t>(w)] +=
          util::to_seconds(self.now() - comm_begin);
      if (cfg.real_data) my_count = mine.size();
    }
    if (relaxed) {
      // Final reconciliation: every step's closes must land so the particle
      // count is exact before reporting.
      const int expected = cfg.steps * static_cast<int>(close_sources.size());
      s_back.operate_while([&] { return closes_total < expected; });
    }
    if (cfg.real_data) {
      result.final_particles[static_cast<std::size_t>(w)] = mine;
      counts[static_cast<std::size_t>(w)] = mine.size();
    } else {
      counts[static_cast<std::size_t>(w)] = my_count;
    }
  };

  const auto helper_program = [&](decouple::Context& ctx) {
    // ---- helper: aggregate by destination, forward in one pass ----
    const int h_idx = ctx.helper_index();
    const int workers = ctx.worker_count();
    std::vector<int> my_producers;  // worker indices streaming to me
    for (int w = 0; w < workers; ++w)
      if (ctx.helper_of(w) == h_idx) my_producers.push_back(w);
    // Destinations I close each step, and for each the producers whose END
    // gates the close: only the destination's Moore neighbours assigned to
    // me. Gating on *all* producers would turn every step into a semi-global
    // barrier through the helper and destroy imbalance absorption.
    std::map<int, std::vector<int>> relevant_producers;  // dest -> producers
    for (const int w : my_producers)
      for (const int dest : domain.cart.moore_neighbors(w))
        relevant_producers[dest].push_back(w);

    struct DestSlot {
      int ends = 0;
      std::vector<Particle> real_particles;
      std::uint64_t count = 0;
    };
    std::map<std::pair<int, int>, DestSlot> slots;  // (step, dest) -> slot

    auto& s_out = ctx[outflow];
    auto& s_back = ctx[backflow];
    // One aggregate can exceed an element (many neighbours funnel into one
    // destination), so flush in chunks; only the last chunk carries the
    // CLOSE kind that advances the worker's step.
    const std::uint64_t chunk_particles = batch_payload / cfg.particle_bytes;
    auto flush_dest = [&](int step, int dest, DestSlot& slot) {
      const std::uint64_t total =
          cfg.real_data ? slot.real_particles.size() : slot.count;
      self.compute(ns_time(cfg.ns_aggregate_per_byte *
                           static_cast<double>(total * cfg.particle_bytes)),
                   "agg");
      std::uint64_t sent = 0;
      do {
        const std::uint64_t n = std::min(chunk_particles, total - sent);
        const bool last = sent + n == total;
        const PartHeader h{last ? 2 : 0, step, dest,
                           static_cast<std::int32_t>(n)};
        if (cfg.real_data) {
          s_back.send_to(dest, h, slot.real_particles.data() + sent,
                         static_cast<std::size_t>(n));
        } else {
          s_back.send_modeled_to(
              dest, h, static_cast<std::size_t>(n) * cfg.particle_bytes);
        }
        sent += n;
      } while (sent < total);
    };
    s_out.on_receive([&](const decouple::Element<PartHeader>& el) {
      if (el.synthetic) return;
      const PartHeader& h = el.record;
      if (h.kind == 1) {
        // END from producer h.dest (==w): advance every destination it gates.
        const int producer = h.dest;
        for (const int dest : domain.cart.moore_neighbors(producer)) {
          auto& slot = slots[{h.step, dest}];
          const auto& gate = relevant_producers.at(dest);
          if (++slot.ends == static_cast<int>(gate.size())) {
            flush_dest(h.step, dest, slot);
            slots.erase({h.step, dest});
          }
        }
        return;
      }
      auto& slot = slots[{h.step, h.dest}];
      if (cfg.real_data && h.count > 0) {
        const auto n = static_cast<std::size_t>(h.count);
        auto& list = slot.real_particles;
        const std::size_t base = list.size();
        list.resize(base + n);
        std::memcpy(list.data() + base, el.payload, n * sizeof(Particle));
      } else {
        slot.count += static_cast<std::uint64_t>(h.count);
      }
    });
    s_out.operate();
  };

  pipeline.run(worker_program, helper_program);
}

}  // namespace

namespace {
PicResult run_pic_on(mpi::Machine& machine, ExchangeVariant variant,
                     const PicConfig& config) {
  const int size = machine.world_size();
  const int compute_ranks = compute_ranks_of(variant, config, size);
  const Domain domain = domain_of(compute_ranks);

  PicResult result;
  // Fair comparison (paper Sec. IV-A): same total workload and same total
  // process count; the decoupled variant spreads the same particles over
  // fewer compute ranks.
  const std::uint64_t total_particles =
      config.particles_per_rank * static_cast<std::uint64_t>(size);
  std::vector<std::vector<Particle>> particles;
  std::vector<std::uint64_t> counts(static_cast<std::size_t>(compute_ranks), 0);
  if (config.real_data) {
    particles = initialize_particles(domain, total_particles, config.seed);
    result.final_particles.resize(static_cast<std::size_t>(compute_ranks));
  } else {
    particles.resize(static_cast<std::size_t>(compute_ranks));
    counts = modeled_rank_counts(domain, total_particles);
  }
  std::vector<double> comm_time(static_cast<std::size_t>(compute_ranks), 0.0);

  stream::GroupPlan plan;
  if (variant == ExchangeVariant::Decoupled)
    plan = stream::GroupPlan::interleaved(machine.world(), config.stride);

  const auto program = [&](Rank& self) {
    if (variant == ExchangeVariant::Reference) {
      run_reference_program(self, config, domain, result, particles, counts,
                            comm_time);
    } else {
      run_decoupled_program(self, config, domain, plan, result, particles,
                            counts, comm_time);
    }
  };
  result.seconds = util::to_seconds(machine.run(program));
  result.comm_seconds = *std::max_element(comm_time.begin(), comm_time.end());
  for (const std::uint64_t c : counts) result.total_particles_end += c;
  return result;
}
}  // namespace

PicResult run_pic(ExchangeVariant variant, const PicConfig& config,
                  const mpi::MachineConfig& machine_config) {
  mpi::Machine machine(machine_config);
  return run_pic_on(machine, variant, config);
}

PicTraceResult run_pic_traced(ExchangeVariant variant, const PicConfig& config,
                              mpi::MachineConfig machine_config) {
  machine_config.observability = obs::ObsConfig::all();
  mpi::Machine machine(machine_config);
  PicTraceResult traced;
  traced.result = run_pic_on(machine, variant, config);
  if (auto* trace = machine.engine().trace()) {
    traced.ascii_trace = trace->to_ascii();
    traced.csv_trace = trace->to_csv();
    traced.chrome_trace = trace->to_chrome_json();
  }
  if (auto* metrics = machine.metrics()) traced.metrics_json = metrics->to_json();
  return traced;
}

}  // namespace ds::apps::pic
