// Figure 9 (repo extension): termination-message scaling for Directed
// channels.
//
// The seed library broadcast a term message from every producer to every
// consumer under the Directed mapping — O(P*C) messages, and
// O(C) serialized sends on each terminating producer. The aggregated tree
// protocol sends one term per producer to an aggregator consumer, which
// fans the collective term down a binary tree: O(P + C) messages total,
// one send per producer, and an O(log C) critical path.
//
// This bench sweeps the consumer count for P = 1 and P = C/4 producers,
// counts the actual term messages sent by every rank, and reports the tree
// depth. It asserts the scaling claim (producer terms independent of C,
// aggregation path logarithmic in C) and exits nonzero on violation, so CI
// smoke runs track the trend per PR. Alongside the table it writes
// fig9_termination.json (override the path with DS_BENCH_JSON) for
// artifact upload.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "core/channel.hpp"
#include "core/stream.hpp"
#include "mpi/rank.hpp"

namespace {

using namespace ds;

struct TermCounts {
  std::uint64_t producer_terms = 0;      ///< sum over producers
  std::uint64_t max_producer_terms = 0;  ///< worst single producer
  std::uint64_t consumer_terms = 0;      ///< tree fan-out, sum over consumers
  std::uint64_t max_consumer_terms = 0;  ///< worst single consumer
  std::uint64_t consumed = 0;            ///< data elements delivered
  int tree_depth = 0;
};

/// Run one Directed channel of `producers` x `consumers`; every producer
/// sends `elements` directed elements, then terminates. Returns the term
/// message counters observed on every rank.
TermCounts run_shape(int producers, int consumers, int elements) {
  TermCounts counts;
  const int world = producers + consumers;
  mpi::MachineConfig config;
  config.world_size = world;
  config.engine.stack_bytes = 64 * 1024;
  mpi::Machine machine(config);
  machine.run([&](mpi::Rank& self) {
    const int me = self.world_rank();
    const bool producer = me < producers;
    stream::ChannelConfig cfg;
    cfg.mapping = stream::ChannelConfig::Mapping::Directed;
    const stream::Channel ch =
        stream::Channel::create(self, self.world(), producer, !producer, cfg);
    stream::Stream s = stream::Stream::attach(ch, mpi::Datatype::bytes(64), {});
    if (producer) {
      for (int i = 0; i < elements; ++i)
        s.isend_to(self, (me + i) % consumers, mpi::SendBuf::synthetic(64));
      s.terminate(self);
      const std::uint64_t terms = s.stats().term_messages;
      counts.producer_terms += terms;
      counts.max_producer_terms = std::max(counts.max_producer_terms, terms);
    } else {
      counts.consumed += s.operate(self);
      const std::uint64_t terms = s.stats().term_messages;
      counts.consumer_terms += terms;
      counts.max_consumer_terms = std::max(counts.max_consumer_terms, terms);
      counts.tree_depth = ch.term_tree_depth();
    }
  });
  return counts;
}

[[nodiscard]] int log2_ceil(int n) {
  int bits = 0;
  while ((1 << bits) < n) ++bits;
  return bits;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = util::BenchOptions::parse(argc, argv);
  bench::print_header(
      "Fig. 9 — Directed termination scaling",
      "term messages vs consumer count: per-producer broadcast O(P*C) vs "
      "aggregated tree O(P + C), critical path O(log C)", opt);

  util::Table table({"consumers", "producers", "terms_total", "terms_legacy",
                     "max_per_producer", "max_per_consumer", "tree_depth",
                     "depth_bound"});
  std::string json = "{\"bench\":\"fig9_termination\",\"series\":[";
  bool ok = true;
  bool first = true;

  const int max_consumers = opt.fast ? 256 : 1024;
  constexpr int kElementsPerProducer = 4;
  for (int consumers = 4; consumers <= max_consumers; consumers *= 4) {
    for (const int producers : {1, std::max(1, consumers / 4)}) {
      const TermCounts counts =
          run_shape(producers, consumers, kElementsPerProducer);
      const std::uint64_t total = counts.producer_terms + counts.consumer_terms;
      const auto legacy = static_cast<std::uint64_t>(producers) *
                          static_cast<std::uint64_t>(consumers);
      const int depth_bound = log2_ceil(consumers + 1);

      // The scaling claims this bench exists to guard:
      //  * a terminating producer sends exactly one term, however many
      //    consumers the channel has (the seed sent C);
      //  * the fan-out tree keeps every consumer's share constant (<= 2)
      //    and the aggregation path logarithmic in C;
      //  * no element is lost to the protocol change.
      ok &= counts.max_producer_terms == 1;
      ok &= counts.max_consumer_terms <= 2;
      ok &= counts.tree_depth <= depth_bound;
      ok &= counts.consumed == static_cast<std::uint64_t>(producers) *
                                   static_cast<std::uint64_t>(kElementsPerProducer);

      table.add_row({std::to_string(consumers), std::to_string(producers),
                     std::to_string(total), std::to_string(legacy),
                     std::to_string(counts.max_producer_terms),
                     std::to_string(counts.max_consumer_terms),
                     std::to_string(counts.tree_depth),
                     std::to_string(depth_bound)});
      char entry[256];
      std::snprintf(entry, sizeof entry,
                    "%s{\"consumers\":%d,\"producers\":%d,\"terms_total\":%llu,"
                    "\"terms_legacy\":%llu,\"max_per_producer\":%llu,"
                    "\"max_per_consumer\":%llu,\"tree_depth\":%d}",
                    first ? "" : ",", consumers, producers,
                    static_cast<unsigned long long>(total),
                    static_cast<unsigned long long>(legacy),
                    static_cast<unsigned long long>(counts.max_producer_terms),
                    static_cast<unsigned long long>(counts.max_consumer_terms),
                    counts.tree_depth);
      json += entry;
      first = false;
    }
    std::printf("  consumers=%d done\n", consumers);
  }
  json += "]}\n";

  bench::print_table(table);

  const std::string json_path =
      util::env_string("DS_BENCH_JSON", "fig9_termination.json");
  if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("\nJSON written to %s\n", json_path.c_str());
  } else {
    std::printf("\nWARNING: could not write %s\n", json_path.c_str());
    ok = false;
  }

  std::printf("termination scaling check: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
