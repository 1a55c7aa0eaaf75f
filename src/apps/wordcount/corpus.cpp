#include "apps/wordcount/corpus.hpp"

#include <cmath>

namespace ds::apps::wordcount {

Corpus::Corpus(CorpusParams params, int map_tasks)
    : params_(params), zipf_(params.sample_vocabulary, params.zipf_exponent) {
  util::Rng rng = util::Rng::for_stream(params_.seed, 0xF11E5);
  const int files = map_tasks * params_.files_per_rank;
  file_bytes_.reserve(static_cast<std::size_t>(files));
  for (int f = 0; f < files; ++f) {
    const auto size = static_cast<std::uint64_t>(
        rng.uniform_int(static_cast<std::int64_t>(params_.min_file_bytes),
                        static_cast<std::int64_t>(params_.max_file_bytes)));
    file_bytes_.push_back(size);
    total_bytes_ += size;
  }
}

std::vector<int> Corpus::files_of(int owner, int owners) const {
  std::vector<int> mine;
  for (int f = owner; f < file_count(); f += owners) mine.push_back(f);
  return mine;
}

std::uint64_t Corpus::bytes_of(int owner, int owners) const {
  std::uint64_t sum = 0;
  for (int f = owner; f < file_count(); f += owners)
    sum += file_bytes_[static_cast<std::size_t>(f)];
  return sum;
}

std::size_t Corpus::distinct_words(std::uint64_t bytes) const noexcept {
  if (bytes == 0) return 0;
  const double v =
      params_.heaps_k * std::pow(static_cast<double>(bytes), params_.heaps_beta);
  return static_cast<std::size_t>(v) + 1;
}

void Corpus::sample_block(int file, int block, std::uint64_t words,
                          std::vector<std::uint64_t>& histogram) const {
  histogram.resize(params_.sample_vocabulary, 0);
  util::Rng rng = util::Rng::for_stream(
      params_.seed ^ 0xB10C5ull,
      static_cast<std::uint64_t>(file) * 1'000'003ull +
          static_cast<std::uint64_t>(block));
  for (std::uint64_t w = 0; w < words; ++w) ++histogram[zipf_.sample(rng)];
}

}  // namespace ds::apps::wordcount
