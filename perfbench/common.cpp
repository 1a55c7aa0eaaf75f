#include "common.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

Workload parse_workload(const std::string& name) {
  if (name == "mapreduce_2k") return Workload::MapReduce;
  if (name == "pic_exchange_1k") return Workload::PicExchange;
  if (name == "cg_halo_2k") return Workload::CgHalo;
  if (name == "pic_io_resilient_2k") return Workload::PicIoResilient;
  throw std::invalid_argument("unknown workload '" + name + "'");
}

int default_procs(Workload workload) {
  return workload == Workload::PicExchange ? 1024 : 2048;
}

ds::mpi::MachineConfig beskow_like(int procs, std::uint64_t seed) {
  ds::mpi::MachineConfig config;
  config.world_size = procs;
  config.network = ds::net::NetworkConfig::aries_like();
  config.engine.noise = ds::sim::NoiseConfig::production_node();
  config.engine.seed = seed;
  config.filesystem.num_servers = std::max(16, procs / 8);
  return config;
}

ds::apps::pic::PicConfig pic_exchange_config(std::uint64_t seed) {
  ds::apps::pic::PicConfig config;
  config.particles_per_rank = 250'000;
  config.steps = 8;
  config.stride = kStride;
  config.ns_mover_per_particle = 400.0;
  config.relaxed_arrival = true;
  config.seed = seed;
  return config;
}

double wall_s() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

void HostWindow::begin() {
  if (open_) return;
  open_ = true;
  first_ = wall_s();
}

void HostWindow::end() { last_ = wall_s(); }

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + '"';
}

void Json::key(const std::string& name) {
  if (!body_.empty()) body_ += ',';
  body_ += json_string(name);
  body_ += ':';
}

Json& Json::num(const std::string& key_name, double value) {
  key(key_name);
  body_ += json_number(value);
  return *this;
}

Json& Json::str(const std::string& key_name, const std::string& value) {
  key(key_name);
  body_ += json_string(value);
  return *this;
}

Json& Json::boolean(const std::string& key_name, bool value) {
  key(key_name);
  body_ += value ? "true" : "false";
  return *this;
}

Json& Json::nums(const std::string& key_name, const std::vector<double>& values) {
  key(key_name);
  body_ += '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) body_ += ',';
    body_ += json_number(values[i]);
  }
  body_ += ']';
  return *this;
}

Json& Json::checks(const std::string& key_name, const Checks& checks) {
  key(key_name);
  body_ += '[';
  for (std::size_t i = 0; i < checks.size(); ++i) {
    if (i > 0) body_ += ',';
    body_ += '[' + json_string(checks[i].first) + ',' +
             (checks[i].second ? "true" : "false") + ']';
  }
  body_ += ']';
  return *this;
}

Json& Json::raw(const std::string& key_name, const std::string& json) {
  key(key_name);
  body_ += json;
  return *this;
}

}  // namespace perfbench
