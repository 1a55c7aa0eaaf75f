// Driver of the repo benchmark. perfbench/run.py starts one process per
// measurement, so each process's peak RSS belongs to exactly one of them:
//
//   perfbench info
//   perfbench setup   --procs P --seed S --reps K
//   perfbench prepare --workload W --seed S [--procs P]
//   perfbench variant --workload W --which reference|decoupled --seed S
//                     [--procs P] [--crash-at-ns T]
//   perfbench check   --workload W --seed S [--perturb]
//   perfbench layers  --procs P --seed S
//
// Each subcommand prints one JSON object on stdout. Errors go to stderr
// with exit code 2.
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common.hpp"

namespace {

using namespace perfbench;

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

struct Args {
  std::string command;
  std::string workload;
  std::string which;
  std::uint64_t seed = 42;
  int procs = 0;
  int reps = 1;
  long long crash_at_ns = 0;
  bool perturb = false;
};

Args parse_args(int argc, char** argv) {
  if (argc < 2)
    throw std::invalid_argument(
        "usage: perfbench info|setup|prepare|variant|check|layers [flags]");
  Args args;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--perturb") {
      args.perturb = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--which") args.which = value;
    else if (flag == "--seed") args.seed = std::stoull(value);
    else if (flag == "--procs") args.procs = std::stoi(value);
    else if (flag == "--reps") args.reps = std::stoi(value);
    else if (flag == "--crash-at-ns") args.crash_at_ns = std::stoll(value);
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (args.reps < 1) throw std::invalid_argument("--reps must be at least 1");
  return args;
}

/// World size: --procs when given, else the workload's.
int procs_of(const Args& args) {
  if (args.procs > 0) return args.procs;
  if (args.workload.empty())
    throw std::invalid_argument(args.command + " needs --procs or --workload");
  return default_procs(parse_workload(args.workload));
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i)
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string model(brand);
  const auto first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
#else
  return "unknown";
#endif
}

double cache_kib(int name) {
  const long bytes = sysconf(name);
  return bytes > 0 ? static_cast<double>(bytes) / 1024.0 : 0.0;
}

Json run_command(const Args& args) {
  Json out;
  if (args.command == "info") {
    out.str("compiler", __VERSION__)
        .str("build_type", PERFBENCH_BUILD_TYPE)
        .boolean("optimized", kOptimized)
        .str("cpu_model", cpu_model())
        .num("l1d_kib", cache_kib(_SC_LEVEL1_DCACHE_SIZE))
        .num("l2_kib", cache_kib(_SC_LEVEL2_CACHE_SIZE))
        .num("l3_kib", cache_kib(_SC_LEVEL3_CACHE_SIZE))
        .boolean("observability_default",
                 ds::mpi::MachineConfig{}.observability.any());
  } else if (args.command == "setup") {
    const int procs = procs_of(args);
    const double rss_before = peak_rss_mb();
    std::vector<double> total, channel;
    for (int i = 0; i < args.reps; ++i) {
      const SetupRun run = run_setup(procs, args.seed);
      total.push_back(run.total_s);
      channel.push_back(run.channel_s);
    }
    out.nums("setup_s", total)
        .nums("channel_setup_s", channel)
        .num("rss_growth_mb", peak_rss_mb() - rss_before);
  } else if (args.command == "prepare") {
    if (parse_workload(args.workload) != Workload::PicIoResilient)
      throw std::invalid_argument("prepare applies to pic_io_resilient_2k only");
    const VariantRun run = run_fault_free_io(procs_of(args), args.seed);
    out.num("vt_s", run.vt_s)
        .num("file_bytes", static_cast<double>(run.file_bytes))
        .num("crash_at_ns",
             static_cast<double>(ds::util::from_seconds(run.vt_s / 3.0)));
  } else if (args.command == "variant") {
    if (args.which != "reference" && args.which != "decoupled")
      throw std::invalid_argument("--which must be reference or decoupled");
    const VariantRun run =
        run_variant(parse_workload(args.workload), args.which == "decoupled",
                    procs_of(args), args.seed, args.crash_at_ns);
    out.num("host_s", run.host_s)
        .num("cpu_s", run.cpu_s)
        .num("peak_rss_mb", peak_rss_mb())
        .num("vt_s", run.vt_s)
        .num("file_bytes", static_cast<double>(run.file_bytes))
        .checks("invariants", run.invariants);
  } else if (args.command == "check") {
    out.checks("checks", run_oracle_checks(parse_workload(args.workload),
                                           args.seed, args.perturb));
  } else if (args.command == "layers") {
    const LayerReport report = run_layers(procs_of(args), args.seed);
    std::string metrics = "{";
    for (const auto& [name, value] : report.metrics) {
      if (metrics.size() > 1) metrics += ',';
      metrics += json_string(name) + ':' + json_number(value);
    }
    std::string spans = "[";
    for (const auto& [name, begin, end] : report.spans) {
      if (spans.size() > 1) spans += ',';
      spans += '[' + json_string(name) + ',' + json_number(begin) + ',' +
               json_number(end) + ']';
    }
    out.raw("metrics", metrics + '}').raw("spans", spans + ']');
  } else {
    throw std::invalid_argument("unknown subcommand " + args.command);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Json out = run_command(parse_args(argc, argv));
    std::printf("%s\n", out.text().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
