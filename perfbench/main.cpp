// The repository benchmark driver: one workload per invocation, in a fresh
// process, printing one JSON object as its last stdout line.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1 [--tiny]
//
// Run it from the repository root (lab_campaign reads BENCH_lab.json there).
// --trace 0 measures the end-to-end metrics (set-up, wall, throughput, job
// latency, peak memory); --trace 1 runs an untraced reference and then the
// traced run that times every layer from outside, and reports the per-layer
// metrics.  --tiny shrinks every workload to seconds for the self-test.
// run.py builds this binary, runs it, and completes its output against
// BENCHMARK.json.

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"

extern char** environ;

namespace {

using namespace perfbench;

/// Spawn-to-ready of one fresh `--setup-probe` process: exec, static
/// initialisation and the workload's set-up, as a user of the binary pays it.
double probe_setup_ms(const Options& o) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&fa, fds[0]);
  posix_spawn_file_actions_addclose(&fa, fds[1]);
  const std::string seed = std::to_string(o.seed);
  std::vector<std::string> args = {"perfbench", "--setup-probe", "--workload",
                                   o.workload, "--seed", seed};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const auto t0 = Clock::now();
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, "/proc/self/exe", &fa, nullptr, argv.data(),
                             environ);
  posix_spawn_file_actions_destroy(&fa);
  close(fds[1]);
  if (rc != 0) {
    close(fds[0]);
    throw std::runtime_error(std::string("posix_spawn: ") + std::strerror(rc));
  }
  char c = 0;
  bool ready = false;
  while (read(fds[0], &c, 1) == 1)
    if (c == '\n') {
      ready = true;
      break;
    }
  const double ms = ms_since(t0);
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!ready || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error("set-up probe failed");
  return ms;
}

/// Append `count` set-up probes to `ms`.
void probe_setup(const Options& o, int count, std::vector<double>& ms) {
  for (int i = 0; i < count; ++i) ms.push_back(probe_setup_ms(o));
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload sparse_large|dense_reliable|"
               "lab_campaign|serve_mix --seed N --seconds S --trace 0|1 "
               "[--tiny]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  bool probe = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--setup-probe") {
      probe = true;
    } else if (a == "--tiny") {
      o.tiny = true;
    } else if (a == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      o.trace = std::string(argv[++i]) == "1";
    } else {
      return usage();
    }
  }

  try {
    if (probe) {
      setup_only(o, [] {
        std::fputs("ready\n", stdout);
        std::fflush(stdout);
      });
      return 0;
    }
    Result (*run)(const Options&) = nullptr;
    if (o.workload == "sparse_large") run = run_sparse_large;
    if (o.workload == "dense_reliable") run = run_dense_reliable;
    if (o.workload == "lab_campaign") run = run_lab_campaign;
    if (o.workload == "serve_mix") run = run_serve_mix;
    if (run == nullptr || o.seconds <= 0) return usage();

    // setup_s: the median of probes taken before and after the workload, so
    // that it samples the host over the whole run, not one instant.
    const int probes = o.trace ? 0 : o.tiny ? 2 : 11;
    std::vector<double> setup_ms;
    probe_setup(o, probes, setup_ms);
    // This process's own lazy set-up, kept out of every timed phase.
    protocols();
    families();
    Result r = run(o);
    probe_setup(o, probes, setup_ms);
    if (!o.trace) r.add("setup_s", median(setup_ms) / 1000.0, "s");
    for (const std::string& f : r.failures)
      std::fprintf(stderr, "FAIL: %s\n", f.c_str());
    std::printf("%s\n", r.json().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
