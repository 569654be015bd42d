// wsr_perfbench: the benchmark's measuring binary. perfbench/run.py builds
// it, runs the subcommands and prints the final report.
//
//   wsr_perfbench sweep --workload=sweep_wafer|sweep_fabric --seed=N
//                 --seconds=S --jobs=J [--trace] [--cells-out=FILE]
//   wsr_perfbench serve-prepare --seed=N --store=DIR
//   wsr_perfbench serve-load --seed=N --store=DIR --socket=PATH --conns=C
//                 --rate=R --seconds=S --replay-seconds=S --max-entries=M
//                 --ladder-seconds=S --limit-ms=L --daemon-pid=PID
//   wsr_perfbench serve-trace --seed=N --store=DIR --rate=R --seconds=S
//                 --max-entries=M
//
// Every flag shown without brackets is required, and a subcommand refuses
// flags it does not take. Every subcommand prints one JSON object on its
// last stdout line and exits non-zero when an output check failed.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "perfbench.hpp"

namespace {

double number(const std::string& text, const std::string& arg) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0' || !(v >= 0)) {
    std::fprintf(stderr, "wsr_perfbench: bad value in %s\n", arg.c_str());
    std::exit(2);
  }
  return v;
}

/// The flags each subcommand requires. `sweep` also takes --trace and
/// --cells-out.
const std::map<std::string, std::vector<std::string>> kRequired = {
    {"sweep", {"workload", "seed", "seconds", "jobs"}},
    {"serve-prepare", {"seed", "store"}},
    {"serve-load", {"seed", "store", "socket", "conns", "rate", "seconds",
                    "replay-seconds", "max-entries", "ladder-seconds", "limit-ms",
                    "daemon-pid"}},
    {"serve-trace", {"seed", "store", "rate", "seconds", "max-entries"}},
};

}  // namespace

int main(int argc, char** argv) {
  const auto required = argc < 2 ? kRequired.end() : kRequired.find(argv[1]);
  if (required == kRequired.end()) {
    std::fprintf(stderr, "usage: wsr_perfbench sweep|serve-prepare|serve-load|"
                         "serve-trace --flag=value ...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  const std::vector<std::string>& needs = required->second;
  perfbench::SweepArgs sw;
  perfbench::ServeArgs sv;
  std::set<std::string> given;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    const std::size_t eq = a.find('=');
    const std::string name = a.rfind("--", 0) == 0 ? a.substr(2, eq - 2) : "";
    const std::string v = eq == std::string::npos ? "" : a.substr(eq + 1);
    const bool takes = std::find(needs.begin(), needs.end(), name) != needs.end() ||
                       (cmd == "sweep" && (name == "trace" || name == "cells-out"));
    if (!takes || (name == "trace") != (eq == std::string::npos)) {
      std::fprintf(stderr, "wsr_perfbench %s: unexpected argument %s\n", cmd.c_str(),
                   a.c_str());
      return 2;
    }
    given.insert(name);
    if (name == "trace") {
      sw.trace = true;
    } else if (name == "workload") {
      sw.workload = v;
    } else if (name == "seed") {
      sw.seed = sv.seed = static_cast<perfbench::u64>(number(v, a));
    } else if (name == "seconds") {
      sw.seconds = sv.seconds = number(v, a);
    } else if (name == "jobs") {
      sw.jobs = static_cast<perfbench::u32>(number(v, a));
    } else if (name == "cells-out") {
      sw.cells_out = v;
    } else if (name == "store") {
      sv.store = v;
    } else if (name == "socket") {
      sv.socket = v;
    } else if (name == "daemon-pid") {
      sv.daemon_pid = static_cast<long>(number(v, a));
    } else if (name == "conns") {
      sv.conns = static_cast<perfbench::u32>(number(v, a));
    } else if (name == "max-entries") {
      sv.max_entries = static_cast<perfbench::u32>(number(v, a));
    } else if (name == "rate") {
      sv.rate = number(v, a);
    } else if (name == "ladder-seconds") {
      sv.ladder_seconds = number(v, a);
    } else if (name == "replay-seconds") {
      sv.replay_seconds = number(v, a);
    } else if (name == "limit-ms") {
      sv.limit_ms = number(v, a);
    }
  }
  for (const std::string& name : needs) {
    if (!given.count(name)) {
      std::fprintf(stderr, "wsr_perfbench %s: --%s is required\n", cmd.c_str(),
                   name.c_str());
      return 2;
    }
  }
  if (cmd == "sweep") {
    if (sw.workload != "sweep_wafer" && sw.workload != "sweep_fabric") {
      std::fprintf(stderr, "wsr_perfbench: --workload must be sweep_wafer or "
                           "sweep_fabric\n");
      return 2;
    }
    if (sw.jobs == 0) {
      std::fprintf(stderr, "wsr_perfbench: --jobs must be at least 1\n");
      return 2;
    }
    return perfbench::run_sweep(sw);
  }
  if (cmd == "serve-prepare") return perfbench::serve_prepare(sv);
  if (cmd == "serve-load") return perfbench::serve_load(sv);
  return perfbench::serve_trace(sv);
}
