// LCRS end-to-end benchmark driver.
//
//   lcrs_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads: ar_lenet_open, edge_alexnet_closed, edge_two_model_swap
// (perfbench/README.md says why each exists and what it measures). The
// last stdout line is the JSON result; the line before it holds the host
// and generator facts. Exits nonzero on a bad argument, on any reply that
// differs from the offline oracle, or on any error.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "bench.h"
#include "common/logging.h"

namespace {

bool parse_args(int argc, char** argv, perfbench::Args* out) {
  bool seed = false, seconds = false, trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* rest = nullptr;
    if (key == "--workload") {
      out->workload = value;
    } else if (key == "--seed") {
      out->seed = std::strtoull(value.c_str(), &rest, 10);
      seed = *rest == '\0' && !value.empty();
    } else if (key == "--seconds") {
      out->seconds = std::strtod(value.c_str(), &rest);
      seconds = *rest == '\0' && out->seconds >= 1.0 && out->seconds <= 600.0;
    } else if (key == "--trace") {
      trace = value == "0" || value == "1";
      out->trace = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !out->workload.empty() && seed && seconds && trace;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!parse_args(argc, argv, &args)) {
    std::cerr << "usage: " << argv[0]
              << " --workload <name> --seed <n> --seconds <s> --trace <0|1>\n";
    return 2;
  }
  // Client fallbacks log through LCRS_WARN on stdout; they are counted
  // as failed ops instead.
  lcrs::set_log_level(lcrs::LogLevel::kError);
  try {
    if (args.workload == "ar_lenet_open") {
      return perfbench::run_ar_lenet_open(args);
    }
    if (args.workload == "edge_alexnet_closed") {
      return perfbench::run_edge_alexnet_closed(args);
    }
    if (args.workload == "edge_two_model_swap") {
      return perfbench::run_edge_two_model_swap(args);
    }
    std::cerr << "unknown workload: " << args.workload << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
