// perfbench: the lrpdb benchmark binary. Runs one workload in a closed
// loop and prints its report, ending with the one-line JSON result.
//
//   perfbench --workload <closed_form_eval|live_updates|durable_ingest>
//             --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//             [--metrics-json <file>]
//
// Exit code 0 only when every operation succeeded and every output check
// passed.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "perfbench/harness.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <closed_form_eval|live_updates|"
               "durable_ingest> --seed <n> --seconds <s> --trace <0|1> "
               "[--work-dir <dir>] [--metrics-json <file>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--metrics-json") {
      options.metrics_json = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || options.seconds <= 0) return Usage();

  perfbench::Results results;
  if (options.workload == "closed_form_eval") {
    perfbench::RunClosedFormEval(options, &results);
  } else if (options.workload == "live_updates") {
    perfbench::RunLiveUpdates(options, &results);
  } else if (options.workload == "durable_ingest") {
    perfbench::RunDurableIngest(options, &results);
  } else {
    return Usage();
  }
  return perfbench::PrintReport(options, results);
}
