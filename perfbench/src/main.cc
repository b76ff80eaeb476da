// km_perfbench: the repository's end-to-end benchmark.
//
//   km_perfbench --workload <wire_warm|cold_stream> --seed <n>
//                --seconds <s> --trace <0|1> [--out <dir>]
//
// With --trace 0 it prints the end-to-end metrics, with --trace 1 the
// per-layer metrics; the last stdout line is one JSON object with the keys
// correct, attempted, failed and metrics. Exit code 0 when every answer
// matched its reference, 1 when one did not, 2 on a set-up failure (no
// result line). perfbench/run.py builds this binary and runs it; see
// perfbench/README.md for the workloads and metrics.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace kmb {

void CheckDigest(const RunArgs& args, uint64_t digest, Report* report) {
  const std::string path = args.out_dir + "/digest-" + args.workload + "-" +
                           std::to_string(args.seed) + ".txt";
  const std::string mine = std::to_string(digest);
  report->Note("answer_digest=" + mine);
  std::ifstream in(path);
  std::string earlier;
  if (in >> earlier) {
    if (earlier != mine) {
      report->AddFailed(1);
      report->Mismatch("answer digest " + mine + " differs from an earlier run's " +
                       earlier);
    }
    return;
  }
  std::ofstream(path, std::ios::trunc) << mine << "\n";
}

}  // namespace kmb

int main(int argc, char** argv) {
  kmb::RunArgs args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value != "0";
    } else if (flag == "--out") {
      args.out_dir = value;
    } else {
      kmb::Die("unknown flag " + flag);
    }
  }
  if (argc % 2 == 0) kmb::Die("flags come in --name value pairs");
  if (!(args.seconds > 0)) kmb::Die("--seconds must be positive");
  std::filesystem::create_directories(args.out_dir);

  kmb::Report report;
  const double probe_before_ms = kmb::HostProbeMs();
  if (args.workload == "wire_warm") {
    kmb::RunWireWarm(args, &report);
  } else if (args.workload == "cold_stream") {
    kmb::RunColdStream(args, &report);
  } else {
    kmb::Die("unknown workload '" + args.workload + "'");
  }
  if (report.attempted() == 0) kmb::Die("no operation was attempted");
  report.Note("host_probe_ms before=" + kmb::Num(probe_before_ms) +
              " after=" + kmb::Num(kmb::HostProbeMs()));
  report.Print();
  return report.correct() ? 0 : 1;
}
