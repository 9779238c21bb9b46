// perfbench: runs one workload of the repository benchmark and prints its
// metrics, ending with one JSON result line (see METRICS.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--root DIR] [--out DIR] [--describe STR]
//
// `python3 perfbench/run.py` builds this binary and supplies --root, --out
// and --describe.
#include <cstring>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "workloads.hpp"

namespace perfbench {

void set_end_to_end(Outcome& out, double setup_s,
                    const std::vector<double>& op_ms,
                    const std::vector<double>& alt_ms, double ops_per_s,
                    double rss_mb) {
  const Percentile tail = tail_percentile(op_ms);
  out.note("op_samples", static_cast<double>(op_ms.size()), "count");
  out.note("op_tail_rank", tail.q, "quantile",
           std::to_string(tail.beyond) + " samples beyond it");
  out.note("alt_samples", static_cast<double>(alt_ms.size()), "count");
  out.set("setup_s", setup_s, "s");
  out.set("op_p50_ms", median(op_ms), "ms");
  out.set("op_tail_ms", tail.value, "ms");
  out.set("ops_per_s", ops_per_s, "1/s");
  out.set("alt_p50_ms", median(alt_ms), "ms");
  out.set("peak_rss_mb", rss_mb, "MB");
}

}  // namespace perfbench

namespace {

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--root DIR] [--out DIR] [--describe STR]\n"
               "workloads:";
  for (const auto& w : perfbench::kWorkloads) std::cerr << " " << w.name;
  std::cerr << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
        have_seconds = args.seconds > 0;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        args.trace = value == "1";
        have_trace = true;
      } else if (flag == "--root") {
        args.root = value;
      } else if (flag == "--out") {
        args.out_dir = value;
      } else if (flag == "--describe") {
        args.describe = value;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace)
    return usage("--seed, --seconds (> 0) and --trace are required");

  const Workload* workload = nullptr;
  for (const auto& w : kWorkloads)
    if (args.workload == w.name) workload = &w;
  if (workload == nullptr) return usage("unknown workload");

  const std::string provenance =
      "{\"describe\": " + json_string(args.describe) +
      ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"workload\": " + json_string(workload->name) +
      ", \"lanes\": " + std::to_string(workload->lanes) +
      ", \"seed\": " + std::to_string(args.seed) +
      ", \"seconds\": " + json_number(args.seconds) +
      ", \"trace\": " + (args.trace ? "1" : "0") + "}";
  try {
    Outcome out;
    workload->run(args, workload->lanes, out);
    out.print(provenance);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << workload->name << " failed: " << e.what()
              << "\n";
    return 1;
  }
  return 0;
}
