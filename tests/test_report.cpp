#include "report/report.hpp"

#include <gtest/gtest.h>

#include "helpers.hpp"
#include "protocols/arrays.hpp"
#include "protocols/matching.hpp"
#include "protocols/sum_not_two.hpp"

namespace ringstab {
namespace {

TEST(Report, ConvergingProtocolReportsCertification) {
  ReportOptions opts;
  opts.sim_trials = 50;
  opts.max_ring = 5;
  const std::string md =
      markdown_report(protocols::sum_not_two_solution(), opts);
  EXPECT_NE(md.find("# ringstab report: sum_not_two_ss"), std::string::npos);
  EXPECT_NE(md.find("strongly converges to I for every ring size"),
            std::string::npos);
  EXPECT_NE(md.find("Locally certified closed"), std::string::npos);
  EXPECT_NE(md.find("converged 50/50"), std::string::npos);
  EXPECT_EQ(md.find("over budget"), std::string::npos);
}

TEST(Report, BrokenProtocolReportsWitnesses) {
  ReportOptions opts;
  opts.sim_trials = 0;
  opts.max_ring = 6;
  const std::string md =
      markdown_report(protocols::matching_nongeneralizable(), opts);
  EXPECT_NE(md.find("Bad cycles in the deadlock RCG"), std::string::npos);
  EXPECT_NE(md.find("lls"), std::string::npos);
  EXPECT_NE(md.find("Deadlocked ring sizes"), std::string::npos);
}

TEST(Report, TrailRealizationIsIncluded) {
  ReportOptions opts;
  opts.sim_trials = 0;
  opts.max_ring = 4;
  const std::string md =
      markdown_report(protocols::sum_not_two_rotation(true), opts);
  EXPECT_NE(md.find("Witness trail"), std::string::npos);
  EXPECT_NE(md.find("Trail realization"), std::string::npos);
}

TEST(Report, ArrayModeUsesArrayAnalysis) {
  ReportOptions opts;
  opts.array_topology = true;
  opts.max_ring = 6;
  const std::string md =
      markdown_report(protocols::array_two_coloring(), opts);
  EXPECT_NE(md.find("Array analysis"), std::string::npos);
  EXPECT_NE(md.find("Deadlock-free outside I for every array length"),
            std::string::npos);
  EXPECT_NE(md.find("guaranteed under every schedule"), std::string::npos);
}

TEST(Report, EveryZooProtocolProducesAReport) {
  ReportOptions opts;
  opts.sim_trials = 0;
  opts.max_ring = 4;
  for (const auto& p : testing::protocol_zoo()) {
    const std::string md = markdown_report(p, opts);
    EXPECT_NE(md.find(p.name()), std::string::npos);
    EXPECT_NE(md.find("## Local analysis"), std::string::npos) << p.name();
  }
}

TEST(Report, IdenticalAtEveryThreadCount) {
  // The thread count is execution advice: with the wall-clock table off,
  // the exhaustive and simulated-recovery sections read the same bytes.
  ReportOptions opts;
  opts.max_ring = 5;
  opts.section_timings = false;
  const Protocol p = protocols::sum_not_two_solution();
  opts.num_threads = 1;
  const std::string serial = markdown_report(p, opts);
  opts.num_threads = 4;
  EXPECT_EQ(markdown_report(p, opts), serial);
  EXPECT_NE(serial.find("## Simulated recovery"), std::string::npos);
}

}  // namespace
}  // namespace ringstab
