#include "core/printer.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <string_view>

#include "core/fmt.hpp"
#include "helpers.hpp"

namespace ringstab {
namespace {

// Expanding the printed guarded commands must reproduce δ_r exactly — the
// printer is a lossless re-encoding, not a lossy summary.
class PrinterZooTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PrinterZooTest, GuardedCommandsAreExact) {
  const Protocol p = testing::protocol_zoo()[GetParam()];
  const auto& space = p.space();

  std::set<LocalTransition> expanded;
  for (const auto& act : to_guarded_commands(p)) {
    // Enumerate the cube.
    std::vector<std::size_t> idx(act.allowed.size(), 0);
    while (true) {
      std::vector<Value> vals(act.allowed.size());
      for (std::size_t i = 0; i < act.allowed.size(); ++i)
        vals[i] = act.allowed[i][idx[i]];
      const LocalStateId from = space.encode(vals);
      EXPECT_EQ(space.self(from), act.write_from);
      expanded.insert({from, space.with_self(from, act.write_to)});
      std::size_t i = 0;
      for (; i < act.allowed.size(); ++i) {
        if (++idx[i] < act.allowed[i].size()) break;
        idx[i] = 0;
      }
      if (i == act.allowed.size()) break;
    }
  }
  const std::set<LocalTransition> want(p.delta().begin(), p.delta().end());
  EXPECT_EQ(expanded, want) << p.name();
}

TEST_P(PrinterZooTest, DescribeMentionsNameAndCounts) {
  const Protocol p = testing::protocol_zoo()[GetParam()];
  const std::string text = describe(p);
  EXPECT_NE(text.find(p.name()), std::string::npos);
  EXPECT_NE(text.find(std::to_string(p.delta().size())), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(Zoo, PrinterZooTest,
                         ::testing::Range<std::size_t>(
                             0, testing::protocol_zoo().size()));

TEST(Printer, DescribeTransitionShowsWritePair) {
  const auto space = LocalStateSpace(Domain::range(2), {1, 0});
  const Protocol p("t", space,
                   {{space.encode(std::vector<Value>{1, 0}),
                     space.encode(std::vector<Value>{1, 1})}},
                   std::vector<bool>(4, true));
  const std::string s = describe_transition(p, p.delta()[0]);
  EXPECT_NE(s.find("0→1"), std::string::npos);
}

template <typename... Ts>
std::string streamed(const Ts&... parts) {
  std::ostringstream os;
  (os << ... << parts);
  return os.str();
}

// cat() appends strings, char and decimal integers without a stream and
// streams only calls with other argument types; either way its bytes must
// be a stream's. Value (an unsigned char) prints as a character and bool as
// 1/0, never as a number or a word.
TEST(Cat, MatchesAStream) {
  const std::string str = "state";
  const std::string_view view = "-> lls";
  const char* c_str = "c-string";
  const Value v = 'l';
  const std::int64_t i64_min = std::numeric_limits<std::int64_t>::min();
  const std::int64_t i64_max = std::numeric_limits<std::int64_t>::max();
  const std::size_t size_max = std::numeric_limits<std::size_t>::max();
  const int int_min = std::numeric_limits<int>::min();
  const short neg_short = -12;
  const unsigned zero = 0;
  const double real = 0.1 + 0.2;

  EXPECT_EQ(cat("literal"), streamed("literal"));
  EXPECT_EQ(cat(str), streamed(str));
  EXPECT_EQ(cat(view), streamed(view));
  EXPECT_EQ(cat(c_str), streamed(c_str));
  EXPECT_EQ(cat('x'), streamed('x'));
  EXPECT_EQ(cat(v), streamed(v));
  EXPECT_EQ(cat(true, false), streamed(true, false));
  EXPECT_EQ(cat(i64_min), streamed(i64_min));
  EXPECT_EQ(cat(i64_max), streamed(i64_max));
  EXPECT_EQ(cat(size_max), streamed(size_max));
  EXPECT_EQ(cat(int_min, neg_short, -1, zero), streamed(int_min, neg_short,
                                                         -1, zero));
  EXPECT_EQ(cat(real), streamed(real));
  // Every argument type the direct path appends, in one call.
  EXPECT_EQ(cat("at ", str, ' ', view, ": ", -7, "/", size_max, c_str),
            streamed("at ", str, ' ', view, ": ", -7, "/", size_max, c_str));
  // A call mixing direct types with streamed ones.
  EXPECT_EQ(cat("x[", -1, "]=", v, " ok=", true, " p=", real, ' ', i64_min),
            streamed("x[", -1, "]=", v, " ok=", true, " p=", real, ' ',
                     i64_min));

  EXPECT_EQ(cat(v), "l");
  EXPECT_EQ(cat(Value{2}), std::string(1, '\x02'));
  EXPECT_EQ(cat(true, false), "10");
  EXPECT_EQ(cat(i64_min), "-9223372036854775808");
  EXPECT_EQ(cat(size_max), "18446744073709551615");
  EXPECT_EQ(cat(real), "0.3");
}

}  // namespace
}  // namespace ringstab
