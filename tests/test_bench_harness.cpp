#include "common/harness.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

namespace planetp::bench {
namespace {

/// A baseline file in the working directory, named after the running test
/// (ctest runs the cases in parallel), removed on destruction.
class BaselineFile {
 public:
  explicit BaselineFile(const std::string& contents)
      : path_(std::string("harness_") +
              testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
              std::to_string(next_++) + ".json") {
    std::ofstream(path_) << contents;
  }
  ~BaselineFile() { std::remove(path_.c_str()); }
  BaselineFile(const BaselineFile&) = delete;
  BaselineFile& operator=(const BaselineFile&) = delete;

  const std::string& path() const { return path_; }

 private:
  static inline int next_ = 0;
  std::string path_;
};

Args with_baseline(const std::string& path) {
  Args args;
  args.baseline_path = path;
  return args;
}

int check_floor(double measured, const std::string& baseline) {
  const BaselineFile file(baseline);
  Report report("t", with_baseline(file.path()));
  report.floor("qps", measured);
  return report.check_baseline();
}

int check_ceiling(double measured, const std::string& baseline) {
  const BaselineFile file(baseline);
  Report report("t", with_baseline(file.path()));
  report.ceiling("bytes", measured);
  return report.check_baseline();
}

TEST(BenchHarness, FloorPassesAtHalfAndFailsJustBelow) {
  EXPECT_EQ(check_floor(50.0, R"({"qps": 100})"), 0);
  EXPECT_EQ(check_floor(1e9, R"({"qps": 100})"), 0);
  EXPECT_NE(check_floor(49.999, R"({"qps": 100})"), 0);
}

TEST(BenchHarness, CeilingPassesAtTwiceAndFailsJustAbove) {
  EXPECT_EQ(check_ceiling(200.0, R"({"bytes": 100})"), 0);
  EXPECT_EQ(check_ceiling(0.0, R"({"bytes": 100})"), 0);
  EXPECT_NE(check_ceiling(200.001, R"({"bytes": 100})"), 0);
}

TEST(BenchHarness, UnusableBaselineValueFails) {
  EXPECT_NE(check_floor(50.0, R"({"other": 100})"), 0);
  EXPECT_NE(check_floor(50.0, R"({"qps": "fast"})"), 0);
  EXPECT_NE(check_floor(50.0, R"({"qps": null})"), 0);
  EXPECT_NE(check_floor(50.0, R"({"qps": 0})"), 0);
  EXPECT_NE(check_floor(50.0, R"({"qps": -3})"), 0);
  EXPECT_NE(check_ceiling(50.0, R"({"bytes": 0})"), 0);
}

TEST(BenchHarness, KeyInsideAStringValueIsNotTheKey) {
  EXPECT_NE(check_floor(50.0, R"({"note": "qps", "other": 100})"), 0);
  EXPECT_EQ(check_floor(50.0, R"({"note": "qps", "qps": 100})"), 0);
}

TEST(BenchHarness, UnreadableBaselineFails) {
  Report report("t", with_baseline("harness_no_such_baseline.json"));
  report.floor("qps", 1.0);
  EXPECT_NE(report.check_baseline(), 0);
}

TEST(BenchHarness, NoBaselineChecksNothing) {
  Report report("t", Args{});
  report.floor("qps", 0.0);
  EXPECT_EQ(report.check_baseline(), 0);
}

TEST(BenchHarness, InRunFailureFailsTheRun) {
  Report report("t", Args{});
  EXPECT_FALSE(report.failed());
  report.fail("gate %d missed", 1);
  EXPECT_TRUE(report.failed());
}

std::optional<Args> parse(std::vector<const char*> argv, std::string* error) {
  argv.insert(argv.begin(), "bench");
  return parse_args(static_cast<int>(argv.size()), argv.data(), {"--lazy-smoke"}, error);
}

TEST(BenchHarness, ParsesQuickBaselineAndNamedFlags) {
  std::string error;
  const std::optional<Args> args = parse({"--quick", "--baseline", "b.json", "--lazy-smoke"},
                                         &error);
  ASSERT_TRUE(args.has_value()) << error;
  EXPECT_TRUE(args->quick);
  EXPECT_EQ(args->baseline_path, "b.json");
  EXPECT_TRUE(args->has("--lazy-smoke"));

  const std::optional<Args> plain = parse({}, &error);
  ASSERT_TRUE(plain.has_value());
  EXPECT_FALSE(plain->quick);
  EXPECT_TRUE(plain->baseline_path.empty());
  EXPECT_FALSE(plain->has("--lazy-smoke"));
}

TEST(BenchHarness, RejectsBaselineWithoutPathAndUnknownFlags) {
  std::string error;
  EXPECT_FALSE(parse({"--quick", "--baseline"}, &error).has_value());
  EXPECT_NE(error.find("--baseline"), std::string::npos);
  error.clear();
  EXPECT_FALSE(parse({"--qiuck"}, &error).has_value());
  EXPECT_NE(error.find("--qiuck"), std::string::npos);
  EXPECT_FALSE(parse({"extra"}, &error).has_value());
}

TEST(BenchHarnessDeathTest, BadArgumentsExitWithUsage) {
  const char* argv[] = {"bench", "--baseline"};
  EXPECT_EXIT(parse_args_or_exit("bench", 2, argv), testing::ExitedWithCode(2), "usage: bench");
}

TEST(BenchHarness, JsonHoldsHeaderAndEveryDeclaredKey) {
  Args args;
  args.quick = true;
  Report report("demo", args);
  report.raw("results", "[1, 2]");
  report.floor("warm_qps_1000", 1234.5);
  report.ceiling("hybrid_bytes_per_round_5000", 3196.25);
  report.value("count", std::uint64_t{1611568});
  const std::string json = report.json();
  EXPECT_NE(json.find("\"bench\": \"demo\""), std::string::npos);
  EXPECT_NE(json.find("\"quick\": true"), std::string::npos);
  EXPECT_NE(json.find("\"hardware_threads\": " + std::to_string(hardware_threads())),
            std::string::npos);
  EXPECT_NE(json.find("\"results\": [1, 2]"), std::string::npos);
  EXPECT_NE(json.find("\"warm_qps_1000\": 1234.5"), std::string::npos);
  EXPECT_NE(json.find("\"hybrid_bytes_per_round_5000\": 3196.25"), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1611568"), std::string::npos);

  // The report reads back as its own baseline: every gate holds exactly.
  const BaselineFile file(json);
  Report again("demo", with_baseline(file.path()));
  again.floor("warm_qps_1000", 1234.5);
  again.ceiling("hybrid_bytes_per_round_5000", 3196.25);
  EXPECT_EQ(again.check_baseline(), 0);
}

}  // namespace
}  // namespace planetp::bench
