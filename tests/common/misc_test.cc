// Tests for check.h, sim_time.h, logging.h, table.h, and the property
// suites' seed parsing (tests/support/property.h).
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/logging.h"
#include "common/sim_time.h"
#include "common/table.h"
#include "support/property.h"

namespace specsync {
namespace {

// --- check ------------------------------------------------------------------

TEST(CheckTest, PassingCheckDoesNothing) {
  EXPECT_NO_THROW(SPECSYNC_CHECK(1 + 1 == 2));
}

TEST(CheckTest, FailingCheckThrowsWithMessage) {
  try {
    SPECSYNC_CHECK(false) << "custom context " << 42;
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("custom context 42"), std::string::npos);
    EXPECT_NE(what.find("false"), std::string::npos);
  }
}

TEST(CheckTest, ComparisonMacros) {
  EXPECT_NO_THROW(SPECSYNC_CHECK_EQ(3, 3));
  EXPECT_THROW(SPECSYNC_CHECK_EQ(3, 4), CheckError);
  EXPECT_THROW(SPECSYNC_CHECK_LT(4, 4), CheckError);
  EXPECT_NO_THROW(SPECSYNC_CHECK_LE(4, 4));
  EXPECT_THROW(SPECSYNC_CHECK_GT(1, 2), CheckError);
  EXPECT_NO_THROW(SPECSYNC_CHECK_GE(2, 2));
  EXPECT_NO_THROW(SPECSYNC_CHECK_NE(1, 2));
}

// --- sim_time ---------------------------------------------------------------

TEST(SimTimeTest, DurationArithmetic) {
  const Duration a = Duration::Seconds(2.0);
  const Duration b = Duration::Milliseconds(500.0);
  EXPECT_DOUBLE_EQ((a + b).seconds(), 2.5);
  EXPECT_DOUBLE_EQ((a - b).seconds(), 1.5);
  EXPECT_DOUBLE_EQ((a * 3.0).seconds(), 6.0);
  EXPECT_DOUBLE_EQ((3.0 * a).seconds(), 6.0);
  EXPECT_DOUBLE_EQ((a / 4.0).seconds(), 0.5);
  EXPECT_DOUBLE_EQ(a / b, 4.0);
  EXPECT_DOUBLE_EQ((-a).seconds(), -2.0);
}

TEST(SimTimeTest, DurationComparison) {
  EXPECT_LT(Duration::Seconds(1.0), Duration::Seconds(2.0));
  EXPECT_EQ(Duration::Milliseconds(1000.0), Duration::Seconds(1.0));
  EXPECT_GT(Duration::Infinite(), Duration::Seconds(1e12));
  EXPECT_FALSE(Duration::Infinite().is_finite());
  EXPECT_TRUE(Duration::Zero().is_finite());
}

TEST(SimTimeTest, TimePlusDuration) {
  const SimTime t = SimTime::FromSeconds(10.0);
  EXPECT_DOUBLE_EQ((t + Duration::Seconds(5.0)).seconds(), 15.0);
  EXPECT_DOUBLE_EQ((t - Duration::Seconds(3.0)).seconds(), 7.0);
  EXPECT_DOUBLE_EQ((t - SimTime::FromSeconds(4.0)).seconds(), 6.0);
}

TEST(SimTimeTest, Microseconds) {
  EXPECT_DOUBLE_EQ(Duration::Microseconds(1e6).seconds(), 1.0);
}

TEST(SimTimeTest, Streaming) {
  std::ostringstream os;
  os << Duration::Seconds(1.5) << " " << SimTime::FromSeconds(2.0);
  EXPECT_EQ(os.str(), "1.5s t=2s");
}

// --- logging ----------------------------------------------------------------

TEST(LoggingTest, SinkReceivesMessagesAtOrAboveLevel) {
  std::vector<std::pair<LogLevel, std::string>> captured;
  Logger::Get().set_sink([&](LogLevel level, const std::string& msg) {
    captured.emplace_back(level, msg);
  });
  Logger::Get().set_min_level(LogLevel::kWarning);

  SPECSYNC_LOG(kInfo) << "hidden";
  SPECSYNC_LOG(kWarning) << "visible " << 1;
  SPECSYNC_LOG(kError) << "also visible";

  ASSERT_EQ(captured.size(), 2u);
  EXPECT_EQ(captured[0].second, "visible 1");
  EXPECT_EQ(captured[1].first, LogLevel::kError);

  Logger::Get().set_sink(nullptr);
  Logger::Get().set_min_level(LogLevel::kInfo);
}

TEST(LoggingTest, LevelNames) {
  EXPECT_STREQ(LogLevelName(LogLevel::kDebug), "DEBUG");
  EXPECT_STREQ(LogLevelName(LogLevel::kError), "ERROR");
}

TEST(LoggingTest, LogEveryNEmitsFirstAndEveryNth) {
  std::vector<std::string> captured;
  Logger::Get().set_sink([&](LogLevel, const std::string& msg) {
    captured.push_back(msg);
  });
  Logger::Get().set_min_level(LogLevel::kWarning);

  for (int i = 0; i < 10; ++i) {
    SPECSYNC_LOG_EVERY_N(kWarning, 4) << "occurrence " << i;
  }

  // Emitted at occurrences 0, 4, 8 of this call site.
  ASSERT_EQ(captured.size(), 3u);
  EXPECT_EQ(captured[0], "occurrence 0");
  EXPECT_EQ(captured[1], "occurrence 4");
  EXPECT_EQ(captured[2], "occurrence 8");

  Logger::Get().set_sink(nullptr);
  Logger::Get().set_min_level(LogLevel::kInfo);
}

TEST(LoggingTest, LogEveryNCountsPerCallSite) {
  std::vector<std::string> captured;
  Logger::Get().set_sink([&](LogLevel, const std::string& msg) {
    captured.push_back(msg);
  });
  Logger::Get().set_min_level(LogLevel::kWarning);

  for (int i = 0; i < 3; ++i) {
    SPECSYNC_LOG_EVERY_N(kWarning, 100) << "site A";
    SPECSYNC_LOG_EVERY_N(kWarning, 100) << "site B";
  }

  // Each site emits its own first occurrence independently.
  ASSERT_EQ(captured.size(), 2u);
  EXPECT_EQ(captured[0], "site A");
  EXPECT_EQ(captured[1], "site B");

  Logger::Get().set_sink(nullptr);
  Logger::Get().set_min_level(LogLevel::kInfo);
}

TEST(LoggingTest, LogEveryNSkipsArgumentEvaluationWhenSuppressed) {
  Logger::Get().set_sink([](LogLevel, const std::string&) {});
  Logger::Get().set_min_level(LogLevel::kWarning);
  int evaluations = 0;
  const auto expensive = [&] {
    ++evaluations;
    return 42;
  };
  for (int i = 0; i < 6; ++i) {
    SPECSYNC_LOG_EVERY_N(kWarning, 3) << "value " << expensive();
  }
  // Only the emitted occurrences (0 and 3) paid for the argument.
  EXPECT_EQ(evaluations, 2);
  Logger::Get().set_sink(nullptr);
  Logger::Get().set_min_level(LogLevel::kInfo);
}

TEST(LoggingTest, DisabledLevelNeverEvaluatesOperands) {
  std::vector<std::string> captured;
  Logger::Get().set_sink([&](LogLevel, const std::string& msg) {
    captured.push_back(msg);
  });
  Logger::Get().set_min_level(LogLevel::kInfo);
  int evaluations = 0;
  const auto expensive = [&] {
    ++evaluations;
    return 7;
  };
  SPECSYNC_LOG(kDebug) << "debug " << expensive();
  EXPECT_EQ(evaluations, 0);
  EXPECT_TRUE(captured.empty());

  SPECSYNC_LOG(kInfo) << "info " << expensive();
  EXPECT_EQ(evaluations, 1);
  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0], "info 7");

  // Lowering the level enables the same line.
  Logger::Get().set_min_level(LogLevel::kDebug);
  SPECSYNC_LOG(kDebug) << "debug " << expensive();
  EXPECT_EQ(evaluations, 2);
  ASSERT_EQ(captured.size(), 2u);
  EXPECT_EQ(captured[1], "debug 7");

  Logger::Get().set_sink(nullptr);
  Logger::Get().set_min_level(LogLevel::kInfo);
}

// --- table ------------------------------------------------------------------

TEST(TableTest, RowWidthMismatchThrows) {
  Table table({"a", "b"});
  EXPECT_THROW(table.AddRow({"1"}), CheckError);
}

TEST(TableTest, PrettyContainsHeadersAndCells) {
  Table table({"scheme", "speedup"});
  table.AddRowValues("ASP", 1.0);
  table.AddRowValues("SpecSync", 2.5);
  std::ostringstream os;
  table.PrintPretty(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("scheme"), std::string::npos);
  EXPECT_NE(out.find("SpecSync"), std::string::npos);
  EXPECT_NE(out.find("2.500"), std::string::npos);
}

TEST(TableTest, CsvEscaping) {
  Table table({"name", "note"});
  table.AddRow({"a,b", "say \"hi\""});
  std::ostringstream os;
  table.PrintCsv(os);
  EXPECT_EQ(os.str(), "name,note\n\"a,b\",\"say \"\"hi\"\"\"\n");
}

TEST(TableTest, NumberFormatting) {
  EXPECT_EQ(Table::Format(0.0), "0");
  EXPECT_EQ(Table::Format(2.0), "2.000");
  EXPECT_EQ(Table::Format(0.5), "0.5000");
  EXPECT_EQ(Table::Format(12), "12");
  // Very large/small go scientific.
  EXPECT_NE(Table::Format(1.0e9).find("e"), std::string::npos);
  EXPECT_NE(Table::Format(1.0e-9).find("e"), std::string::npos);
}

TEST(TableTest, RowAccess) {
  Table table({"x"});
  table.AddRow({"v"});
  EXPECT_EQ(table.row_count(), 1u);
  EXPECT_EQ(table.row(0)[0], "v");
  EXPECT_THROW(table.row(1), CheckError);
}

// --- property seed ----------------------------------------------------------

TEST(PropertySeedTest, ParsesTheVariableAndRejectsGarbageByName) {
  const char* outer = std::getenv("SPECSYNC_PROPERTY_SEED");
  const std::optional<std::string> saved =
      outer != nullptr ? std::optional<std::string>(outer) : std::nullopt;

  ::unsetenv("SPECSYNC_PROPERTY_SEED");
  EXPECT_EQ(PropertySeed(7), 7u);
  ::setenv("SPECSYNC_PROPERTY_SEED", "20260808999", 1);
  EXPECT_EQ(PropertySeed(7), 20260808999u);
  for (const char* bad :
       {"abc", "", "12x", "-1", " 5", "99999999999999999999"}) {
    ::setenv("SPECSYNC_PROPERTY_SEED", bad, 1);
    try {
      PropertySeed(7);
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("'" + std::string(bad) + "'"),
                std::string::npos)
          << e.what();
    }
  }

  if (saved.has_value()) {
    ::setenv("SPECSYNC_PROPERTY_SEED", saved->c_str(), 1);
  } else {
    ::unsetenv("SPECSYNC_PROPERTY_SEED");
  }
}

}  // namespace
}  // namespace specsync
