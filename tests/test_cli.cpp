#include "util/cli.hpp"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

namespace {

using dckpt::util::CliParser;

CliParser make_parser() {
  CliParser parser("prog", "test program");
  parser.add_option("mtbf", "3600", "platform MTBF in seconds");
  parser.add_option("protocol", "triple", "protocol name");
  parser.add_flag("verbose", "chatty output");
  return parser;
}

TEST(CliParserTest, DefaultsApply) {
  auto parser = make_parser();
  const std::array argv = {"prog"};
  ASSERT_TRUE(parser.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(parser.get("mtbf"), "3600");
  EXPECT_DOUBLE_EQ(parser.get_double("mtbf"), 3600.0);
  EXPECT_EQ(parser.get_int("mtbf"), 3600);
  EXPECT_FALSE(parser.get_flag("verbose"));
}

TEST(CliParserTest, SpaceSeparatedValue) {
  auto parser = make_parser();
  const std::array argv = {"prog", "--mtbf", "60"};
  ASSERT_TRUE(parser.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(parser.get_int("mtbf"), 60);
}

TEST(CliParserTest, EqualsSeparatedValue) {
  auto parser = make_parser();
  const std::array argv = {"prog", "--protocol=doublenbl"};
  ASSERT_TRUE(parser.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(parser.get("protocol"), "doublenbl");
}

TEST(CliParserTest, FlagPresence) {
  auto parser = make_parser();
  const std::array argv = {"prog", "--verbose"};
  ASSERT_TRUE(parser.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_TRUE(parser.get_flag("verbose"));
}

TEST(CliParserTest, PositionalArguments) {
  auto parser = make_parser();
  const std::array argv = {"prog", "pos1", "--mtbf", "10", "pos2"};
  ASSERT_TRUE(parser.parse(static_cast<int>(argv.size()), argv.data()));
  ASSERT_EQ(parser.positional().size(), 2u);
  EXPECT_EQ(parser.positional()[0], "pos1");
  EXPECT_EQ(parser.positional()[1], "pos2");
}

TEST(CliParserTest, UnknownOptionFails) {
  auto parser = make_parser();
  const std::array argv = {"prog", "--bogus", "1"};
  EXPECT_FALSE(parser.parse(static_cast<int>(argv.size()), argv.data()));
}

TEST(CliParserTest, MissingValueFails) {
  auto parser = make_parser();
  const std::array argv = {"prog", "--mtbf"};
  EXPECT_FALSE(parser.parse(static_cast<int>(argv.size()), argv.data()));
}

TEST(CliParserTest, FlagWithValueFails) {
  auto parser = make_parser();
  const std::array argv = {"prog", "--verbose=1"};
  EXPECT_FALSE(parser.parse(static_cast<int>(argv.size()), argv.data()));
}

TEST(CliParserTest, HelpReturnsFalse) {
  auto parser = make_parser();
  const std::array argv = {"prog", "--help"};
  EXPECT_FALSE(parser.parse(static_cast<int>(argv.size()), argv.data()));
}

TEST(CliParserTest, UndeclaredGetThrows) {
  auto parser = make_parser();
  const std::array argv = {"prog"};
  ASSERT_TRUE(parser.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_THROW(parser.get("nope"), std::invalid_argument);
}

TEST(CliParserTest, OptionLikeValueIsRejected) {
  // `--mtbf --trials 5` used to silently bind mtbf = "--trials".
  auto parser = make_parser();
  const std::array argv = {"prog", "--mtbf", "--protocol", "5"};
  EXPECT_FALSE(parser.parse(static_cast<int>(argv.size()), argv.data()));
}

TEST(CliParserTest, OptionLikeValueAllowedViaEquals) {
  auto parser = make_parser();
  const std::array argv = {"prog", "--protocol=--weird"};
  ASSERT_TRUE(parser.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(parser.get("protocol"), "--weird");
}

TEST(CliParserTest, NegativeNumberValuesStillParse) {
  auto parser = make_parser();
  const std::array argv = {"prog", "--mtbf", "-5"};
  ASSERT_TRUE(parser.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(parser.get_int("mtbf"), -5);
}

TEST(CliParserDeathTest, InvalidDoubleReportsAndExits) {
  auto parser = make_parser();
  const std::array argv = {"prog", "--mtbf", "abc"};
  ASSERT_TRUE(parser.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EXIT(parser.get_double("mtbf"), testing::ExitedWithCode(2),
              "prog: option --mtbf: invalid value 'abc'");
}

TEST(CliParserDeathTest, TrailingGarbageReportsAndExits) {
  auto parser = make_parser();
  const std::array argv = {"prog", "--mtbf", "12x"};
  ASSERT_TRUE(parser.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EXIT(parser.get_double("mtbf"), testing::ExitedWithCode(2),
              "invalid value '12x'");
  EXPECT_EXIT(parser.get_int("mtbf"), testing::ExitedWithCode(2),
              "invalid value '12x'");
}

TEST(CliParserDeathTest, OutOfRangeReportsAndExits) {
  auto parser = make_parser();
  const std::array argv = {"prog", "--mtbf", "1e999"};
  ASSERT_TRUE(parser.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EXIT(parser.get_double("mtbf"), testing::ExitedWithCode(2),
              "invalid value '1e999'");
}

TEST(CliParserDeathTest, FractionalIntReportsAndExits) {
  auto parser = make_parser();
  const std::array argv = {"prog", "--mtbf", "12.5"};
  ASSERT_TRUE(parser.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EXIT(parser.get_int("mtbf"), testing::ExitedWithCode(2),
              "invalid value '12.5'");
}

TEST(CliParserTest, CountAcceptsNonNegativeIntegers) {
  auto parser = make_parser();
  const std::array argv = {"prog", "--mtbf", "0"};
  ASSERT_TRUE(parser.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(parser.get_count("mtbf"), 0u);
}

TEST(CliParserDeathTest, NegativeCountReportsAndExits) {
  auto parser = make_parser();
  const std::array argv = {"prog", "--mtbf", "-1"};
  ASSERT_TRUE(parser.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EXIT(parser.get_count("mtbf"), testing::ExitedWithCode(2),
              "prog: option --mtbf: invalid value '-1'");
}

TEST(CliParserTest, UsageListsOptions) {
  auto parser = make_parser();
  const std::string usage = parser.usage();
  EXPECT_NE(usage.find("--mtbf"), std::string::npos);
  EXPECT_NE(usage.find("--verbose"), std::string::npos);
  EXPECT_NE(usage.find("--help"), std::string::npos);
}

// ------------------------------------------------ dckpt count options

struct ToolRun {
  int exit_code = -1;  ///< -1 when the tool had to be killed
  std::chrono::duration<double> elapsed{};
  std::string err;
};

/// Runs the dckpt CLI with `args` (stdin from /dev/null, stdout
/// discarded, stderr captured), killing it once `limit` has passed.
ToolRun run_dckpt(std::vector<std::string> args,
                  std::chrono::milliseconds limit) {
  using clock = std::chrono::steady_clock;
  int err_pipe[2];
  EXPECT_EQ(pipe(err_pipe), 0);
  const auto start = clock::now();
  const pid_t pid = fork();
  if (pid == 0) {
    const int null_fd = open("/dev/null", O_RDWR);
    dup2(null_fd, STDIN_FILENO);
    dup2(null_fd, STDOUT_FILENO);
    dup2(err_pipe[1], STDERR_FILENO);
    close(err_pipe[0]);
    std::vector<char*> argv{const_cast<char*>(DCKPT_CLI_PATH)};
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    execv(DCKPT_CLI_PATH, argv.data());
    _exit(127);
  }
  close(err_pipe[1]);
  ToolRun run;
  int status = 0;
  bool killed = false;
  while (waitpid(pid, &status, WNOHANG) == 0) {
    if (clock::now() - start > limit) {
      kill(pid, SIGKILL);
      waitpid(pid, &status, 0);
      killed = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  run.elapsed = clock::now() - start;
  if (!killed && WIFEXITED(status)) run.exit_code = WEXITSTATUS(status);
  char buffer[4096];
  for (ssize_t got; (got = read(err_pipe[0], buffer, sizeof buffer)) > 0;) {
    run.err.append(buffer, static_cast<std::size_t>(got));
  }
  close(err_pipe[0]);
  return run;
}

/// A negative count must be rejected up front -- exit 2 with the usual
/// invalid-value message, well within a second -- instead of wrapping to a
/// huge unsigned value.
void expect_count_rejected(std::vector<std::string> args,
                           const std::string& option,
                           const std::string& value) {
  const ToolRun run = run_dckpt(std::move(args), std::chrono::seconds(1));
  EXPECT_EQ(run.exit_code, 2) << run.err;
  EXPECT_LT(run.elapsed.count(), 1.0);
  EXPECT_NE(run.err.find("option --" + option + ": invalid value '" + value +
                         "'"),
            std::string::npos)
      << run.err;
}

TEST(DckptCountOptions, SimulateNegativeTrialsExits2) {
  // Wrapped to 2^64 - 1 trials, the campaign would never finish.
  expect_count_rejected({"simulate", "--trials", "-1"}, "trials", "-1");
}

TEST(DckptCountOptions, ChaosNegativeStepsExits2) {
  // Wrapped to 2^64 - 5 steps, the reference run would never finish.
  expect_count_rejected({"chaos", "--steps", "-5"}, "steps", "-5");
}

TEST(DckptCountOptions, ChaosNegativeDcpStackExits2) {
  // Wrapped, it would pass validation as a huge K and run a campaign.
  expect_count_rejected({"chaos", "--dcp-stack", "-3"}, "dcp-stack", "-3");
}

TEST(DckptCountOptions, ServeNegativeMaxTrialsExits2) {
  // Wrapped to 2^64 - 1, the limit would silently reject nothing.
  expect_count_rejected({"serve", "--max-trials", "-1"}, "max-trials", "-1");
}

}  // namespace
