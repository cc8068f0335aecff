#include "util/cli.hpp"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <chrono>
#include <fstream>
#include <sstream>
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

// Usage errors exit 2 from parse() itself, like the getters' invalid
// values, so no caller can turn them into a successful exit.
TEST(CliParserDeathTest, UnknownOptionFails) {
  auto parser = make_parser();
  const std::array argv = {"prog", "--bogus", "1"};
  EXPECT_EXIT(parser.parse(static_cast<int>(argv.size()), argv.data()),
              testing::ExitedWithCode(2), "prog: unknown option --bogus");
}

TEST(CliParserDeathTest, MissingValueFails) {
  auto parser = make_parser();
  const std::array argv = {"prog", "--mtbf"};
  EXPECT_EXIT(parser.parse(static_cast<int>(argv.size()), argv.data()),
              testing::ExitedWithCode(2), "prog: option --mtbf needs a value");
}

TEST(CliParserDeathTest, FlagWithValueFails) {
  auto parser = make_parser();
  const std::array argv = {"prog", "--verbose=1"};
  EXPECT_EXIT(parser.parse(static_cast<int>(argv.size()), argv.data()),
              testing::ExitedWithCode(2), "prog: flag --verbose takes no value");
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

TEST(CliParserDeathTest, OptionLikeValueIsRejected) {
  // `--mtbf --trials 5` used to silently bind mtbf = "--trials".
  auto parser = make_parser();
  const std::array argv = {"prog", "--mtbf", "--protocol", "5"};
  EXPECT_EXIT(parser.parse(static_cast<int>(argv.size()), argv.data()),
              testing::ExitedWithCode(2),
              "option --mtbf needs a value \\(got '--protocol'");
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
  std::string out;
  std::string err;
};

/// Appends whatever `fd` (non-blocking) has ready to `sink`.
void drain(int fd, std::string& sink) {
  char buffer[4096];
  for (ssize_t got; (got = read(fd, buffer, sizeof buffer)) > 0;) {
    sink.append(buffer, static_cast<std::size_t>(got));
  }
}

/// Runs the dckpt CLI with `args` (stdin from /dev/null, stdout and
/// stderr captured), killing it once `limit` has passed.
ToolRun run_dckpt(std::vector<std::string> args,
                  std::chrono::milliseconds limit) {
  using clock = std::chrono::steady_clock;
  int out_pipe[2];
  int err_pipe[2];
  EXPECT_EQ(pipe(out_pipe), 0);
  EXPECT_EQ(pipe(err_pipe), 0);
  const auto start = clock::now();
  const pid_t pid = fork();
  if (pid == 0) {
    const int null_fd = open("/dev/null", O_RDWR);
    dup2(null_fd, STDIN_FILENO);
    dup2(out_pipe[1], STDOUT_FILENO);
    dup2(err_pipe[1], STDERR_FILENO);
    close(out_pipe[0]);
    close(err_pipe[0]);
    std::vector<char*> argv{const_cast<char*>(DCKPT_CLI_PATH)};
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    execv(DCKPT_CLI_PATH, argv.data());
    _exit(127);
  }
  close(out_pipe[1]);
  close(err_pipe[1]);
  fcntl(out_pipe[0], F_SETFL, O_NONBLOCK);
  fcntl(err_pipe[0], F_SETFL, O_NONBLOCK);
  ToolRun run;
  int status = 0;
  bool killed = false;
  while (waitpid(pid, &status, WNOHANG) == 0) {
    // Drain while waiting so a chatty tool never blocks on a full pipe.
    drain(out_pipe[0], run.out);
    drain(err_pipe[0], run.err);
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
  drain(out_pipe[0], run.out);
  drain(err_pipe[0], run.err);
  close(out_pipe[0]);
  close(err_pipe[0]);
  return run;
}

/// A hostile value must be rejected up front -- exit 2 with the usual
/// invalid-value message, well within a second -- instead of wrapping,
/// running with a silent default, or leaking a raw exception.
void expect_invalid_value(std::vector<std::string> args,
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
  expect_invalid_value({"simulate", "--trials", "-1"}, "trials", "-1");
}

TEST(DckptCountOptions, ChaosNegativeStepsExits2) {
  // Wrapped to 2^64 - 5 steps, the reference run would never finish.
  expect_invalid_value({"chaos", "--steps", "-5"}, "steps", "-5");
}

TEST(DckptCountOptions, ChaosNegativeDcpStackExits2) {
  // Wrapped, it would pass validation as a huge K and run a campaign.
  expect_invalid_value({"chaos", "--dcp-stack", "-3"}, "dcp-stack", "-3");
}

TEST(DckptCountOptions, ServeNegativeMaxTrialsExits2) {
  // Wrapped to 2^64 - 1, the limit would silently reject nothing.
  expect_invalid_value({"serve", "--max-trials", "-1"}, "max-trials", "-1");
}

TEST(DckptScenarioOptions, SimulateNegativeWeibullShapeExits2) {
  // Used to run exponential arrivals without a word.
  expect_invalid_value({"simulate", "--weibull-shape", "-2"}, "weibull-shape",
                       "-2");
}

TEST(DckptScenarioOptions, SimulateNanWeibullShapeExits2) {
  expect_invalid_value({"simulate", "--weibull-shape", "nan"},
                       "weibull-shape", "nan");
}

TEST(DckptScenarioOptions, SimulateNegativePeriodExits2) {
  // Used to fall back to the closed-form optimum.
  expect_invalid_value({"simulate", "--period", "-5"}, "period", "-5");
}

TEST(DckptScenarioOptions, SimulateNanPeriodExits2) {
  expect_invalid_value({"simulate", "--period", "nan"}, "period", "nan");
}

TEST(DckptScenarioOptions, SimulateNegativeNodesExits2) {
  // Used to fall back to the scenario's node count.
  expect_invalid_value({"simulate", "--nodes", "-5"}, "nodes", "-5");
}

TEST(DckptScenarioOptions, OptimizeNanSdcRateExits2) {
  expect_invalid_value({"optimize", "--sdc-rate", "nan"}, "sdc-rate", "nan");
}

TEST(DckptScenarioOptions, SweepTrailingGarbageMtbfExits2) {
  // Used to run at 3600.
  expect_invalid_value({"sweep", "--mtbfs", "3600x"}, "mtbfs", "3600x");
}

TEST(DckptScenarioOptions, SweepNanMtbfExits2) {
  expect_invalid_value({"sweep", "--mtbfs", "900,nan"}, "mtbfs", "900,nan");
}

TEST(DckptScenarioOptions, SweepNonNumericPhiRatioExits2) {
  // Used to exit 1 with a bare "stod".
  expect_invalid_value({"sweep", "--phi-ratios", "abc"}, "phi-ratios", "abc");
}

TEST(DckptScenarioOptions, SweepFractionalNodesExits2) {
  expect_invalid_value({"sweep", "--nodes", "12.5"}, "nodes", "12.5");
}

TEST(DckptServeOptions, PortBeyond32BitsExits2) {
  // Used to wrap to port 0 and serve on a random port.
  expect_invalid_value({"serve", "--port", "4294967296"}, "port",
                       "4294967296");
}

TEST(DckptServeOptions, PortAbove65535Exits2) {
  expect_invalid_value({"serve", "--port", "65536"}, "port", "65536");
}

TEST(DckptServeOptions, ZeroReadTimeoutExits2) {
  expect_invalid_value({"serve", "--read-timeout", "0"},
                       "read-timeout", "0");
}

TEST(DckptServeOptions, WriteTimeoutBeyondIntExits2) {
  expect_invalid_value({"serve", "--write-timeout", "2147483648"},
                       "write-timeout", "2147483648");
}

// Choice and list flags outside the scenario table follow the same rule:
// these used to print the error from an exception and exit 1.

TEST(DckptChoiceOptions, SimulateUnknownEngineExits2) {
  expect_invalid_value({"simulate", "--engine", "bogus"}, "engine", "bogus");
}

TEST(DckptChoiceOptions, SweepUnknownProtocolExits2) {
  expect_invalid_value({"sweep", "--protocols", "quadruple"}, "protocols",
                       "quadruple");
}

TEST(DckptChoiceOptions, SweepListWithOneUnknownProtocolExits2) {
  expect_invalid_value({"sweep", "--protocols", "triple,bogus"}, "protocols",
                       "triple,bogus");
}

TEST(DckptChoiceOptions, SparesUnknownProtocolExits2) {
  expect_invalid_value({"spares", "--protocol", "bogus"}, "protocol", "bogus");
}

TEST(DckptChoiceOptions, ChaosUnknownKernelExits2) {
  expect_invalid_value({"chaos", "--kernel", "bogus"}, "kernel", "bogus");
}

TEST(DckptChoiceOptions, ChaosUnknownTopologyExits2) {
  expect_invalid_value({"chaos", "--topology", "rings"}, "topology", "rings");
}

// ---------------------------------------------------- sweep node count

/// One small Weibull sweep point on the exa platform (10^6 nodes by
/// default); per-node arrival streams make the rows depend on the count.
std::string exa_sweep(std::vector<std::string> extra) {
  std::vector<std::string> args = {
      "sweep",         "--scenario",     "exa",  "--protocols",
      "triple",        "--mtbfs",        "3600", "--phi-ratios",
      "0.25",          "--trials",       "3",    "--tbase-mtbfs",
      "2",             "--weibull-shape", "0.7"};
  args.insert(args.end(), extra.begin(), extra.end());
  const ToolRun run = run_dckpt(std::move(args), std::chrono::seconds(5));
  EXPECT_EQ(run.exit_code, 0) << run.err;
  return run.out;
}

TEST(DckptSweep, CapsOnlyTheScenarioDefaultNodeCount) {
  // The exa default is capped for per-node bookkeeping; an explicit
  // --nodes runs as given, since the rows never show the count.
  const std::string capped = exa_sweep({"--nodes", "99996"});
  EXPECT_EQ(exa_sweep({}), capped);
  EXPECT_NE(exa_sweep({"--nodes", "199998"}), capped);
}

// ------------------------------------------------------ usage errors

TEST(DckptUsage, UnknownOptionExits2) {
  const ToolRun run = run_dckpt({"simulate", "--bogus"}, std::chrono::seconds(1));
  EXPECT_EQ(run.exit_code, 2) << run.err;
  EXPECT_NE(run.err.find("unknown option --bogus"), std::string::npos)
      << run.err;
}

TEST(DckptUsage, MissingValueExits2) {
  const ToolRun run = run_dckpt({"chaos", "--steps"}, std::chrono::seconds(1));
  EXPECT_EQ(run.exit_code, 2) << run.err;
  EXPECT_NE(run.err.find("option --steps needs a value"), std::string::npos)
      << run.err;
}

TEST(DckptUsage, HelpExits0) {
  const ToolRun run = run_dckpt({"simulate", "--help"}, std::chrono::seconds(1));
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_TRUE(run.err.empty()) << run.err;
}

// ------------------------------------------------------ dckpt --help

std::string read_golden(const std::string& name) {
  std::ifstream in(std::string(DCKPT_GOLDEN_DIR) + "/" + name);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// The Monte-Carlo commands' option lists are part of the CLI contract:
/// names, defaults and help text stay byte-identical.
void expect_help_matches_golden(const std::string& command) {
  const ToolRun run = run_dckpt({command, "--help"}, std::chrono::seconds(5));
  EXPECT_EQ(run.exit_code, 0) << run.err;
  const std::string golden = read_golden("cli_help_" + command + ".txt");
  ASSERT_FALSE(golden.empty()) << "missing golden cli_help_" << command;
  EXPECT_EQ(run.out, golden);
}

TEST(DckptHelp, SimulateHelpIsStable) { expect_help_matches_golden("simulate"); }

TEST(DckptHelp, SweepHelpIsStable) { expect_help_matches_golden("sweep"); }

TEST(DckptHelp, OptimizeHelpIsStable) { expect_help_matches_golden("optimize"); }

}  // namespace
