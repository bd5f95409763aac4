// bench/paper end to end, at the smoke shape (DUFP_REPS=1 DUFP_SOCKETS=1).
//
// The golden (tests/bench/golden) pins every byte the driver prints on
// stdout, and every file it writes by name, size and FNV-1a digest.  It
// was generated from the fifteen per-figure mains the driver replaced,
// their stdout concatenated in section order, so it also pins that the
// move changed no output.  Each run gets a fresh working directory and a
// relative DUFP_OUT_DIR, so the paths the driver prints are stable.  To
// regenerate after an intentional output change: DUFP_UPDATE_GOLDEN=1
// ctest -R PaperDriverTest, then review the diff.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "common/string_util.h"

extern char** environ;

namespace dufp {
namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out << bytes;
}

struct PaperRun {
  int exit_code = -1;
  std::string out;  ///< stdout
  std::string err;  ///< stderr
  fs::path dir;     ///< the working directory
};

/// Runs `paper ARGS` in a fresh working directory named after the test,
/// with the smoke shape as the only DUFP_* knobs set.
PaperRun run_paper(const std::string& args) {
  const bool update = std::getenv("DUFP_UPDATE_GOLDEN") != nullptr;
  std::vector<std::string> knobs;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string_view kv = *e;
    if (kv.substr(0, 5) == "DUFP_") {
      knobs.emplace_back(kv.substr(0, kv.find('=')));
    }
  }
  for (const std::string& k : knobs) unsetenv(k.c_str());
  setenv("DUFP_REPS", "1", 1);
  setenv("DUFP_SOCKETS", "1", 1);
  setenv("DUFP_QUIET", "1", 1);
  setenv("DUFP_OUT_DIR", "out", 1);
  if (update) setenv("DUFP_UPDATE_GOLDEN", "1", 1);

  PaperRun run;
  run.dir = fs::path(DUFP_PAPER_WORK_DIR) /
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
  fs::remove_all(run.dir);
  fs::create_directories(run.dir);
  const std::string cmd = "cd '" + run.dir.string() + "' && '" +
                          DUFP_PAPER_BIN + "' " + args +
                          " > stdout.txt 2> stderr.txt";
  const int status = std::system(cmd.c_str());
  if (WIFEXITED(status)) run.exit_code = WEXITSTATUS(status);
  run.out = read_file(run.dir / "stdout.txt");
  run.err = read_file(run.dir / "stderr.txt");
  return run;
}

/// One line per file under `root`, sorted by path: "path size fnv1a".
std::string manifest(const fs::path& root) {
  std::vector<std::string> lines;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    const std::string bytes = read_file(entry.path());
    const auto digest = static_cast<unsigned long long>(json::fnv1a(bytes));
    lines.push_back(strf("%s %zu %016llx",
                         fs::relative(entry.path(), root).string().c_str(),
                         bytes.size(), digest));
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  return out;
}

void expect_golden(const std::string& name, const std::string& actual) {
  const fs::path path = fs::path(DUFP_BENCH_GOLDEN_DIR) / name;
  if (std::getenv("DUFP_UPDATE_GOLDEN") != nullptr) {
    write_file(path, actual);
    GTEST_SKIP() << "golden updated: " << path;
  }
  ASSERT_TRUE(fs::exists(path)) << "missing golden " << path;
  EXPECT_EQ(actual, read_file(path)) << "differs from golden " << path;
}

TEST(PaperDriverTest, EverySectionMatchesGolden) {
  const PaperRun run = run_paper("");
  ASSERT_EQ(run.exit_code, 0) << run.err;
  expect_golden("paper_smoke_stdout.txt", run.out);
  expect_golden("paper_smoke_files.txt", manifest(run.dir / "out"));
}

TEST(PaperDriverTest, NamedSectionsRunOnceInTableOrder) {
  const PaperRun run = run_paper("fig1c table1 fig1c");
  ASSERT_EQ(run.exit_code, 0) << run.err;
  const std::size_t table1 = run.out.find("Table I: ");
  const std::size_t fig1c = run.out.find("Fig. 1c: ");
  ASSERT_NE(table1, std::string::npos);
  ASSERT_NE(fig1c, std::string::npos);
  EXPECT_LT(table1, fig1c);
  EXPECT_EQ(run.out.find("Fig. 1c: ", fig1c + 1), std::string::npos);
  EXPECT_EQ(run.out.find("Fig. 1a: "), std::string::npos);
}

TEST(PaperDriverTest, UnknownSectionExitsTwoAndListsTheKnownNames) {
  const PaperRun run = run_paper("table1 fig9");
  EXPECT_EQ(run.exit_code, 2);
  EXPECT_EQ(run.out, "");  // nothing runs before every name is known
  EXPECT_NE(run.err.find("\"fig9\""), std::string::npos) << run.err;
  for (const char* name : {"table1", "fig3a", "fig5", "baseline_dnpc",
                           "fault_storm"}) {
    EXPECT_NE(run.err.find(name), std::string::npos) << run.err;
  }
}

}  // namespace
}  // namespace dufp
