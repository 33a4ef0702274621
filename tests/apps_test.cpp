// Executable-level end-to-end test: launches the real brisk_ism, brisk_exs
// and brisk_consume binaries (the deployment a user runs), attaches to the
// EXS's named shared-memory region as "the application", and verifies
// records flow NOTICE → ring → EXS process → TCP → ISM process → named
// output shm → consumer process.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/time_util.hpp"
#include "core/brisk_node.hpp"
#include "shm/shared_region.hpp"

#ifndef BRISK_APPS_DIR
#error "BRISK_APPS_DIR must be defined by the build"
#endif

namespace brisk {
namespace {

using sensors::x_i32;

struct ChildProcess {
  pid_t pid = -1;
  int stdout_fd = -1;

  void terminate_and_wait() {
    if (pid <= 0) return;
    ::kill(pid, SIGTERM);
    int status = 0;
    ::waitpid(pid, &status, 0);
    pid = -1;
    if (stdout_fd >= 0) {
      ::close(stdout_fd);
      stdout_fd = -1;
    }
  }
};

/// Spawns `binary args...` with stdout captured in a pipe.
ChildProcess spawn(const std::string& binary, std::vector<std::string> args) {
  int pipe_fds[2];
  EXPECT_EQ(::pipe(pipe_fds), 0);
  ChildProcess child;
  child.pid = ::fork();
  if (child.pid == 0) {
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    std::vector<char*> argv;
    static std::string bin_storage;
    bin_storage = binary;
    argv.push_back(bin_storage.data());
    for (auto& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    ::execv(binary.c_str(), argv.data());
    _exit(127);
  }
  ::close(pipe_fds[1]);
  child.stdout_fd = pipe_fds[0];
  return child;
}

/// Reads the child's stdout until `marker` appears (or timeout); returns
/// everything read so far.
std::string read_until(ChildProcess& child, const std::string& marker,
                       TimeMicros timeout = 10'000'000) {
  std::string output;
  const TimeMicros deadline = monotonic_micros() + timeout;
  const int flags = ::fcntl(child.stdout_fd, F_GETFL, 0);
  ::fcntl(child.stdout_fd, F_SETFL, flags | O_NONBLOCK);
  while (monotonic_micros() < deadline) {
    char chunk[4096];
    const ssize_t n = ::read(child.stdout_fd, chunk, sizeof chunk);
    if (n > 0) {
      output.append(chunk, static_cast<std::size_t>(n));
      if (output.find(marker) != std::string::npos) break;
    } else if (n == 0) {
      break;  // child closed stdout
    } else {
      sleep_micros(10'000);
    }
  }
  return output;
}

/// Waits up to `timeout` for the child to exit and returns its exit code;
/// a child still running at the deadline is terminated and yields -1.
int wait_exit_code(ChildProcess& child, TimeMicros timeout) {
  const TimeMicros deadline = monotonic_micros() + timeout;
  int status = 0;
  while (::waitpid(child.pid, &status, WNOHANG) == 0) {
    if (monotonic_micros() >= deadline) {
      child.terminate_and_wait();
      return -1;
    }
    sleep_micros(10'000);
  }
  child.pid = -1;
  ::close(child.stdout_fd);
  child.stdout_fd = -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(AppsTest, ThreeExecutableDeployment) {
  const std::string apps_dir = BRISK_APPS_DIR;
  const std::string suffix = std::to_string(::getpid());
  const std::string node_shm = "/brisk-apps-node-" + suffix;
  const std::string out_shm = "/brisk-apps-out-" + suffix;

  // --- brisk_ism -------------------------------------------------------------
  ChildProcess ism = spawn(apps_dir + "/brisk_ism",
                           {"--port", "0", "--shm", out_shm, "--select-timeout-us", "2000",
                            "--sync-period-us", "200000"});
  ASSERT_GT(ism.pid, 0);
  const std::string ism_banner = read_until(ism, "listening on 127.0.0.1:");
  const std::size_t port_pos = ism_banner.find("listening on 127.0.0.1:");
  ASSERT_NE(port_pos, std::string::npos) << "ism banner: " << ism_banner;
  const std::uint16_t port = static_cast<std::uint16_t>(
      std::strtoul(ism_banner.c_str() + port_pos + std::strlen("listening on 127.0.0.1:"),
                   nullptr, 10));
  ASSERT_GT(port, 0);

  // --- brisk_exs (creates the node's named region) -----------------------------
  ChildProcess exs = spawn(apps_dir + "/brisk_exs",
                           {"--node", "1", "--shm", node_shm, "--ism-port",
                            std::to_string(port), "--select-timeout-us", "2000",
                            "--batch-age-us", "1000"});
  ASSERT_GT(exs.pid, 0);
  (void)read_until(exs, "node 1");

  // --- the instrumented application: attach to the EXS's region ----------------
  NodeConfig node_config;
  node_config.node = 1;
  node_config.shm_name = node_shm;
  Result<std::unique_ptr<BriskNode>> app = Status(Errc::not_found, "pending");
  const TimeMicros deadline = monotonic_micros() + 5'000'000;
  while (monotonic_micros() < deadline) {
    app = BriskNode::attach(node_config);
    if (app.is_ok()) break;
    sleep_micros(20'000);
  }
  ASSERT_TRUE(app.is_ok()) << app.status().to_string();
  auto sensor = app.value()->make_sensor();
  ASSERT_TRUE(sensor.is_ok());

  constexpr int kEvents = 200;
  for (int i = 0; i < kEvents; ++i) {
    ASSERT_TRUE(BRISK_NOTICE(sensor.value(), 7, x_i32(i)));
  }

  // --- brisk_consume: drains the ISM's named output region ---------------------
  ChildProcess consume = spawn(apps_dir + "/brisk_consume",
                               {"--shm", out_shm, "--mode", "picl", "--max-records",
                                std::to_string(kEvents), "--idle-exit-ms", "8000"});
  ASSERT_GT(consume.pid, 0);
  const std::string picl_output = read_until(consume, "X_I32=" + std::to_string(kEvents - 1));
  int status = 0;
  ASSERT_EQ(::waitpid(consume.pid, &status, 0), consume.pid);
  consume.pid = -1;
  ::close(consume.stdout_fd);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  // Every record made it through, in per-node order.
  int lines = 0;
  for (char c : picl_output) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, kEvents) << picl_output.substr(0, 400);
  EXPECT_NE(picl_output.find("X_I32=0"), std::string::npos);

  exs.terminate_and_wait();
  ism.terminate_and_wait();
  (void)shm::SharedRegion::open_named(node_shm).value().unlink();
  // brisk_ism owns the output region; it does not unlink on SIGTERM, so
  // clean up here to keep the namespace tidy across test runs.
  auto out_region = shm::SharedRegion::open_named(out_shm);
  if (out_region.is_ok()) (void)out_region.value().unlink();
}

TEST(AppsTest, OutOfRangePortsExitTwo) {
  // A port narrowed to 16 bits without a range check wraps (70000 → 4464)
  // and the daemon runs on the wrong port; each must refuse at startup.
  const std::string apps_dir = BRISK_APPS_DIR;
  const std::string node_shm = "/brisk-apps-port-" + std::to_string(::getpid());
  const std::vector<std::pair<std::string, std::vector<std::string>>> cases = {
      {"brisk_ism", {"--port", "70000", "--sync", "false"}},
      {"brisk_ism", {"--consumer-port", "65537", "--sync", "false"}},
      {"brisk_exs", {"--node", "1", "--shm", node_shm, "--ism-port", "70000"}},
  };
  for (const auto& [binary, args] : cases) {
    ChildProcess child = spawn(apps_dir + "/" + binary, args);
    ASSERT_GT(child.pid, 0);
    EXPECT_EQ(wait_exit_code(child, 5'000'000), 2) << binary << " " << args[0] << " "
                                                   << args[1];
  }
  // An EXS that wrapped the port instead would have created its region.
  auto region = shm::SharedRegion::open_named(node_shm);
  if (region.is_ok()) (void)region.value().unlink();
}

}  // namespace
}  // namespace brisk
