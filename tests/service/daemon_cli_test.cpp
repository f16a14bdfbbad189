//===- daemon_cli_test.cpp - cobaltd/cobaltc client process contract ------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The daemon start/stop smoke test at the process level, in the default
/// ctest run: a real cobaltd prints its readiness line, answers a real
/// `cobaltc client`, shuts down cleanly on SIGTERM (exit 0), and client
/// mode maps an unreachable daemon to the documented exit code 5 — never
/// to a verdict.
///
/// COBALTD_BIN / COBALTC_BIN are compile definitions pointing at the
/// built tools.
///
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <sys/wait.h>
#include <unistd.h>

namespace {

std::string socketPath(const char *Tag) {
  return std::string(::testing::TempDir()) + "/cobaltd_cli_" + Tag + "_" +
         std::to_string(::getpid()) + ".sock";
}

/// Runs a command line, captures stdout, returns the exit code (-1 on
/// spawn failure, 128+sig on death by signal).
int runCommand(const std::string &Cmd, std::string &Out) {
  Out.clear();
  std::FILE *P = ::popen(Cmd.c_str(), "r");
  if (!P)
    return -1;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), P)) > 0)
    Out.append(Buf, N);
  int Status = ::pclose(P);
  if (WIFEXITED(Status))
    return WEXITSTATUS(Status);
  if (WIFSIGNALED(Status))
    return 128 + WTERMSIG(Status);
  return -1;
}

/// Spawns cobaltd on \p Socket with the bundled module, returns its pid
/// after the readiness line has appeared on its stdout (so the socket is
/// accepting). Returns -1 on failure.
pid_t spawnDaemon(const std::string &Socket, int &OutFd) {
  int Pipe[2];
  if (::pipe(Pipe) != 0)
    return -1;
  pid_t Pid = ::fork();
  if (Pid < 0) {
    ::close(Pipe[0]);
    ::close(Pipe[1]);
    return -1;
  }
  if (Pid == 0) {
    ::dup2(Pipe[1], STDOUT_FILENO);
    ::close(Pipe[0]);
    ::close(Pipe[1]);
    ::execl(COBALTD_BIN, COBALTD_BIN, "stdlib", "--socket",
            Socket.c_str(), static_cast<char *>(nullptr));
    _exit(127);
  }
  ::close(Pipe[1]);
  // Wait for the readiness line (one read suffices: the daemon flushes
  // it as a unit).
  std::string Seen;
  char Buf[256];
  while (Seen.find("listening on") == std::string::npos) {
    ssize_t N = ::read(Pipe[0], Buf, sizeof(Buf));
    if (N <= 0) {
      ::close(Pipe[0]);
      ::kill(Pid, SIGKILL);
      ::waitpid(Pid, nullptr, 0);
      return -1;
    }
    Seen.append(Buf, static_cast<size_t>(N));
  }
  OutFd = Pipe[0];
  return Pid;
}

TEST(DaemonCli, StartServeSigtermStop) {
  std::string Socket = socketPath("smoke");
  int OutFd = -1;
  pid_t Pid = spawnDaemon(Socket, OutFd);
  ASSERT_GT(Pid, 0) << "cobaltd failed to start";

  // A real client round-trip through the real binary.
  std::string Out;
  int Exit = runCommand(std::string(COBALTC_BIN) +
                            " client ping --socket " + Socket,
                        Out);
  EXPECT_EQ(Exit, 0) << Out;
  EXPECT_NE(Out.find("\"status\": \"ok\""), std::string::npos) << Out;
  EXPECT_NE(Out.find("\"definitions\": 9"), std::string::npos) << Out;

  // SIGTERM → clean shutdown, exit 0.
  ASSERT_EQ(::kill(Pid, SIGTERM), 0);
  int Status = 0;
  ASSERT_EQ(::waitpid(Pid, &Status, 0), Pid);
  EXPECT_TRUE(WIFEXITED(Status));
  EXPECT_EQ(WEXITSTATUS(Status), 0);
  ::close(OutFd);

  // The daemon removed its socket on the way out.
  EXPECT_NE(::access(Socket.c_str(), F_OK), 0);
}

TEST(DaemonCli, ClientShutdownCommand) {
  std::string Socket = socketPath("shutdown");
  int OutFd = -1;
  pid_t Pid = spawnDaemon(Socket, OutFd);
  ASSERT_GT(Pid, 0) << "cobaltd failed to start";

  std::string Out;
  int Exit = runCommand(std::string(COBALTC_BIN) +
                            " client shutdown --socket " + Socket,
                        Out);
  EXPECT_EQ(Exit, 0) << Out;

  int Status = 0;
  ASSERT_EQ(::waitpid(Pid, &Status, 0), Pid);
  EXPECT_TRUE(WIFEXITED(Status));
  EXPECT_EQ(WEXITSTATUS(Status), 0);
  ::close(OutFd);
}

TEST(DaemonCli, UnreachableDaemonIsExit5) {
  std::string Out;
  int Exit = runCommand(std::string(COBALTC_BIN) +
                            " client ping --socket " +
                            socketPath("nosuch") + " 2>&1",
                        Out);
  EXPECT_EQ(Exit, 5) << Out;
  EXPECT_NE(Out.find("is the daemon running?"), std::string::npos) << Out;
}

TEST(DaemonCli, UsageErrorsAreExit2) {
  std::string Out;
  // Client mode without --socket.
  EXPECT_EQ(runCommand(std::string(COBALTC_BIN) + " client ping 2>&1",
                       Out),
            2);
  // A daemon-only flag rejected by cobaltc's flag sets.
  EXPECT_EQ(runCommand(std::string(COBALTC_BIN) +
                           " check /dev/null --telemetry 2>&1",
                       Out),
            2);
  EXPECT_NE(Out.find("not accepted by this tool"), std::string::npos)
      << Out;
  // cobaltd without a socket.
  EXPECT_EQ(runCommand(std::string(COBALTD_BIN) + " stdlib 2>&1", Out),
            2);
}

} // namespace
