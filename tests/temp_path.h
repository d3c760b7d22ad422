#ifndef IMCAT_TESTS_TEMP_PATH_H_
#define IMCAT_TESTS_TEMP_PATH_H_

#include <unistd.h>

#include <string>

#include <gtest/gtest.h>

namespace imcat {

/// A scratch path private to the calling process: ::testing::TempDir(),
/// then the process id, then `name`. ctest runs every test as its own
/// process, concurrently under `-j`, and several builds of one suite may
/// run at once, so a fixed name under TempDir() would be shared between
/// tests that race on it; a per-process prefix is not.
inline std::string TestTempPath(const std::string& name) {
  std::string dir = ::testing::TempDir();
  if (!dir.empty() && dir.back() != '/') dir += '/';
  return dir + std::to_string(::getpid()) + "." + name;
}

}  // namespace imcat

#endif  // IMCAT_TESTS_TEMP_PATH_H_
