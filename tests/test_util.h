#ifndef LAMBADA_TESTS_TEST_UTIL_H_
#define LAMBADA_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

/// ASSERT_* macros use `return`, which is illegal inside coroutines; these
/// variants record the failure and co_return instead.
#define CO_ASSERT_TRUE(cond)            \
  if (!(cond)) {                        \
    ADD_FAILURE() << "failed: " #cond;  \
    co_return;                          \
  }

#define CO_ASSERT_OK(expr)                                        \
  if (const auto& _co_assert_result = (expr);                     \
      !_co_assert_result.ok()) {                                  \
    ADD_FAILURE() << "not OK: "                                   \
                  << ::lambada::internal::ToStatus(               \
                         _co_assert_result)                       \
                         .ToString();                             \
    co_return;                                                    \
  }

#ifdef LAMBADA_SOURCE_DIR
/// Goldens live in tests/golden/ and are byte-compared; regenerate with
/// LAMBADA_UPDATE_GOLDENS=1 after an intentional change.
inline std::string GoldenPath(const std::string& name) {
  return std::string(LAMBADA_SOURCE_DIR) + "/tests/golden/" + name;
}

inline void ExpectMatchesGolden(const std::string& actual,
                                const std::string& name) {
  const std::string path = GoldenPath(name);
  if (std::getenv("LAMBADA_UPDATE_GOLDENS") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << " (regenerate with LAMBADA_UPDATE_GOLDENS=1)";
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(actual, buf.str()) << "golden mismatch: " << name;
}
#endif  // LAMBADA_SOURCE_DIR

#endif  // LAMBADA_TESTS_TEST_UTIL_H_
