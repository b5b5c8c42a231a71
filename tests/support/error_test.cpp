// dls::require: both overloads throw dls::Error carrying the exact
// message on failure and do nothing on success.
#include "support/error.hpp"

#include <gtest/gtest.h>

#include <string>

namespace dls {
namespace {

template <class Message>
std::string thrown_message(bool cond, const Message& message) {
  try {
    require(cond, message);
  } catch (const Error& e) {
    return e.what();
  }
  return "<no throw>";
}

TEST(Require, LiteralFailureThrowsExactMessage) {
  EXPECT_EQ(thrown_message(false, "Model::set_bounds: lb > ub"),
            "Model::set_bounds: lb > ub");
  const char* pointer = "from a pointer";
  EXPECT_EQ(thrown_message(false, pointer), "from a pointer");
  EXPECT_EQ(thrown_message(false, ""), "");
}

TEST(Require, StringFailureThrowsExactMessage) {
  const std::string built = "link " + std::to_string(7) + " is down";
  EXPECT_EQ(thrown_message(false, built), "link 7 is down");
}

TEST(Require, PassingCheckDoesNotThrow) {
  EXPECT_NO_THROW(require(true, "never built"));
  EXPECT_NO_THROW(require(true, std::string("already built")));
  EXPECT_EQ(thrown_message(true, "unused"), "<no throw>");
}

}  // namespace
}  // namespace dls
