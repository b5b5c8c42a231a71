#include "support/table.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "support/error.hpp"

namespace dls {
namespace {

TEST(TextTable, AlignsColumns) {
  TextTable t({"K", "ratio"});
  t.add_row({"5", "0.91"});
  t.add_row({"95", "0.99"});
  std::ostringstream oss;
  t.print(oss);
  const std::string out = oss.str();
  EXPECT_NE(out.find("K"), std::string::npos);
  EXPECT_NE(out.find("0.99"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TextTable, RejectsArityMismatch) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(TextTable, RejectsEmptyHeader) {
  EXPECT_THROW(TextTable({}), Error);
}

TEST(TextTable, FormatsDoubles) {
  EXPECT_EQ(TextTable::fmt(1.23456, 2), "1.23");
  EXPECT_EQ(TextTable::fmt(2.0, 0), "2");
}

TEST(TextTable, RowCount) {
  TextTable t({"x"});
  EXPECT_EQ(t.rows(), 0u);
  t.add_row({"1"});
  EXPECT_EQ(t.rows(), 1u);
}

}  // namespace
}  // namespace dls
