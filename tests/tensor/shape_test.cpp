#include "tensor/shape.h"

#include <gtest/gtest.h>

#include <sstream>

#include "util/error.h"

namespace fedvr::tensor {
namespace {

using fedvr::util::Error;

TEST(Shape, NumelMultipliesDims) {
  EXPECT_EQ(Shape({2, 3, 4}).numel(), 24u);
  EXPECT_EQ(Shape({7}).numel(), 7u);
  EXPECT_EQ(Shape({}).numel(), 1u);
}

TEST(Shape, EqualityComparesRankAndDims) {
  EXPECT_EQ(Shape({2, 3}), Shape({2, 3}));
  EXPECT_FALSE(Shape({2, 3}) == Shape({3, 2}));
  EXPECT_FALSE(Shape({2, 3}) == Shape({2, 3, 1}));
}

TEST(Shape, IndexOutOfRankThrows) {
  const Shape s({2, 3});
  EXPECT_THROW((void)s[2], Error);
}

TEST(Shape, StrFormats) { EXPECT_EQ(Shape({2, 3}).str(), "[2, 3]"); }

TEST(Shape, DefaultIsRankZeroScalar) {
  const Shape s;
  EXPECT_EQ(s.rank(), 0u);
  EXPECT_EQ(s.numel(), 1u);
  EXPECT_EQ(s.str(), "[]");
  EXPECT_EQ(s, Shape({}));
  EXPECT_THROW((void)s[0], Error);
}

TEST(Shape, RankAboveMaxThrows) {
  const Shape four({1, 2, 3, 4});
  EXPECT_EQ(four.rank(), Shape::kMaxRank);
  EXPECT_EQ(four.numel(), 24u);
  EXPECT_THROW(Shape({1, 2, 3, 4, 5}), Error);
}

TEST(Shape, IndexReturnsDimsInAxisOrder) {
  const Shape s({5, 1, 7, 3});
  EXPECT_EQ(s[0], 5u);
  EXPECT_EQ(s[1], 1u);
  EXPECT_EQ(s[2], 7u);
  EXPECT_EQ(s[3], 3u);
}

TEST(Shape, ZeroExtentGivesZeroNumel) {
  EXPECT_EQ(Shape({3, 0, 2}).numel(), 0u);
  EXPECT_EQ(Shape({0}).numel(), 0u);
  EXPECT_EQ(Shape({3, 0, 2}).str(), "[3, 0, 2]");
}

TEST(Shape, StreamInsertionWritesStr) {
  std::ostringstream os;
  os << Shape({60000, 1, 28, 28}) << ' ' << Shape({10});
  EXPECT_EQ(os.str(), "[60000, 1, 28, 28] [10]");
}

}  // namespace
}  // namespace fedvr::tensor
