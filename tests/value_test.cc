#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "types/datetime.h"
#include "types/value.h"

namespace taurus {
namespace {

TEST(ValueTest, DefaultIsNull) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.ToString(), "NULL");
}

TEST(ValueTest, IntConstruction) {
  Value v = Value::Int(42, TypeId::kLong);
  EXPECT_FALSE(v.is_null());
  EXPECT_EQ(v.AsInt(), 42);
  EXPECT_EQ(v.type(), TypeId::kLong);
  EXPECT_EQ(v.ToString(), "42");
}

TEST(ValueTest, StringConstruction) {
  Value v = Value::Str("hello");
  EXPECT_EQ(v.AsString(), "hello");
  EXPECT_EQ(v.ToString(), "hello");
}

TEST(ValueTest, DateFormatting) {
  Value v = Value::Date(*ParseDate("1995-03-15"));
  EXPECT_EQ(v.ToString(), "1995-03-15");
  Value dt = Value::Datetime(*ParseDatetime("1995-03-15 06:07:08"));
  EXPECT_EQ(dt.ToString(), "1995-03-15 06:07:08");
}

TEST(ValueTest, CompareIntegers) {
  EXPECT_LT(Value::Compare(Value::Int(1), Value::Int(2)), 0);
  EXPECT_EQ(Value::Compare(Value::Int(5), Value::Int(5)), 0);
  EXPECT_GT(Value::Compare(Value::Int(9), Value::Int(2)), 0);
}

TEST(ValueTest, CompareMixedNumeric) {
  EXPECT_EQ(Value::Compare(Value::Int(3), Value::Double(3.0)), 0);
  EXPECT_LT(Value::Compare(Value::Int(3), Value::Double(3.5)), 0);
  EXPECT_GT(Value::Compare(Value::Double(4.1), Value::Int(4)), 0);
}

TEST(ValueTest, CompareStrings) {
  EXPECT_LT(Value::Compare(Value::Str("abc"), Value::Str("abd")), 0);
  EXPECT_EQ(Value::Compare(Value::Str("x"), Value::Str("x")), 0);
}

TEST(ValueTest, NullSortsFirst) {
  EXPECT_LT(Value::Compare(Value::Null(), Value::Int(-100)), 0);
  EXPECT_GT(Value::Compare(Value::Str(""), Value::Null()), 0);
  EXPECT_EQ(Value::Compare(Value::Null(), Value::Null()), 0);
}

TEST(ValueTest, NumberStringCoercion) {
  EXPECT_EQ(Value::Compare(Value::Int(12), Value::Str("12")), 0);
  EXPECT_LT(Value::Compare(Value::Str("3.5"), Value::Int(4)), 0);
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value::Int(3).Hash(), Value::Double(3.0).Hash());
  EXPECT_EQ(Value::Str("abc").Hash(), Value::Str("abc").Hash());
  EXPECT_NE(Value::Str("abc").Hash(), Value::Str("abd").Hash());
}

TEST(ValueTest, Truthiness) {
  EXPECT_TRUE(Value::Int(1).IsTrue());
  EXPECT_FALSE(Value::Int(0).IsTrue());
  EXPECT_FALSE(Value::Null().IsTrue());
  EXPECT_TRUE(Value::Double(0.5).IsTrue());
  EXPECT_FALSE(Value::Double(0.0).IsTrue());
}

TEST(ValueTest, BoolHelper) {
  EXPECT_EQ(Value::Bool(true).AsInt(), 1);
  EXPECT_EQ(Value::Bool(false).AsInt(), 0);
  EXPECT_EQ(Value::Bool(true).type(), TypeId::kTiny);
}

TEST(ValueTest, RowHashAndPrint) {
  Row r1{Value::Int(1), Value::Str("a")};
  Row r2{Value::Int(1), Value::Str("a")};
  Row r3{Value::Int(2), Value::Str("a")};
  EXPECT_EQ(HashRow(r1), HashRow(r2));
  EXPECT_NE(HashRow(r1), HashRow(r3));
  EXPECT_EQ(RowToString(r1), "(1, a)");
}

TEST(ValueTest, OrderingOperatorForSets) {
  EXPECT_TRUE(Value::Int(1) < Value::Int(2));
  EXPECT_TRUE(Value::Null() < Value::Int(0));
  EXPECT_TRUE(Value::Int(1) == Value::Double(1.0));
}

TEST(ValueTest, DoubleFormatting) {
  EXPECT_EQ(Value::Double(2.5).ToString(), "2.5");
  EXPECT_EQ(Value::Double(1e10).ToString(), "1e+10");
}

TEST(ValueTest, AccessorsOfOtherKindsAreEmpty) {
  // The payloads share storage; an accessor of another kind must not
  // expose it.
  EXPECT_EQ(Value::Double(2.5).AsInt(), 0);
  EXPECT_EQ(Value::Double(-1e300).AsInt(), 0);
  EXPECT_EQ(Value::Str("42").AsInt(), 0);
  EXPECT_EQ(Value::Null().AsInt(), 0);
  EXPECT_EQ(Value::Int(-7).AsInt(), -7);
  EXPECT_EQ(Value::Int(3).AsDouble(), 3.0);
  EXPECT_EQ(Value::Int(3).AsString(), "");
  EXPECT_EQ(Value::Double(1.5).AsString(), "");
  EXPECT_EQ(Value::Null().AsString(), "");
}

TEST(ValueTest, CopyAndMoveAcrossKinds) {
  // Strings of up to 24 bytes are stored in place, longer ones on the heap.
  const std::string long_str = "a string longer than the small-string buffer";
  const Value values[] = {Value::Null(),
                          Value::Int(-3, TypeId::kLong),
                          Value::Double(0.1),
                          Value::Str(""),
                          Value::Str("short"),
                          Value::Str(std::string(24, 'x')),
                          Value::Str(std::string(25, 'y')),
                          Value::Str(long_str, TypeId::kString)};
  for (const Value& from : values) {
    for (const Value& to : values) {
      Value copy = to;
      copy = from;
      EXPECT_EQ(copy.kind(), from.kind());
      EXPECT_EQ(copy.type(), from.type());
      EXPECT_EQ(Value::Compare(copy, from), 0) << from.ToString();
      Value moved_into = to;
      Value source = from;
      moved_into = std::move(source);
      EXPECT_EQ(moved_into.kind(), from.kind());
      EXPECT_EQ(moved_into.ToString(), from.ToString());
      Value constructed(std::move(moved_into));
      EXPECT_EQ(constructed.ToString(), from.ToString());
      const Value& self = constructed;
      constructed = self;
      EXPECT_EQ(constructed.ToString(), from.ToString());
    }
  }
  Value heap = Value::Str(long_str);
  Value taken(std::move(heap));
  EXPECT_EQ(taken.AsString(), long_str);
  // A moved-from heap string is left an empty string.
  // NOLINTNEXTLINE(bugprone-use-after-move)
  EXPECT_EQ(heap.kind(), Value::Kind::kString);
  EXPECT_EQ(heap.AsString(), "");
  std::vector<Value> grown;
  for (int i = 0; i < 100; ++i) {
    grown.push_back(i % 2 ? Value::Str(long_str + std::to_string(i))
                          : Value::Double(i));
  }
  EXPECT_EQ(grown[99].AsString(), long_str + "99");
  EXPECT_EQ(grown[98].AsDouble(), 98.0);
}

}  // namespace
}  // namespace taurus
