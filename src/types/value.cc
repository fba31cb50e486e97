#include "types/value.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/strings.h"
#include "types/datetime.h"

namespace taurus {

namespace {

double StringToNumber(std::string_view s) {
  return std::strtod(std::string(s).c_str(), nullptr);
}

int CompareDoubles(double a, double b) {
  if (a < b) return -1;
  if (a > b) return 1;
  return 0;
}

}  // namespace

int Value::CompareSlow(const Value& a, const Value& b) {
  if (a.kind_ == Kind::kNull || b.kind_ == Kind::kNull) {  // not both
    return a.kind_ == Kind::kNull ? -1 : 1;
  }
  if (a.kind_ == Kind::kString && b.kind_ == Kind::kString) {
    int c = a.AsString().compare(b.AsString());
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  // Mixed numeric (or number-vs-string coercion) falls back to double.
  double da =
      a.kind_ == Kind::kString ? StringToNumber(a.AsString()) : a.AsDouble();
  double db =
      b.kind_ == Kind::kString ? StringToNumber(b.AsString()) : b.AsDouble();
  return CompareDoubles(da, db);
}

std::string Value::ToString() const {
  switch (kind_) {
    case Kind::kNull:
      return "NULL";
    case Kind::kString:
      return std::string(AsString());
    case Kind::kInt:
      if (type_ == TypeId::kDate || type_ == TypeId::kNewDate) {
        return FormatDate(i_);
      }
      if (type_ == TypeId::kDatetime || type_ == TypeId::kDatetime2 ||
          type_ == TypeId::kTimestamp || type_ == TypeId::kTimestamp2) {
        return FormatDatetime(i_);
      }
      return std::to_string(i_);
    case Kind::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.6g", d_);
      return buf;
    }
  }
  return "?";
}

uint64_t HashRow(const Row& row) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const Value& v : row) h = HashCombine(h, v.Hash());
  return h;
}

std::string RowToString(const Row& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i) out += ", ";
    out += row[i].ToString();
  }
  out += ")";
  return out;
}

}  // namespace taurus
