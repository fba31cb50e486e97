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

int Value::Compare(const Value& a, const Value& b) {
  if (a.kind_ == Kind::kNull || b.kind_ == Kind::kNull) {
    if (a.kind_ == b.kind_) return 0;
    return a.kind_ == Kind::kNull ? -1 : 1;
  }
  if (a.kind_ == Kind::kString && b.kind_ == Kind::kString) {
    int c = a.AsString().compare(b.AsString());
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  if (a.kind_ == Kind::kInt && b.kind_ == Kind::kInt) {
    if (a.i_ < b.i_) return -1;
    if (a.i_ > b.i_) return 1;
    return 0;
  }
  // Mixed numeric (or number-vs-string coercion) falls back to double.
  double da =
      a.kind_ == Kind::kString ? StringToNumber(a.AsString()) : a.AsDouble();
  double db =
      b.kind_ == Kind::kString ? StringToNumber(b.AsString()) : b.AsDouble();
  return CompareDoubles(da, db);
}

uint64_t Value::Hash() const {
  switch (kind_) {
    case Kind::kNull:
      return 0x6e756c6cULL;
    case Kind::kString: {
      std::string_view s = AsString();
      return Fnv1aHash(s.data(), s.size());
    }
    case Kind::kInt: {
      // Hash via double so that Int(3) and Double(3.0) collide, consistent
      // with Compare().
      double d = static_cast<double>(i_);
      if (static_cast<int64_t>(d) == i_) {
        return Fnv1aHash(&d, sizeof(d));
      }
      return Fnv1aHash(&i_, sizeof(i_));
    }
    case Kind::kDouble: {
      double d = d_ == 0.0 ? 0.0 : d_;  // normalize -0.0
      return Fnv1aHash(&d, sizeof(d));
    }
  }
  return 0;
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
