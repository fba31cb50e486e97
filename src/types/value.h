#ifndef TAURUS_TYPES_VALUE_H_
#define TAURUS_TYPES_VALUE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "types/type.h"

namespace taurus {

/// Runtime SQL value. A Value carries a concrete MySQL TypeId plus one of
/// four physical representations: NULL, 64-bit integer (also used for all
/// temporal types: DATE as days since epoch, DATETIME/TIMESTAMP/TIME as
/// seconds), double (NUM category), or string (STR/BLB/JSN/GEO categories).
///
/// Values are cheap to copy for the fixed-width kinds and for strings of
/// up to 24 bytes, which are stored in place; longer strings own one
/// exact-size heap block. The payloads share one union selected by the
/// kind, so a Value is 32 bytes; base tables hold one per column. The
/// executor's Row is simply std::vector<Value>.
class Value {
 public:
  enum class Kind : uint8_t { kNull, kInt, kDouble, kString };

  /// Default-constructed value is SQL NULL.
  Value() : i_(0), type_(TypeId::kNull), kind_(Kind::kNull) {}

  Value(const Value& o) : type_(o.type_), kind_(o.kind_) { CopyPayload(o); }
  Value(Value&& o) noexcept : type_(o.type_), kind_(o.kind_) {
    MovePayload(o);
  }
  Value& operator=(const Value& o) {
    if (this == &o) return *this;
    DestroyPayload();
    kind_ = Kind::kNull;  // payload dead until the copy succeeds
    CopyPayload(o);
    type_ = o.type_;
    kind_ = o.kind_;
    return *this;
  }
  Value& operator=(Value&& o) noexcept {
    if (this == &o) return *this;
    DestroyPayload();
    MovePayload(o);
    type_ = o.type_;
    kind_ = o.kind_;
    return *this;
  }
  ~Value() { DestroyPayload(); }

  static Value Null() { return Value(); }

  static Value Int(int64_t v, TypeId type = TypeId::kLongLong) {
    Value out;
    out.type_ = type;
    out.kind_ = Kind::kInt;
    out.i_ = v;
    return out;
  }

  static Value Double(double v, TypeId type = TypeId::kDouble) {
    Value out;
    out.type_ = type;
    out.kind_ = Kind::kDouble;
    out.d_ = v;
    return out;
  }

  static Value Str(std::string_view v, TypeId type = TypeId::kVarchar) {
    Value out;
    out.type_ = type;
    out.InitString(v);
    out.kind_ = Kind::kString;
    return out;
  }

  /// DATE value from days since 1970-01-01.
  static Value Date(int64_t days) { return Int(days, TypeId::kDate); }

  /// DATETIME value from seconds since the epoch.
  static Value Datetime(int64_t seconds) {
    return Int(seconds, TypeId::kDatetime);
  }

  /// Boolean result of a predicate, carried as TINYINT 0/1 (MySQL has no
  /// separate BOOL type).
  static Value Bool(bool b) { return Int(b ? 1 : 0, TypeId::kTiny); }

  bool is_null() const { return kind_ == Kind::kNull; }
  TypeId type() const { return type_; }
  Kind kind() const { return kind_; }

  /// Integer payload of a kInt value; 0 for every other kind.
  int64_t AsInt() const { return kind_ == Kind::kInt ? i_ : 0; }

  /// Numeric coercion: integers widen to double; NULL yields 0.
  double AsDouble() const {
    switch (kind_) {
      case Kind::kInt:
        return static_cast<double>(i_);
      case Kind::kDouble:
        return d_;
      default:
        return 0.0;
    }
  }

  /// String payload of a kString value; "" for every other kind. The view
  /// lives as long as this Value is neither modified nor destroyed.
  std::string_view AsString() const {
    if (kind_ != Kind::kString) return {};
    return str_len_ == kHeapString ? std::string_view(heap_.data, heap_.size)
                                   : std::string_view(chars_, str_len_);
  }

  /// SQL truthiness: non-NULL and numerically non-zero.
  bool IsTrue() const {
    switch (kind_) {
      case Kind::kInt:
        return i_ != 0;
      case Kind::kDouble:
        return d_ != 0.0;
      case Kind::kString:
        return !AsString().empty();
      case Kind::kNull:
        return false;
    }
    return false;
  }

  /// Total-order comparison used by sorts, index keys and merge logic.
  /// NULL sorts before everything (MySQL ORDER BY semantics); numeric kinds
  /// compare numerically regardless of int/double representation; strings
  /// compare bytewise. Cross-kind number-vs-string compares the string as a
  /// number (best-effort, as MySQL coerces).
  static int Compare(const Value& a, const Value& b);

  /// Equality consistent with Compare()==0. Note: this is *ordering*
  /// equality (NULL == NULL), used for grouping and index keys, not SQL
  /// three-valued equality — the expression evaluator handles NULLs itself.
  bool operator==(const Value& other) const {
    return Compare(*this, other) == 0;
  }
  bool operator<(const Value& other) const {
    return Compare(*this, other) < 0;
  }

  /// Hash consistent with operator== (numeric kinds hash by double value).
  uint64_t Hash() const;

  /// Human-readable rendering used by EXPLAIN and result printing.
  /// Temporal types format as calendar dates/datetimes.
  std::string ToString() const;

 private:
  /// Strings up to this many bytes are stored in `chars_`.
  static constexpr size_t kInlineChars = 24;
  /// `str_len_` of a string stored in `heap_`.
  static constexpr uint8_t kHeapString = 0xFF;

  /// Stores `v` as this value's string payload, which must be dead.
  void InitString(std::string_view v) {
    if (v.size() <= kInlineChars) {
      if (!v.empty()) std::memcpy(chars_, v.data(), v.size());
      str_len_ = static_cast<uint8_t>(v.size());
    } else {
      heap_.data = new char[v.size()];
      std::memcpy(heap_.data, v.data(), v.size());
      heap_.size = v.size();
      str_len_ = kHeapString;
    }
  }

  /// Constructs the payload of `o`'s kind from `o`; this payload is dead.
  void CopyPayload(const Value& o) {
    switch (o.kind_) {
      case Kind::kString:
        InitString(o.AsString());
        break;
      case Kind::kDouble:
        d_ = o.d_;
        break;
      default:
        i_ = o.i_;
        break;
    }
  }
  /// Like CopyPayload, but takes over a heap string, leaving `o` an empty
  /// string. Never allocates.
  void MovePayload(Value& o) noexcept {
    if (o.kind_ == Kind::kString && o.str_len_ == kHeapString) {
      heap_ = o.heap_;
      str_len_ = kHeapString;
      o.str_len_ = 0;
    } else {
      CopyPayload(o);
    }
  }
  void DestroyPayload() noexcept {
    if (kind_ == Kind::kString && str_len_ == kHeapString) {
      delete[] heap_.data;
    }
  }

  union {  // selected by kind_ (and str_len_ for strings)
    int64_t i_;
    double d_;
    char chars_[kInlineChars];
    struct {
      char* data;
      size_t size;
    } heap_;
  };
  TypeId type_;
  Kind kind_;
  uint8_t str_len_ = 0;  ///< inline string length, or kHeapString
};

static_assert(sizeof(Value) == 32, "Value grew; rows hold one per column");

/// A materialized tuple.
using Row = std::vector<Value>;

/// Hash of a full row (combines per-value hashes).
uint64_t HashRow(const Row& row);

/// Renders a row as "(v1, v2, ...)" for debugging and golden tests.
std::string RowToString(const Row& row);

}  // namespace taurus

#endif  // TAURUS_TYPES_VALUE_H_
