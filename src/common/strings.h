#ifndef TAURUS_COMMON_STRINGS_H_
#define TAURUS_COMMON_STRINGS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace taurus {

/// Lower-cases ASCII characters; used for case-insensitive SQL identifiers
/// and keywords.
std::string AsciiLower(std::string_view s);

/// Case-insensitive ASCII equality.
bool AsciiEqualsIgnoreCase(std::string_view a, std::string_view b);

/// Splits `s` on `sep`, keeping empty pieces.
std::vector<std::string> SplitString(std::string_view s, char sep);

/// SQL LIKE predicate with '%' and '_' wildcards (case-sensitive, as in
/// binary collation). No escape character support. A pattern without '_'
/// matches by substring search in one pass; one with '_' goes to
/// SqlLikeMatchRecursive.
bool SqlLikeMatch(std::string_view value, std::string_view pattern);

/// The general LIKE matcher: backtracks over every '%'. Same answers as
/// SqlLikeMatch, which the differential test checks.
bool SqlLikeMatchRecursive(std::string_view value, std::string_view pattern);

/// Escapes `s` for embedding inside a JSON string literal (quotes,
/// backslashes, control characters).
std::string JsonEscape(std::string_view s);

/// 64-bit FNV-1a hash, used by hash joins and hash aggregation.
uint64_t Fnv1aHash(const void* data, size_t len, uint64_t seed = 1469598103934665603ULL);

/// Combines two hash values (boost::hash_combine style).
inline uint64_t HashCombine(uint64_t h, uint64_t v) {
  return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

}  // namespace taurus

#endif  // TAURUS_COMMON_STRINGS_H_
