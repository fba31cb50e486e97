#include "common/strings.h"

#include <cctype>
#include <cstdio>

namespace taurus {

std::string AsciiLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

bool AsciiEqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::vector<std::string> SplitString(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

namespace {

// Recursive matcher over (value position, pattern position).
bool LikeMatchImpl(std::string_view v, size_t vi, std::string_view p,
                   size_t pi) {
  while (pi < p.size()) {
    char pc = p[pi];
    if (pc == '%') {
      // Collapse consecutive '%'.
      while (pi < p.size() && p[pi] == '%') ++pi;
      if (pi == p.size()) return true;
      for (size_t k = vi; k <= v.size(); ++k) {
        if (LikeMatchImpl(v, k, p, pi)) return true;
      }
      return false;
    }
    if (vi >= v.size()) return false;
    if (pc != '_' && pc != v[vi]) return false;
    ++vi;
    ++pi;
  }
  return vi == v.size();
}

}  // namespace

bool SqlLikeMatchRecursive(std::string_view value, std::string_view pattern) {
  return LikeMatchImpl(value, 0, pattern, 0);
}

bool SqlLikeMatch(std::string_view value, std::string_view pattern) {
  if (pattern.find('_') != std::string_view::npos) {
    return LikeMatchImpl(value, 0, pattern, 0);
  }
  const size_t first = pattern.find('%');
  if (first == std::string_view::npos) return value == pattern;
  // pattern = head % seg % ... % seg % tail: the head and tail are
  // anchored, and each middle segment matches at its leftmost position
  // after the previous one, which leaves the most room for the rest.
  const size_t last = pattern.rfind('%');
  const std::string_view head = pattern.substr(0, first);
  const std::string_view tail = pattern.substr(last + 1);
  if (value.size() < head.size() + tail.size() ||
      value.substr(0, head.size()) != head ||
      value.substr(value.size() - tail.size()) != tail) {
    return false;
  }
  const std::string_view mid = value.substr(
      head.size(), value.size() - head.size() - tail.size());
  size_t at = 0;
  for (size_t p = first; p < last;) {
    const size_t next = pattern.find('%', p + 1);
    const std::string_view seg = pattern.substr(p + 1, next - p - 1);
    if (!seg.empty()) {
      at = mid.find(seg, at);
      if (at == std::string_view::npos) return false;
      at += seg.size();
    }
    p = next;
  }
  return true;
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

uint64_t Fnv1aHash(const void* data, size_t len, uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace taurus
