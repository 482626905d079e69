#include "common/strings.h"

#include <algorithm>
#include <cctype>

namespace gsalert {

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      return out;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view trim(std::string_view text) {
  while (!text.empty() &&
         std::isspace(static_cast<unsigned char>(text.front()))) {
    text.remove_prefix(1);
  }
  while (!text.empty() &&
         std::isspace(static_cast<unsigned char>(text.back()))) {
    text.remove_suffix(1);
  }
  return text;
}

std::string to_lower(std::string_view text) {
  std::string out;
  to_lower_into(text, out);
  return out;
}

void to_lower_into(std::string_view text, std::string& out) {
  out.clear();
  out.reserve(text.size());
  for (char c : text) out.push_back(ascii_lower(c));
}

namespace {

// Iterative two-pointer algorithm with backtracking to the last '*';
// `fold` is applied to each text character before it is compared.
template <typename Fold>
bool wildcard_impl(std::string_view pattern, std::string_view text,
                   Fold fold) {
  std::size_t p = 0, t = 0;
  std::size_t star = std::string_view::npos, mark = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == fold(text[t]) || pattern[p] == '?')) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      mark = t;
    } else if (star != std::string_view::npos) {
      p = star + 1;
      t = ++mark;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

}  // namespace

bool wildcard_match(std::string_view pattern, std::string_view text) {
  return wildcard_impl(pattern, text, [](char c) { return c; });
}

bool wildcard_match_lower(std::string_view pattern, std::string_view text) {
  return wildcard_impl(pattern, text, ascii_lower);
}

int compare_lower(std::string_view a, std::string_view b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] == b[i]) continue;
    // Unsigned, like std::string::compare's char_traits<char>::lt.
    const auto ca = static_cast<unsigned char>(ascii_lower(a[i]));
    const auto cb = static_cast<unsigned char>(ascii_lower(b[i]));
    if (ca != cb) return ca < cb ? -1 : 1;
  }
  if (a.size() == b.size()) return 0;
  return a.size() < b.size() ? -1 : 1;
}

bool equals_lower(std::string_view text, std::string_view lowered) {
  if (text.size() != lowered.size()) return false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (ascii_lower(text[i]) != lowered[i]) return false;
  }
  return true;
}

std::vector<std::string> tokenize(std::string_view text) {
  std::vector<std::string> terms;
  std::string current;
  for (char c : text) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      current.push_back(ascii_lower(c));
    } else if (!current.empty()) {
      terms.push_back(std::move(current));
      current.clear();
    }
  }
  if (!current.empty()) terms.push_back(std::move(current));
  return terms;
}

}  // namespace gsalert
