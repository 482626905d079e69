// Small string helpers used by the profile parser, query parser and
// workload generators.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace gsalert {

/// Split on a single character; empty pieces are kept.
std::vector<std::string> split(std::string_view text, char sep);

/// Strip ASCII whitespace from both ends.
std::string_view trim(std::string_view text);

/// The one ASCII case fold: 'A'..'Z' map to 'a'..'z', every other byte
/// is unchanged. to_lower and the *_lower helpers below all apply it, so
/// comparing through a helper agrees exactly with comparing to_lower()
/// copies.
constexpr char ascii_lower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

/// Lowercase ASCII copy.
std::string to_lower(std::string_view text);

/// Lowercase ASCII into `out`, reusing its capacity. For hot loops that
/// would otherwise allocate a fresh string per element.
void to_lower_into(std::string_view text, std::string& out);

/// True if `text` matches `pattern` where '*' matches any (possibly empty)
/// run of characters. This is the paper's wildcard micro-predicate.
bool wildcard_match(std::string_view pattern, std::string_view text);

/// Allocation-free comparisons against lowercased text, for matching
/// document values in place instead of lowering a copy of each:
///   compare_lower(a, b)          sign of to_lower(a).compare(to_lower(b))
///   equals_lower(text, lowered)  to_lower(text) == lowered
///   wildcard_match_lower(p, t)   wildcard_match(p, to_lower(t))
int compare_lower(std::string_view a, std::string_view b);
bool equals_lower(std::string_view text, std::string_view lowered);
bool wildcard_match_lower(std::string_view pattern, std::string_view text);

/// Tokenize free text into lowercase alphanumeric terms.
std::vector<std::string> tokenize(std::string_view text);

}  // namespace gsalert
